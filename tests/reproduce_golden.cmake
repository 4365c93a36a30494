# Pins the paper reproduction: runs `${REPRODUCE} --scale 0.05 --out ${OUT}`
# and passes only when each of its six CSVs is byte-identical to its twin in
# ${GOLDEN} (tests/golden/reproduce_quick/):
#   cmake -DREPRODUCE=path/to/reproduce -DGOLDEN=dir -DOUT=dir \
#         -P reproduce_golden.cmake
#
# A change to scheduling decisions or to a metric fails here. Updating a twin
# must be a deliberate edit that shows in review, made together with the
# paper-scale results/ and the numbers EXPERIMENTS.md quotes:
#   ./build/bench/reproduce --scale 0.05 --out /tmp/quick
#   cp /tmp/quick/*.csv tests/golden/reproduce_quick/
#   ./build/bench/reproduce            # regenerates results/
set(names fig06_wasted_area fig07_reconfig_count fig08_waiting_time
          fig09_scheduler_effort fig10_config_time table1)
file(REMOVE_RECURSE "${OUT}")
execute_process(COMMAND "${REPRODUCE}" --scale 0.05 --out "${OUT}"
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "reproduce --scale 0.05: exit ${code}\n${err}")
endif()
set(changed "")
foreach(name IN LISTS names)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${GOLDEN}/${name}.csv" "${OUT}/${name}.csv"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    list(APPEND changed "${name}.csv")
  endif()
endforeach()
if(changed)
  message(FATAL_ERROR "reproduce --scale 0.05 differs from ${GOLDEN} in: "
                      "${changed} (compare with ${OUT})")
endif()
