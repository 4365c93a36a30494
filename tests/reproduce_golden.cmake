# Pins the paper reproduction: runs `${REPRODUCE} --scale 0.05 --out ${OUT}`
# and passes only when
#   * each figure and Table I CSV is byte-identical to its twin in ${GOLDEN}
#     (tests/golden/reproduce_quick/);
#   * each extension-table CSV, whose size does not depend on --scale, is
#     byte-identical to the committed paper-scale copy in ${RESULTS};
#   * a second run with `--threads 1` writes the same bytes, file for file.
#   cmake -DREPRODUCE=path/to/reproduce -DGOLDEN=dir -DRESULTS=dir -DOUT=dir \
#         -P reproduce_golden.cmake
#
# A change to scheduling decisions or to a metric fails here. Updating a twin
# must be a deliberate edit that shows in review, made together with the
# paper-scale results/ and the numbers EXPERIMENTS.md quotes:
#   ./build/bench/reproduce --scale 0.05 --out /tmp/quick
#   cp /tmp/quick/{fig,table}*.csv tests/golden/reproduce_quick/
#   ./build/bench/reproduce            # regenerates results/
set(scaled fig06_wasted_area fig07_reconfig_count fig08_waiting_time
           fig09_scheduler_effort fig10_config_time table1)
set(fixed ablation_policies ablation_waste_accounting ablation_suspension
          ablation_fragmentation ablation_bitstream_cache ext_graph_scheduling)
set(serial "${OUT}_threads1")

function(run_reproduce dir)
  file(REMOVE_RECURSE "${dir}")
  execute_process(COMMAND "${REPRODUCE}" --scale 0.05 ${ARGN} --out "${dir}"
                  RESULT_VARIABLE code
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "reproduce --scale 0.05 ${ARGN}: exit ${code}\n${err}")
  endif()
endfunction()

# Appends each of the files ARGN that differs between `pin` and `out` to
# `changed`.
function(compare pin out)
  foreach(file IN LISTS ARGN)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            "${pin}/${file}" "${out}/${file}"
                    RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
      list(APPEND changed "${file}")
    endif()
  endforeach()
  set(changed "${changed}" PARENT_SCOPE)
endfunction()

run_reproduce("${OUT}")
run_reproduce("${serial}" --threads=1)

set(changed "")
list(TRANSFORM scaled APPEND .csv)
list(TRANSFORM fixed APPEND .csv)
compare("${GOLDEN}" "${OUT}" ${scaled})
compare("${RESULTS}" "${OUT}" ${fixed})
if(changed)
  message(FATAL_ERROR "reproduce --scale 0.05 differs from ${GOLDEN} or "
                      "${RESULTS} in: ${changed} (compare with ${OUT})")
endif()

file(GLOB written RELATIVE "${OUT}" "${OUT}/*")
file(GLOB written_serial RELATIVE "${serial}" "${serial}/*")
if(NOT written STREQUAL written_serial)
  message(FATAL_ERROR "--threads=1 wrote [${written_serial}], the default "
                      "run [${written}]")
endif()
compare("${OUT}" "${serial}" ${written})
if(changed)
  message(FATAL_ERROR "reproduce --threads=1 differs from the default run "
                      "in: ${changed} (compare ${OUT} with ${serial})")
endif()
