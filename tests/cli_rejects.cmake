# Runs `${DREAMSIM} ${ARGS}` (dreamsim or any other CliParser binary) and
# passes only when it exits 1 and its stderr names ${FLAG}:
#   cmake -DDREAMSIM=path/to/dreamsim "-DARGS=--tasks=300 --x=-1" \
#         -DFLAG=--x -P cli_rejects.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${DREAMSIM}" ${args}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code EQUAL 1)
  message(FATAL_ERROR "dreamsim ${ARGS}: exit ${code}, want 1\n${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "dreamsim ${ARGS}: stderr does not name ${FLAG}:\n${err}")
endif()
