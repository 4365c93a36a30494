# Runs `${DREAMSIM} ${ARGS}` and passes only when it exits 0 and writes
# nothing to stderr:
#   cmake -DDREAMSIM=path/to/dreamsim "-DARGS=--queue-capacity=16" \
#         -P quiet_stderr.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${DREAMSIM}" ${args}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "dreamsim ${ARGS}: exit ${code}, want 0\n${err}")
endif()
if(NOT err STREQUAL "")
  string(LENGTH "${err}" bytes)
  string(SUBSTRING "${err}" 0 400 head)
  message(FATAL_ERROR "dreamsim ${ARGS}: ${bytes} bytes on stderr, want none:\n${head}")
endif()
