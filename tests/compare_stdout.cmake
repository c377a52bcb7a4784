# Runs PROGRAM with the space-separated ARGS and fails unless its stdout
# equals the file GOLDEN byte for byte. On a mismatch the actual output is
# written to ACTUAL so it can be diffed against the golden file.
#   cmake -DPROGRAM=... -DARGS="..." -DGOLDEN=... -DACTUAL=... -P compare_stdout.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "stdout differs from ${GOLDEN}; see ${ACTUAL}")
endif()
