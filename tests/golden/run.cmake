# Runs one command for ctest and checks how it exited and what it printed.
#   cmake -DCOMMAND=<program> "-DARGS=<space-separated arguments>"
#         [-DEXPECT_EXIT=<status, default 0>]
#         [-DGOLDEN=<file> -DOUTPUT=<file>]   standard output, written to
#                                              OUTPUT, must equal GOLDEN
#                                              byte for byte
#         [-DSTDERR_MATCH=<regex>]            standard error must match
#         -P run.cmake
# An abort reports a signal, not a status, so it never passes.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(NOT DEFINED EXPECT_EXIT)
  set(EXPECT_EXIT 0)
endif()
if(DEFINED GOLDEN)
  execute_process(COMMAND "${COMMAND}" ${args}
    RESULT_VARIABLE status OUTPUT_FILE "${OUTPUT}" ERROR_VARIABLE stderr)
else()
  execute_process(COMMAND "${COMMAND}" ${args}
    RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE stderr)
endif()
if(NOT "${status}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
    "${COMMAND} ${ARGS}\nexited with '${status}', expected ${EXPECT_EXIT}\n"
    "${stderr}")
endif()
if(DEFINED STDERR_MATCH AND NOT stderr MATCHES "${STDERR_MATCH}")
  message(FATAL_ERROR
    "${COMMAND} ${ARGS}\nstandard error does not match '${STDERR_MATCH}':\n"
    "${stderr}")
endif()
if(DEFINED GOLDEN)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${OUTPUT}" "${GOLDEN}" RESULT_VARIABLE differs)
  if(differs)
    file(READ "${OUTPUT}" got)
    message(FATAL_ERROR
      "${COMMAND} ${ARGS}\nprinted something other than ${GOLDEN}; if the "
      "change is intended, tests/golden/update.sh rewrites it and prints the "
      "diff. Printed:\n${got}")
  endif()
endif()
