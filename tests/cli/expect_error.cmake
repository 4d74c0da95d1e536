# Run a command that must reject its input: it has to exit with status
# STATUS (default 1; not crash) and print exactly one line to stderr
# matching EXPECT.
#
#   cmake -DCMD="<exe>;<arg>;..." -DEXPECT="<regex>" [-DSTATUS=<n>] \
#         -P expect_error.cmake
if(NOT DEFINED STATUS)
  set(STATUS 1)
endif()
execute_process(COMMAND ${CMD}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${STATUS}")
  message(FATAL_ERROR "want exit status ${STATUS}, got '${rc}'\n${out}${err}")
endif()
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT lines EQUAL 1)
  message(FATAL_ERROR "want one diagnosed line, got ${lines}:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "diagnosis does not match '${EXPECT}':\n${err}")
endif()
