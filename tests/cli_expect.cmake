# Runs a command and checks its exit status and stderr:
#
#   cmake -DEXPECT_STATUS=N -DEXPECT_STDERR=REGEX -P cli_expect.cmake -- CMD ARG...
#
# Used by the dcc_sim command-line cases in tests/CMakeLists.txt.
set(command)
set(collect OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(collect ON)
  endif()
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE status OUTPUT_QUIET
                ERROR_VARIABLE stderr)
if(NOT status STREQUAL EXPECT_STATUS)
  message(FATAL_ERROR "exit status ${status}, expected ${EXPECT_STATUS}\n${stderr}")
endif()
if(NOT stderr MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${stderr}")
endif()
