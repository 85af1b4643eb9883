# Runs `oddci_runner /dev/null OVERRIDE` and requires exit status 2 with
# KEY named in the error message.
#
#   cmake -DRUNNER=<oddci_runner> -DOVERRIDE=key=value -DKEY=key \
#         -P expect_config_error.cmake
execute_process(COMMAND ${RUNNER} /dev/null ${OVERRIDE}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "${OVERRIDE}: exit ${status}, want 2\n${out}${err}")
endif()
if(NOT err MATCHES "error: .*${KEY}")
  message(FATAL_ERROR "${OVERRIDE}: message does not name ${KEY}: ${err}")
endif()
