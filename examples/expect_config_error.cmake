# Runs `oddci_runner /dev/null [ENABLE] OVERRIDE` and requires exit status
# 2 with KEY named in the error message. ENABLE is an optional override
# that switches on the subsystem reading KEY (e.g. verify=true).
#
#   cmake -DRUNNER=<oddci_runner> [-DENABLE=flag=true] -DOVERRIDE=key=value \
#         -DKEY=key -P expect_config_error.cmake
execute_process(COMMAND ${RUNNER} /dev/null ${ENABLE} ${OVERRIDE}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "${OVERRIDE}: exit ${status}, want 2\n${out}${err}")
endif()
if(NOT err MATCHES "error: .*${KEY}")
  message(FATAL_ERROR "${OVERRIDE}: message does not name ${KEY}: ${err}")
endif()
