# A malformed numeric option value must be rejected with the documented exit
# code (2 for the bench harnesses, 3 for the tools) and a diagnostic naming
# the option, never silently read as a prefix ("3x" as 3) or a default.
# ctest's WILL_FAIL can only see "nonzero", so the exact code is asserted.
#
# Invoked by ctest as:
#   cmake -DBIN=<binary> -DARG=<argument> -DWANT=<exit code>
#         -DMATCH=<stderr substring> -P BadOptionValue.cmake

foreach(V BIN ARG WANT MATCH)
  if(NOT DEFINED ${V})
    message(FATAL_ERROR "${V} not set")
  endif()
endforeach()

execute_process(COMMAND ${BIN} ${ARG}
                OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR
                RESULT_VARIABLE RC)
if(NOT RC EQUAL ${WANT})
  message(FATAL_ERROR
          "${BIN} ${ARG}: expected exit code ${WANT}, got ${RC}:\n"
          "${OUT}\n${ERR}")
endif()
string(FIND "${ERR}" "${MATCH}" AT)
if(AT EQUAL -1)
  message(FATAL_ERROR "${BIN} ${ARG}: stderr lacks '${MATCH}':\n${ERR}")
endif()
