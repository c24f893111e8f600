# `rpfuzz --reduce --predicate=diverge` must refuse a source that does not
# compile: with no clean reference cell there is nothing to diverge from,
# and counting it would let ddmin delete the whole program.
#
# Invoked by ctest as:
#   cmake -DRPFUZZ_BIN=<rpfuzz> -DWORK_DIR=<dir> -P ReduceRejectsBrokenInput.cmake

foreach(V RPFUZZ_BIN WORK_DIR)
  if(NOT ${V})
    message(FATAL_ERROR "${V} not set")
  endif()
endforeach()
file(MAKE_DIRECTORY ${WORK_DIR})
file(WRITE ${WORK_DIR}/syntax_error.c "int main( { return 0; }\n")

execute_process(COMMAND ${RPFUZZ_BIN} --reduce=${WORK_DIR}/syntax_error.c
                        --predicate=diverge
                OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 1)
  message(FATAL_ERROR "expected exit code 1, got ${RC}:\n${OUT}${ERR}")
endif()
if(NOT ERR MATCHES "does not satisfy predicate")
  message(FATAL_ERROR "missing rejection diagnostic:\n${ERR}")
endif()
