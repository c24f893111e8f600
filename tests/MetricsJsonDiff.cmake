# End-to-end checks on the metrics subsystem's hard invariants:
#
#   1. `--suite` stdout is byte-identical with and without the metrics
#      flags (--metrics-json / --metrics-prom / --heartbeat), for every
#      crossing of --jobs x --sandbox x --no-compile-cache.
#   2. rpjson validates every emitted metrics JSON and Prometheus file.
#   3. The canonical metrics projection (`rpjson metrics-canon`) is
#      byte-identical between --jobs=1 and --jobs=4 within each config —
#      the metrics mirror of the timestamp-stripped trace canon.
#   4. rpfuzz: verdict stream (stdout+stderr) unchanged by the metrics
#      exports, and its canon is jobs-independent too.
#
# Invoked by ctest as:
#   cmake -DRPCC_BIN=<rpcc> -DRPFUZZ_BIN=<rpfuzz> -DRPJSON_BIN=<rpjson>
#         -DWORK_DIR=<dir> [-DJIT_ENGINE=ON] -P MetricsJsonDiff.cmake
#
# JIT_ENGINE=ON says the build's default engine is the jit. The plain
# config's canon then also proves the jit's compile-side metrics
# (functions, fused pairs, resident registers — all counted once per
# compile under the code-cache lock) are jobs-invariant like every other
# stable metric, and that the volatile cache-hit split stays out of it.

cmake_policy(SET CMP0007 NEW) # keep the empty EXTRA of the plain config

foreach(V RPCC_BIN RPFUZZ_BIN RPJSON_BIN WORK_DIR)
  if(NOT ${V})
    message(FATAL_ERROR "${V} not set")
  endif()
endforeach()
file(MAKE_DIRECTORY ${WORK_DIR})

set(PROGRAMS --programs=tsp,dhrystone)

# Validates WORK_DIR/<file> against an rpjson schema.
function(validate SCHEMA FILE)
  execute_process(COMMAND ${RPJSON_BIN} ${SCHEMA} ${WORK_DIR}/${FILE}
                  OUTPUT_VARIABLE V_OUT ERROR_VARIABLE V_ERR
                  RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR
            "rpjson ${SCHEMA} rejected ${FILE}:\n${V_OUT}${V_ERR}")
  endif()
endfunction()

# Prints WORK_DIR/<file>'s canonical metrics projection into <outvar>.
function(metrics_canon FILE OUTVAR)
  execute_process(COMMAND ${RPJSON_BIN} metrics-canon ${WORK_DIR}/${FILE}
                  OUTPUT_VARIABLE CANON ERROR_VARIABLE V_ERR
                  RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "rpjson metrics-canon ${FILE} failed:\n${V_ERR}")
  endif()
  set(${OUTVAR} "${CANON}" PARENT_SCOPE)
endfunction()

# --- rpcc --suite: jobs x sandbox x cache crossings ------------------------
# Each config: a plain reference run, then metrics-flag runs at --jobs=1
# and --jobs=4. Stdout must match the reference byte-for-byte, both
# exports must validate, and the two canons must be identical.
set(CONFIGS "plain," "sandbox,--sandbox" "nocache,--no-compile-cache")
foreach(CONFIG ${CONFIGS})
  string(REPLACE "," ";" CONFIG "${CONFIG}")
  list(GET CONFIG 0 TAG)
  list(GET CONFIG 1 EXTRA)
  separate_arguments(EXTRA)

  execute_process(COMMAND ${RPCC_BIN} --suite ${PROGRAMS} ${EXTRA}
                  OUTPUT_VARIABLE REF_OUT ERROR_VARIABLE REF_ERR
                  RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR
            "reference --suite (${TAG}) failed (rc=${RC}):\n${REF_ERR}")
  endif()

  foreach(JOBS 1 4)
    set(BASE ${TAG}${JOBS})
    execute_process(COMMAND ${RPCC_BIN} --suite ${PROGRAMS} ${EXTRA}
                            --jobs=${JOBS}
                            --metrics-json=${WORK_DIR}/${BASE}.json
                            --metrics-prom=${WORK_DIR}/${BASE}.prom
                    OUTPUT_VARIABLE M_OUT ERROR_VARIABLE M_ERR
                    RESULT_VARIABLE RC)
    if(NOT RC EQUAL 0)
      message(FATAL_ERROR
              "metrics --suite (${BASE}) failed (rc=${RC}):\n${M_ERR}")
    endif()
    if(NOT M_OUT STREQUAL REF_OUT)
      message(FATAL_ERROR
              "--metrics-json/--metrics-prom changed --suite stdout "
              "(${TAG}, --jobs=${JOBS})")
    endif()
    validate(metrics ${BASE}.json)
    validate(prom ${BASE}.prom)
  endforeach()

  metrics_canon(${TAG}1.json CANON1)
  metrics_canon(${TAG}4.json CANON4)
  if(NOT CANON1 STREQUAL CANON4)
    message(FATAL_ERROR
            "metrics canon differs between --jobs=1 and --jobs=4 (${TAG})")
  endif()
  if(NOT CANON1 MATCHES "suite.cells 8")
    message(FATAL_ERROR
            "metrics canon (${TAG}) lost the suite.cells count:\n${CANON1}")
  endif()
endforeach()

# Sandboxed runs must populate the child resource histograms.
metrics_canon(sandbox1.json SANDBOX_CANON)
if(NOT SANDBOX_CANON MATCHES "jobs.child_wall_us count=8")
  message(FATAL_ERROR
          "sandboxed run did not observe child wall time:\n${SANDBOX_CANON}")
endif()

# Default-engine (jit) runs must surface the compile-side counters in the
# canon (each run adds the static figures of the functions it entered
# natively, so they survived the jobs-invariance compare above), and the
# volatile cache-hit split must stay out of it.
if(JIT_ENGINE)
  metrics_canon(plain1.json JIT_CANON)
  foreach(NEEDED jit.functions jit.fused_pairs jit.regalloc_resident_regs)
    if(NOT JIT_CANON MATCHES "${NEEDED} [1-9]")
      message(FATAL_ERROR
              "jit canon is missing a nonzero ${NEEDED}:\n${JIT_CANON}")
    endif()
  endforeach()
  if(NOT JIT_CANON MATCHES "jit.compile_us count=")
    message(FATAL_ERROR
            "jit canon lost the compile_us count:\n${JIT_CANON}")
  endif()
  if(JIT_CANON MATCHES "jit.cache_hits")
    message(FATAL_ERROR
            "volatile jit.cache_hits leaked into the canon:\n${JIT_CANON}")
  endif()
endif()

# --- the heartbeat leaves stdout untouched and quiesces cleanly ------------
execute_process(COMMAND ${RPCC_BIN} --suite ${PROGRAMS}
                OUTPUT_VARIABLE REF_OUT ERROR_VARIABLE REF_ERR
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "reference --suite failed (rc=${RC}):\n${REF_ERR}")
endif()
execute_process(COMMAND ${RPCC_BIN} --suite ${PROGRAMS} --jobs=4
                        --heartbeat=1
                OUTPUT_VARIABLE HB_OUT ERROR_VARIABLE HB_ERR
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "--heartbeat --suite failed (rc=${RC}):\n${HB_ERR}")
endif()
if(NOT HB_OUT STREQUAL REF_OUT)
  message(FATAL_ERROR "--heartbeat changed --suite stdout")
endif()

# --- rpfuzz: verdicts unchanged, canon jobs-independent --------------------
set(FUZZ --runs=60 --matrix=quick --seed=1)
execute_process(COMMAND ${RPFUZZ_BIN} ${FUZZ}
                OUTPUT_VARIABLE FREF_OUT ERROR_VARIABLE FREF_ERR
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "reference rpfuzz failed (rc=${RC}):\n${FREF_ERR}")
endif()
foreach(JOBS 1 4)
  execute_process(COMMAND ${RPFUZZ_BIN} ${FUZZ} --jobs=${JOBS}
                          --metrics-json=${WORK_DIR}/fuzz${JOBS}.json
                          --metrics-prom=${WORK_DIR}/fuzz${JOBS}.prom
                  OUTPUT_VARIABLE F_OUT ERROR_VARIABLE F_ERR
                  RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR
            "metrics rpfuzz (--jobs=${JOBS}) failed (rc=${RC}):\n${F_ERR}")
  endif()
  if(NOT F_OUT STREQUAL FREF_OUT OR NOT F_ERR STREQUAL FREF_ERR)
    message(FATAL_ERROR
            "metrics exports changed rpfuzz output (--jobs=${JOBS})")
  endif()
  validate(metrics fuzz${JOBS}.json)
  validate(prom fuzz${JOBS}.prom)
endforeach()
metrics_canon(fuzz1.json FCANON1)
metrics_canon(fuzz4.json FCANON4)
if(NOT FCANON1 STREQUAL FCANON4)
  message(FATAL_ERROR
          "rpfuzz metrics canon differs between --jobs=1 and --jobs=4")
endif()
if(NOT FCANON1 MATCHES "fuzz.seeds 60")
  message(FATAL_ERROR "rpfuzz canon lost the seed count:\n${FCANON1}")
endif()

message(STATUS "metrics_json_diff ok")
