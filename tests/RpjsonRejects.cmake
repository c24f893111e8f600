# rpjson's rejections: every malformed file under tests/rpjson/ breaks one
# schema rule and must exit with code exactly 1 (not 0, not a crash), and
# print the problem line that names the rule and where it was broken. The
# other observability ctests only ever feed rpjson good files, so without
# this a check that silently stopped checking would go unnoticed.
#
# A 200,000-deep array is generated here rather than committed: it must be
# rejected as too deep, not overflow the stack.
#
# Invoked by ctest as:
#   cmake -DRPJSON_BIN=<rpjson> -DCORPUS_DIR=<tests/rpjson> -DWORK_DIR=<dir>
#         -P RpjsonRejects.cmake

foreach(V RPJSON_BIN CORPUS_DIR WORK_DIR)
  if(NOT ${V})
    message(FATAL_ERROR "${V} not set")
  endif()
endforeach()
file(MAKE_DIRECTORY ${WORK_DIR})

string(REPEAT "[" 200000 OPEN)
string(REPEAT "]" 200000 CLOSE)
file(WRITE ${WORK_DIR}/deep.json "${OPEN}${CLOSE}\n")
file(WRITE ${WORK_DIR}/deep.jsonl "${OPEN}${CLOSE}\n")

# mode | file (WORK_DIR-relative when it starts with "work/") | expected
# problem text. Fields are '|'-separated so phrases may contain commas.
set(CASES
  "remarks|remarks-missing-key.jsonl|remarks line 2: missing key 'pass'"
  "remarks|remarks-wrong-type.jsonl|remarks line 2: key 'depth' has wrong type"
  "remarks|remarks-unknown-kind.jsonl|remarks line 2: key 'kind' has unknown value 'elided'"
  "remarks|remarks-unknown-reason.jsonl|remarks line 2: key 'reason' has unknown value 'bad-luck'"
  "remarks|remarks-not-object.jsonl|remarks line 2: line is not a JSON object"
  "remarks|remarks-trailing-garbage.jsonl|remarks line 2: trailing garbage"
  "remarks|remarks-empty.jsonl|remarks: no objects found"
  "profile|profile-loads-sum.jsonl|profile line 2: counts' loads do not sum to total_loads"
  "profile|profile-stores-sum.jsonl|profile line 2: counts' stores do not sum to total_stores"
  "profile|profile-parent-order.jsonl|profile line 2 loops[1]: parent must precede the loop (preorder)"
  "profile|profile-loop-range.jsonl|profile line 2 counts[0]: loop index out of range"
  "profile|profile-count-missing-key.jsonl|profile line 2 counts[0]: missing key 'tag'"
  "profile|profile-loop-wrong-type.jsonl|profile line 2 loops[0]: key 'depth' has wrong type"
  "profile|profile-loop-not-object.jsonl|profile line 2 loops[2]: not an object"
  "profile|profile-missing-total.jsonl|profile line 2: missing key 'total_stores'"
  "trace|trace-ph.json|trace event 1: ph must be \"X\" (complete span)"
  "trace|trace-args-type.json|trace event 1: args is not an object"
  "trace|trace-args-value.json|trace event 1: args value for 'job' is not a string"
  "trace|trace-missing-key.json|trace event 1: missing key 'ts'"
  "trace|trace-wrong-type.json|trace event 1: key 'tid' has wrong type"
  "trace|trace-event-not-object.json|trace event 1: not an object"
  "trace|trace-missing-events.json|trace: missing key 'traceEvents'"
  "trace|trace-top-level.json|trace: top-level value is not an object"
  "trace|trace-trailing-garbage.json|trace: trailing garbage"
  "canon|trace-ph.json|trace event 1: ph must be \"X\" (complete span)"
  "timing|timing-attempts.json|timing jobs[0]: attempts must be at least 1"
  "timing|timing-job-status.json|timing jobs[0]: key 'status' has unknown value 'exploded'"
  "timing|timing-job-missing-key.json|timing jobs[0]: missing key 'signal'"
  "timing|timing-jobs-type.json|timing: key 'jobs' has wrong type"
  "timing|timing-missing-key.json|timing: missing key 'engine'"
  "timing|timing-pass-wrong-type.json|timing passes[0]: key 'calls' has wrong type"
  "timing|timing-pass-not-object.json|timing passes[1]: not an object"
  "metrics|metrics-unsorted.json|metric 1: metrics are not sorted by (name, labels), or duplicate"
  "metrics|metrics-duplicate.json|metric 1: metrics are not sorted by (name, labels), or duplicate"
  "metrics|metrics-bucket-sum.json|metric 1: buckets do not sum to count"
  "metrics|metrics-bucket-count.json|metric 1: buckets must have exactly 65 entries"
  "metrics|metrics-bucket-negative.json|metric 1: buckets must be non-negative numbers"
  "metrics|metrics-schema.json|metrics: schema must be \"metrics\""
  "metrics|metrics-name-charset.json|metric 2: name 'c.Gauge' has characters outside [a-z0-9._]"
  "metrics|metrics-unknown-kind.json|metric 2: key 'kind' has unknown value 'summary'"
  "metrics|metrics-unknown-stability.json|metric 2: key 'stability' has unknown value 'flaky'"
  "metrics|metrics-label-type.json|metric 1: label 'engine' is not a string"
  "metrics|metrics-missing-value.json|metric 2: missing key 'value'"
  "metrics|metrics-wrong-type.json|metric 2: key 'help' has wrong type"
  "metrics-canon|metrics-unsorted.json|metric 1: metrics are not sorted by (name, labels), or duplicate"
  "prom|prom-le-order.prom|prom line 8: le bounds not strictly increasing"
  "prom|prom-no-inf.prom|prom family rpcc_x_us: histogram has no le=\"+Inf\" bucket"
  "prom|prom-bucket-decreased.prom|prom line 8: cumulative bucket count decreased"
  "prom|prom-count-mismatch.prom|prom family rpcc_x_us: _count does not equal the +Inf bucket"
  "prom|prom-after-inf.prom|prom line 8: bucket after le=\"+Inf\""
  "prom|prom-no-sum.prom|prom family rpcc_x_us: histogram has no _sum sample"
  "prom|prom-no-type.prom|prom line 2: sample for 'rpcc_ops_total' without a preceding # TYPE"
  "prom|prom-no-help.prom|prom line 2: sample for 'rpcc_ops_total' without a preceding # HELP"
  "prom|prom-bad-name.prom|prom line 1: bad metric name 'rpcc-ops'"
  "prom|prom-bad-value.prom|prom line 3: malformed sample value"
  "prom|prom-unknown-type.prom|prom line 2: unknown type 'summary'"
  "prom|prom-duplicate-type.prom|prom line 4: duplicate TYPE for 'rpcc_ops_total'"
  "prom|prom-empty.prom|prom: no samples found"
  "bench|bench-steps-disagree.json|bench results[1]: engines disagree on steps for 'fft'"
  "bench|bench-unknown-engine.json|bench results[0]: key 'engine' has unknown value 'llvm'"
  "bench|bench-engine-type.json|bench results[0]: key 'engine' has wrong type"
  "bench|bench-unknown-mode.json|bench results[1]: key 'mode' has unknown value 'warm'"
  "bench|bench-engine-and-mode.json|bench results[0]: row has both 'engine' and 'mode'"
  "bench|bench-neither.json|bench results[0]: row needs 'engine' (interp bench) or 'mode' (compile bench)"
  "bench|bench-reps.json|bench: reps must be at least 1"
  "bench|bench-empty-results.json|bench: results is empty"
  "bench|bench-jit-geomean-missing.json|bench: missing key 'geomean_speedup_jit'"
  "bench|bench-jit-geomean-extra.json|bench: geomean_speedup_jit present without jit rows"
  "bench|bench-wall-negative.json|bench results[0]: wall_ms is negative"
  "bench|bench-compile-ms-type.json|bench results[1]: key 'compile_ms' has wrong type"
  "bench|bench-missing-key.json|bench results[1]: missing key 'program'"
  "bench|bench-interp-commit-missing.json|bench: missing key 'commit'"
  "bench|bench-interp-nproc.json|bench: nproc must be at least 1"
  "bench|bench-interp-median-missing.json|bench results[1]: missing key 'median_ms'"
  "bench|bench-interp-runs.json|bench results[1]: runs must be at least 1"
  "bench|bench-interp-spread-order.json|bench results[1]: wall_ms <= median_ms <= max_ms does not hold"
  "bench|bench-compile-provenance-missing.json|bench: missing key 'build_type'"
  "bench|bench-compile-median-missing.json|bench results[1]: missing key 'median_ms'"
  "bench|bench-compile-spread-order.json|bench results[1]: wall_ms <= median_ms <= max_ms does not hold"
  "bench|work/deep.json|bench: nesting too deep"
  "bench|bench-number-bare-point.json|bench: malformed number at offset 10"
  "bench|bench-number-bare-exponent.json|bench: malformed number at offset 68"
  "bench|bench-number-bare-exponent-sign.json|bench: malformed number at offset 69"
  "bench|bench-number-leading-zero.json|bench: malformed number at offset 10"
  "bench|bench-number-negative-leading-zero.json|bench: malformed number at offset 141"
  "remarks|work/deep.jsonl|remarks line 1: nesting too deep"
  "bench-served|bench-served-warm-rps.json|bench-served: warm_rps does not match its row"
  "bench-served|bench-served-fork-rps.json|bench-served: fork_rps does not match its row"
  "bench-served|bench-served-speedup.json|bench-served: speedup_warm_vs_fork is not warm_rps / fork_rps"
  "bench-served|bench-served-headline-rows.json|bench-served: no warm/fork rows at headline_connections"
  "bench-served|bench-served-duplicate-row.json|bench-served results[5]: duplicate (scenario, connections) row"
  "bench-served|bench-served-p99.json|bench-served results[3]: p99_us below p50_us"
  "bench-served|bench-served-rps.json|bench-served results[3]: rps must be positive"
  "bench-served|bench-served-connections.json|bench-served results[3]: connections must be at least 1"
  "bench-served|bench-served-unknown-scenario.json|bench-served results[3]: key 'scenario' has unknown value 'hot'"
  "bench-served|bench-served-workers.json|bench-served: workers must be at least 1"
  "bench-served|bench-served-missing-key.json|bench-served: missing key 'fork_rps'"
  "bench-served|bench-served-empty-results.json|bench-served: results is empty")

set(FAILURES "")
foreach(CASE IN LISTS CASES)
  string(REPLACE "|" ";" FIELDS "${CASE}")
  list(GET FIELDS 0 MODE)
  list(GET FIELDS 1 FILE)
  list(GET FIELDS 2 PHRASE)
  if(FILE MATCHES "^work/")
    string(REGEX REPLACE "^work/" "${WORK_DIR}/" PATH "${FILE}")
  else()
    set(PATH "${CORPUS_DIR}/${FILE}")
  endif()
  execute_process(COMMAND ${RPJSON_BIN} ${MODE} ${PATH}
                  OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
  if(NOT RC STREQUAL "1")
    string(APPEND FAILURES
           "rpjson ${MODE} ${FILE}: expected exit code 1, got '${RC}'\n${ERR}")
    continue()
  endif()
  string(FIND "${ERR}" "rpjson: ${PHRASE}" AT)
  if(AT EQUAL -1)
    string(APPEND FAILURES
           "rpjson ${MODE} ${FILE}: missing \"${PHRASE}\" in:\n${ERR}")
  endif()
endforeach()

if(FAILURES)
  message(FATAL_ERROR "${FAILURES}")
endif()
