# End-to-end integration test of skycube_serve, run by ctest: start the
# server on a synthetic dataset, pipe a scripted session through stdin and
# check the answer lines (one per query, "ok"/"err" prefixed); then check
# that an out-of-range --port and negative counts are refused, by
# skycube_router too.
# Invoked as:
#   cmake -DSERVE=<path-to-binary> -DROUTER=<path-to-binary>
#         -DWORK_DIR=<scratch-dir> -P serve_test.cmake
set(script "${WORK_DIR}/serve_test_session.txt")
file(WRITE ${script} "skyline AC
card AC
card AC
member 0 AC
count 0
total
batch card A; card B; member 0 AB
insert 0.5,0.5,0.5,0.5
card AC
health
skyline ZZ
bogus
stats
quit
")

execute_process(
  COMMAND ${SERVE} --synthetic --dist=correlated --tuples=500 --dims=4
          --seed=7 --cache-capacity=1024
  INPUT_FILE ${script}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "skycube_serve failed (${code}): ${err}\n${out}")
endif()

# One answer line per scripted query (13 before 'quit'). Semicolons inside
# answers (batch separators) would split CMake lists — neutralize them first.
string(REPLACE ";" "~" sanitized "${out}")
string(REGEX REPLACE "\n$" "" trimmed "${sanitized}")
string(REPLACE "\n" ";" lines "${trimmed}")
list(LENGTH lines num_lines)
if(NOT num_lines EQUAL 13)
  message(FATAL_ERROR
    "expected 13 answer lines, got ${num_lines}:\n${out}")
endif()

function(expect_line index pattern)
  list(GET lines ${index} line)
  if(NOT line MATCHES "${pattern}")
    message(FATAL_ERROR
      "line ${index}: expected match for '${pattern}', got '${line}'")
  endif()
endfunction()

expect_line(0 "^ok n=[0-9]+ v=1 hit=0 ids=")
expect_line(1 "^ok count=[0-9]+ v=1 hit=0")
expect_line(2 "^ok count=[0-9]+ v=1 hit=1")   # repeat → cache hit
expect_line(3 "^ok member=(yes|no) v=1")
expect_line(4 "^ok count=[0-9]+ v=1")
expect_line(5 "^ok count=[0-9]+ v=1")
expect_line(6 "^ok .* ~ ok .* ~ ok ")          # batch: three answers
expect_line(7 "^ok path=(duplicate|noop|extension|recompute) version=2")
expect_line(8 "^ok count=[0-9]+ v=2 hit=0")    # post-swap: new version, cold
expect_line(9 "^ok status=ready version=2 durable=0")  # volatile serve mode
expect_line(10 "^err ")                        # Z beyond 4 dims
expect_line(11 "^err unknown query")
expect_line(12 "^ok queries=.*cache_hits=.*version=2 swaps=1")

# Q1/card answers must agree before the insert: lines 1 and 2 equal counts.
list(GET lines 1 card_one)
list(GET lines 2 card_two)
string(REGEX MATCH "count=[0-9]+" c1 "${card_one}")
string(REGEX MATCH "count=[0-9]+" c2 "${card_two}")
if(NOT c1 STREQUAL c2)
  message(FATAL_ERROR "cached answer diverged: '${c1}' vs '${c2}'")
endif()

file(REMOVE ${script})

# A port outside [0, 65535] is a usage error (exit 2), not a silent wrap to
# another port.
execute_process(
  COMMAND ${SERVE} --synthetic --tuples=50 --dims=3 --port=65536
  TIMEOUT 30
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(NOT code EQUAL 2 OR NOT err MATCHES "outside \\[0, 65535\\]")
  message(FATAL_ERROR
    "--port=65536: expected exit 2 with a range message, got ${code}: "
    "${err}\n${out}")
endif()

# A negative count or size is a usage error (exit 2), not a wrap to a huge
# size_t (--tuples=-1 asked for 2^64 - 1 rows and died in bad_alloc). The
# router refuses before it contacts any shard.
foreach(args
    "${SERVE};--synthetic;--tuples=-1;--dims=2"
    "${SERVE};--synthetic;--tuples=50;--dims=3;--cache-capacity=-5"
    "${SERVE};--synthetic;--tuples=50;--dims=3;--max-connections=-1"
    "${ROUTER};--shards=127.0.0.1:1;--synthetic;--tuples=-1;--dims=2"
    "${ROUTER};--shards=127.0.0.1:1;--synthetic;--net-queue=-3")
  execute_process(
    COMMAND ${args}
    TIMEOUT 30
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code)
  if(NOT code EQUAL 2 OR NOT err MATCHES "must not be negative")
    message(FATAL_ERROR
      "${args}: expected exit 2 with a sign message, got ${code}: "
      "${err}\n${out}")
  endif()
endforeach()

message(STATUS "skycube_serve end-to-end: OK")
