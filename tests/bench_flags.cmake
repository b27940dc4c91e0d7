# Bench command lines: a numeric flag must parse whole and a bad one exits
# 2 naming it, and an exception escaping a bench's body is reported with
# its message and exit status 1, not std::terminate's abort. Any BENCH_*.json
# a bench writes goes to WORKDIR, never over the committed ones.
function(expect_exit code pattern)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env OMT_BENCH_DIR=${WORKDIR}
                          ${ARGN}
                  RESULT_VARIABLE got OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT got EQUAL code OR NOT err MATCHES "${pattern}")
    message(FATAL_ERROR
            "expected exit ${code} and '${pattern}', got (${got}: ${err}): "
            "${ARGN}")
  endif()
endfunction()

# Integer flags: `1e5` must not read as 1, nor `3x` as 3.
expect_exit(2 "--max-n expects an integer, got '1e5'" ${FIG7} --max-n 1e5)
expect_exit(2 "--trials expects an integer, got '3x'" ${FIG7} --trials 3x)
# Counts are range-checked: a sweep capped below its smallest size, or with
# no trials, is refused before BENCH_construction.json is rewritten with an
# empty row list; a negative count is never a bench default.
file(REMOVE ${WORKDIR}/BENCH_construction.json)
expect_exit(2 "--max-n expects an integer >= 1, got '0'" ${FIG7} --max-n 0)
expect_exit(2 "--max-n 50 selects no size; the smallest is 100"
            ${FIG7} --max-n 50)
expect_exit(2 "--trials expects an integer >= 1, got '0'" ${FIG7} --trials 0)
if(EXISTS ${WORKDIR}/BENCH_construction.json)
  message(FATAL_ERROR "a refused sweep wrote BENCH_construction.json")
endif()
expect_exit(2 "--events expects an integer >= 0, got '-1'"
            ${CHURN} --steady-state --events -1)
# Figure 7 times one build at a time and refuses --threads.
expect_exit(2 "--threads does not apply to bench_fig7_runtime"
            ${FIG7} --threads 4)
# Floating-point flags: trailing text and non-finite values are errors.
expect_exit(2 "--min-events-per-sec expects a finite number, got '5abc'"
            ${CHURN} --steady-state --min-events-per-sec 5abc)
expect_exit(2 "--skew expects a finite number, got '1e400'"
            ${CHURN} --skew 1e400)
# The exact solver refuses n = 10000; the bench reports it and exits 1.
expect_exit(1 "error: invalid argument: instance too large for exact search"
            ${GAP} --max-n 10000)
