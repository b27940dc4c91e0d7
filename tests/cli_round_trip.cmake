# Drives omtcli end to end; any failing step aborts the test.
function(run)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "command failed (${code}): ${ARGV}")
  endif()
endfunction()

# A command that must be refused with a typed error (exit 1 and an
# "invalid argument" message), not run, crash or abort.
function(run_rejected)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 1 OR NOT err MATCHES "invalid argument")
    message(FATAL_ERROR "command not rejected (${code}: ${err}): ${ARGV}")
  endif()
endfunction()

set(pts ${WORKDIR}/cli_pts.txt)
set(tree ${WORKDIR}/cli_tree.txt)
set(svg ${WORKDIR}/cli_fig.svg)
run(${OMTCLI} generate --n 1500 --region clustered --seed 5 --out ${pts})
run(${OMTCLI} build --points ${pts} --algo polar --degree 6 --out ${tree})
run(${OMTCLI} metrics --points ${pts} --tree ${tree} --degree 6)
run(${OMTCLI} simulate --points ${pts} --tree ${tree} --serialization 0.01 --order deepest)
run(${OMTCLI} dataplane --points ${pts} --tree ${tree} --packets 200 --loss 0.01 --control-loss 0.005 --seed 7)
# Integer flags must parse whole and fit their field: 2^32 + 128 must not
# wrap to a 128-packet queue, 2^32 must not wrap to degree 0 ("use the
# tree's cap"), and trailing garbage is an error.
run_rejected(${OMTCLI} dataplane --points ${pts} --tree ${tree} --packets 200 --queue 4294967424)
run_rejected(${OMTCLI} dataplane --points ${pts} --tree ${tree} --packets 200 --degree 4294967296)
run_rejected(${OMTCLI} dataplane --points ${pts} --tree ${tree} --packets 200 --queue 12abc)
# Floating-point flags too: trailing garbage must not run as loss 0.01, and
# an overflowing or non-finite value is a typed error, not "error: stod".
run_rejected(${OMTCLI} dataplane --points ${pts} --tree ${tree} --packets 200 --loss 0.01abc)
run_rejected(${OMTCLI} dataplane --points ${pts} --tree ${tree} --packets 200 --loss 1e400)
run_rejected(${OMTCLI} dataplane --points ${pts} --tree ${tree} --packets 200 --loss nan)
run(${OMTCLI} render --points ${pts} --tree ${tree} --grid 1 --out ${svg})

# Multi-group service: generate + save the membership script, then replay
# the saved artifact with a different worker count; both runs must
# converge (exit 0) on the same deterministic script.
set(script ${WORKDIR}/cli_service_script.txt)
run(${OMTCLI} serve --groups 40 --hosts 800 --events 8000 --seed 11
    --shards 2 --save-script ${script})
run(${OMTCLI} serve --script ${script} --shards 1 --rpc 1)
# A huge worker request is capped by the pool's capacity; it must not size
# per-worker state by the request.
run(${OMTCLI} serve --script ${script} --shards 2147483647)
