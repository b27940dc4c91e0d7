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
# Disruption partitions are drawn in the population's dimension, so a 3-D
# RPC replay with disruption converges instead of failing on a dimension
# mismatch.
run(${OMTCLI} serve --dim 3 --rpc 1 --disrupt 1 --groups 8 --hosts 500
    --events 3000 --seed 2)
# A script record's time parses whole and finite, nothing may follow a
# record's last field, and host ids are never negative (-1 and -2 are the
# route tables' "origin" and "not a member"): each of these is a typed
# error, not "error: stod" or an accepted event.
set(bad_script ${WORKDIR}/cli_bad_script.txt)
foreach(record "abc 0 J 2 0.3 0.1" "1e400 0 J 2 0.3 0.1" "nan 0 J 2 0.3 0.1"
               "0.5x 0 J 2 0.3 0.1" "0.5 0 L 1 extra" "0.5 0 J -1 0.3 0.1"
               "0.5 0 J -2 0.3 0.1")
  file(WRITE ${bad_script}
       "# omt-membership-script v1\ndim 2\n0.1 0 J 1 0.1 0.2\n${record}\n")
  run_rejected(${OMTCLI} serve --script ${bad_script})
endforeach()
