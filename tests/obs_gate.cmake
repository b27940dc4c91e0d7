# Observability gate: a chaos run with tracing and metrics enabled must
# exit cleanly, the Prometheus dump must show zero duplicate applications
# (exactly-once held under loss, partitions, and crash bursts), and the
# Chrome trace must be well-formed JSON with at least one span.
function(run)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "command failed (${code}): ${ARGV}")
  endif()
endfunction()

set(metrics ${WORKDIR}/obs_gate_metrics.txt)
set(trace ${WORKDIR}/obs_gate_trace.json)
run(${OMTCLI} chaos --seed 42 --duration 5 --settle 15
    --metrics ${metrics} --trace ${trace})

file(READ ${metrics} metrics_text)
if(NOT metrics_text MATCHES "omt_rpc_duplicates_applied_total 0\n")
  message(FATAL_ERROR
      "duplicate RPC applications detected (exactly-once broken):\n"
      "${metrics_text}")
endif()
if(NOT metrics_text MATCHES "# TYPE omt_chaos_runs_total counter")
  message(FATAL_ERROR "chaos counters missing from metrics dump")
endif()

file(READ ${trace} trace_text)
string(JSON event_count LENGTH "${trace_text}" traceEvents)
if(event_count LESS 1)
  message(FATAL_ERROR "trace contains no spans")
endif()
string(JSON first_phase GET "${trace_text}" traceEvents 0 ph)
if(NOT first_phase STREQUAL "X")
  message(FATAL_ERROR "trace events are not complete ('X') events")
endif()

# Service metrics: a small skewed multi-worker serve must export the
# delta-publication counter.
set(serve_metrics ${WORKDIR}/obs_gate_serve_metrics.txt)
run(${OMTCLI} serve --events 20000 --groups 64 --hosts 2000 --shards 4
    --skew 1.0 --metrics ${serve_metrics})

file(READ ${serve_metrics} serve_text)
foreach(metric
    omt_service_delta_publishes_total)
  if(NOT serve_text MATCHES "# TYPE ${metric}")
    message(FATAL_ERROR
        "service metric ${metric} missing from serve dump:\n"
        "${serve_text}")
  endif()
endforeach()
