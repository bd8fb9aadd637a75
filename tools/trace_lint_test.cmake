# End-to-end trace pipeline check, run under ctest:
#   1. `yourstate explain` replays one selector-chained cell with a trace
#      export, and trace_lint must accept the file.
#   2. `bench_table4` at smoke scale with a flight-recorder directory must
#      archive at least one anomalous trial, and every archived trace must
#      pass trace_lint.
#   3. Every bench `yourstate explain --bench=` accepts (read from its own
#      usage message, so a new bench without a case here fails) replays a
#      trial >= 1 coordinate at small scale: its trace must pass trace_lint
#      and its pcap must be non-empty.
#
# Invoked as:
#   cmake -DYOURSTATE=<path> -DBENCH_TABLE4=<path> -DTRACE_LINT=<path>
#         -DWORK_DIR=<dir> -P trace_lint_test.cmake

foreach(var YOURSTATE BENCH_TABLE4 TRACE_LINT WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "trace_lint_test: missing -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# --- 1. explain a selector-chained cell, lint its trace export ------------
set(explain_trace "${WORK_DIR}/explain.trace.json")
execute_process(
  COMMAND "${YOURSTATE}" explain --bench=table4-intang --cell=0 --vantage=0
          --server=0 --trial=1 --servers=3 --trials=2
          --trace-out=${explain_trace}
  RESULT_VARIABLE explain_rc
  OUTPUT_VARIABLE explain_out
  ERROR_VARIABLE explain_err)
message(STATUS "yourstate explain output:\n${explain_out}")
if(NOT explain_rc EQUAL 0)
  message(FATAL_ERROR "yourstate explain failed (${explain_rc}):\n"
                      "${explain_out}\n${explain_err}")
endif()
if(NOT EXISTS "${explain_trace}")
  message(FATAL_ERROR "yourstate explain did not write ${explain_trace}")
endif()

execute_process(
  COMMAND "${TRACE_LINT}" "${explain_trace}"
  RESULT_VARIABLE lint_rc
  OUTPUT_VARIABLE lint_out
  ERROR_VARIABLE lint_err)
if(NOT lint_rc EQUAL 0)
  message(FATAL_ERROR "trace_lint rejected explain trace:\n"
                      "${lint_out}\n${lint_err}")
endif()
message(STATUS "${lint_out}")

# --- 2. flight recorder archives an anomalous cell at smoke scale ---------
set(flight_dir "${WORK_DIR}/flight")
execute_process(
  COMMAND "${BENCH_TABLE4}" --trials=1 --servers=3 --seed=2017
          --flight-dir=${flight_dir}
  RESULT_VARIABLE bench_rc
  OUTPUT_VARIABLE bench_out
  ERROR_VARIABLE bench_err)
# bench_table4's exit code reflects its own acceptance bars at paper scale;
# at smoke scale only the flight-recorder artifacts are under test here.
message(STATUS "bench_table4 smoke exit: ${bench_rc}")

file(GLOB archived_traces "${flight_dir}/*.trace.json")
file(GLOB archived_pcaps "${flight_dir}/*.pcap")
list(LENGTH archived_traces n_traces)
list(LENGTH archived_pcaps n_pcaps)
if(n_traces EQUAL 0)
  message(FATAL_ERROR "flight recorder archived no traces at smoke scale:\n"
                      "${bench_out}\n${bench_err}")
endif()
if(n_pcaps EQUAL 0)
  message(FATAL_ERROR "flight recorder archived traces but no pcaps")
endif()
message(STATUS "flight recorder archived ${n_traces} trace(s), "
               "${n_pcaps} pcap(s)")

execute_process(
  COMMAND "${TRACE_LINT}" ${archived_traces}
  RESULT_VARIABLE lint_rc
  OUTPUT_VARIABLE lint_out
  ERROR_VARIABLE lint_err)
if(NOT lint_rc EQUAL 0)
  message(FATAL_ERROR "trace_lint rejected archived trace(s):\n"
                      "${lint_out}\n${lint_err}")
endif()
message(STATUS "${lint_out}")

# --- 3. every explain target: lintable trace, non-empty pcap ---------------
# Small-scale coordinate per bench, on top of the shared axes below. Fleet
# specs and search programs avoid ';' (a CMake list separator).
set(explain_common --vantage=0 --server=0 --trial=1 --trials=2 --servers=2)
set(explain_args_table1 --cell=18)
set(explain_args_table4-inside --cell=2)
set(explain_args_table4-intang --cell=0)
set(explain_args_table6-dns --cell=0)
set(explain_args_faults --cell=1 --faults=loss-burst)
set(explain_args_fleet --fleet=flows=8 --trial=5)
set(explain_args_search --program=data:rst/ttl*3 --cell=1 --trials=1
    --faulted-trials=1)

execute_process(
  COMMAND "${YOURSTATE}" explain --bench=?
  OUTPUT_VARIABLE usage_out
  ERROR_VARIABLE usage_err)
if(NOT usage_err MATCHES "\\(want: ([^)]*)\\)")
  message(FATAL_ERROR "cannot read the explain bench list from:\n"
                      "${usage_err}")
endif()
string(REPLACE " " ";" explain_benches "${CMAKE_MATCH_1}")

set(explain_traces)
foreach(bench ${explain_benches})
  if(NOT DEFINED explain_args_${bench})
    message(FATAL_ERROR "no explain case for --bench=${bench}")
  endif()
  set(trace "${WORK_DIR}/explain-${bench}.trace.json")
  set(pcap "${WORK_DIR}/explain-${bench}.pcap")
  execute_process(
    COMMAND "${YOURSTATE}" explain --bench=${bench} ${explain_common}
            ${explain_args_${bench}} --trace-out=${trace} --pcap=${pcap}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  # Exit 0/1 is the replayed outcome (success / not); 2 is a usage error.
  if(NOT (rc EQUAL 0 OR rc EQUAL 1))
    message(FATAL_ERROR "yourstate explain --bench=${bench} failed (${rc}):\n"
                        "${out}\n${err}")
  endif()
  if(NOT EXISTS "${trace}")
    message(FATAL_ERROR "explain --bench=${bench} wrote no trace")
  endif()
  file(SIZE "${pcap}" pcap_size)
  if(pcap_size EQUAL 0)
    message(FATAL_ERROR "explain --bench=${bench} wrote an empty pcap")
  endif()
  list(APPEND explain_traces "${trace}")
endforeach()

execute_process(
  COMMAND "${TRACE_LINT}" ${explain_traces}
  RESULT_VARIABLE lint_rc
  OUTPUT_VARIABLE lint_out
  ERROR_VARIABLE lint_err)
if(NOT lint_rc EQUAL 0)
  message(FATAL_ERROR "trace_lint rejected explain trace(s):\n"
                      "${lint_out}\n${lint_err}")
endif()
message(STATUS "${lint_out}")
