# Paper-table lock: run one paper bench at a small fixed scale and compare
# its table lines byte-for-byte with the expected file under tests/golden/.
#
# Run via `cmake -P` so the comparison needs no shell or diff tool. The
# bench is run with --trials=3 --seed=7 --jobs=${JOBS}; everything before
# the `runner:` trailer (printed only at jobs > 1) is compared, with
# trailing blank lines dropped, so one expected file serves every --jobs.
#
# Required -D variables:
#   BENCH   path to the bench binary (bench_table1, bench_table2, ...)
#   GOLDEN  expected table lines (tests/golden/<table>.txt)
#   JOBS    worker count
# Optional:
#   BLESS   when true, write GOLDEN from this run instead of comparing.
#           A re-blessed file needs a CHANGES.md line naming the
#           behavioural cause.

foreach(var BENCH GOLDEN JOBS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "paper_table_check.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(
  COMMAND ${BENCH} --trials=3 --seed=7 --jobs=${JOBS}
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()

string(FIND "${out}" "\nrunner:" trailer)
if(NOT trailer EQUAL -1)
  string(SUBSTRING "${out}" 0 ${trailer} out)
endif()
string(REGEX REPLACE "\n+$" "" out "${out}")

if(BLESS)
  file(WRITE ${GOLDEN} "${out}\n")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()

file(READ ${GOLDEN} expected)
string(REGEX REPLACE "\n+$" "" expected "${expected}")
if(NOT out STREQUAL expected)
  message(FATAL_ERROR "table lines of ${BENCH} at --jobs=${JOBS} differ "
                      "from ${GOLDEN}\n--- expected\n${expected}\n"
                      "--- actual\n${out}")
endif()
