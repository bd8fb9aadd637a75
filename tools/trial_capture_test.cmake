# `yourstate trial` capture lock, run under ctest: one seeded evasion trial
# with a client pcap and a Chrome trace export must print the same stdout
# (file paths normalised) and write byte-identical files, checked by
# SHA-256, as the recorded reference run.
#
# Invoked as:
#   cmake -DYOURSTATE=<path> -DWORK_DIR=<dir> -P trial_capture_test.cmake

foreach(var YOURSTATE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "trial_capture_test: missing -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(pcap "${WORK_DIR}/trial.pcap")
set(trace "${WORK_DIR}/trial.trace.json")

execute_process(
  COMMAND "${YOURSTATE}" trial --strategy=improved-tcb-teardown --seed=7
          --pcap=${pcap} --trace-out=${trace}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "yourstate trial exited with ${rc}:\n${out}\n${err}")
endif()

string(REPLACE "${pcap}" "<PCAP>" out "${out}")
string(REPLACE "${trace}" "<TRACE>" out "${out}")
set(expected
"trace written to <TRACE>
vantage=aliyun-sh server=93.184.216.34 strategy=improved-tcb-teardown keyword=1
outcome=success response=1 gfw_resets=0 other_resets=0
captured 12 packets to <PCAP>
")
if(NOT out STREQUAL expected)
  message(FATAL_ERROR "yourstate trial stdout changed\n--- expected\n"
                      "${expected}--- actual\n${out}")
endif()

foreach(pair
    "${pcap}=e301c52b984abe98e4b69f22899725c6c0ae3ac8d71c8ce60d8d2ada0070da14"
    "${trace}=9878b0f49d2005d6adb877d3f1f0c2871ed4539e1a7687b400b788f4ec2800a7")
  string(REGEX MATCH "^(.*)=([0-9a-f]+)$" _ "${pair}")
  set(file "${CMAKE_MATCH_1}")
  set(want "${CMAKE_MATCH_2}")
  if(NOT EXISTS "${file}")
    message(FATAL_ERROR "yourstate trial did not write ${file}")
  endif()
  file(SHA256 "${file}" got)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${file}: sha256 ${got}, expected ${want}")
  endif()
endforeach()
