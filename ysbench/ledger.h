// The traced run: a per-layer cost ledger measured from outside the program.
//
// A fixed, seeded sample of a workload's trials is re-run through the
// library's replay entry points, which write each trial's client-side
// pcap. The captured packets are then fed to each layer's public entry
// point in isolation — gfw::GfwDevice::process, tcp::TcpEndpoint::
// on_segment on a passive endpoint, a bare net::Path send-to-delivery,
// net::finalize (checksums) — and exp::Scenario construction is timed from
// the cached PathProfile. Each call is timed and allocation-counted. The
// per-call costs combine with the deterministic per-trial call counts of
// the untraced sweep's registry: self time per trial ~= calls per trial x
// cost per call.
#pragma once

#include <map>
#include <string>

#include "workloads.h"

namespace ysbench {

struct LedgerResult {
  /// Every per-layer metric of BENCHMARK.json, by name.
  std::map<std::string, double> metrics;
  /// The replay self-check passed for every sample.
  bool self_check_ok = true;
};

/// `untraced` is one sweep of `w` whose probes cover w.sample(seed).
/// Capture files go to `scratch_dir` and are removed afterwards.
LedgerResult run_ledger(const Workload& w, u64 seed, const Sweep& untraced,
                        const std::string& scratch_dir);

}  // namespace ysbench
