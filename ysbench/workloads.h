// The benchmark's three workloads behind one interface.
//
// Every workload is a closed-loop batch sweep over a deterministic grid of
// trials: the next trial starts when the previous one returns. A sweep runs
// through the public library entry points (fleet::Fleet::run_flow,
// exp::Table4Inside::run_fixed / run_intang, runner::collect_grid_or), times
// every trial call on the host clock, and collects the sweep's merged
// metrics registry. Slots are numbered globally across a workload's grids,
// so one index names one trial everywhere (sweeps, probes, replays).
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exp/scenario.h"
#include "obs/metrics.h"
#include "obs/phase_profiler.h"
#include "runner/worker_pool.h"

namespace ysbench {

using ys::u64;

/// One full sweep over a workload's grid(s).
struct Sweep {
  std::size_t trials = 0;
  /// Slots ending in Outcome::kTrialError (deadline, event cap, isolated
  /// exception): the benchmark's failed operations.
  std::size_t errors = 0;
  /// Host seconds inside the runner calls (per-sweep state rebuilds are
  /// outside; they are set-up work).
  double wall_s = 0.0;
  /// Host wall time of every trial call, indexed by global slot.
  std::vector<u64> trial_ns;
  /// CPU time of every trial call on the thread that ran it.
  std::vector<u64> trial_cpu_ns;
  /// Process CPU time inside the runner calls: the trial calls plus the
  /// runner's own work around them.
  u64 cpu_ns = 0;
  ys::obs::Snapshot snap;  ///< the sweep's merged metrics
  std::vector<ys::runner::RunnerReport> reports;
  /// Canonical text of the results: every slot, plus per-cell tallies
  /// where the workload has paper cells. Hashed by the output gate.
  std::string outputs;
  /// Phase-profiler totals of the sweep (exp.http_trial, fleet.flow,
  /// runner.task).
  std::map<std::string, ys::obs::perf::PhaseAgg> phases;
  /// Registry delta of each probed slot (traced run only).
  std::map<std::size_t, ys::obs::Snapshot> probes;
  /// Raw result slots (fleet: encoded FlowRecord; table4: Outcome).
  std::vector<ys::i64> slots;
  /// Outcome of every slot, as exp::Outcome cast to int.
  std::vector<int> outcomes;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Runner worker threads (fixed per workload).
  virtual int jobs() const = 0;

  /// Build everything a sweep needs from scratch: populations, path-profile
  /// cache, detection rules, and per-chain state (flow schedules,
  /// selectors). Every sweep starts from a fresh setup(); setup_s times it.
  virtual void setup() = 0;
  /// Release what setup() built, so that setup_s times construction only.
  virtual void teardown() = 0;
  /// One sweep. Slots in `probe` get their registry delta recorded.
  virtual Sweep sweep(const std::set<std::size_t>& probe = {}) = 0;

  /// Workload-specific output checks; each returned string is a failure.
  virtual std::vector<std::string> check(const Sweep& s) const = 0;

  /// A fixed, seeded sample of slots for the traced run.
  virtual std::vector<std::size_t> sample(u64 seed) const = 0;
  /// Traced deterministic re-run of `slot` through the library's replay
  /// entry point, writing the client capture to `pcap`. Returns the number
  /// of trials the replay executed (chain prefix included) and stores the
  /// replayed outcome.
  virtual std::size_t replay(std::size_t slot, const std::string& pcap,
                             int* outcome) const = 0;
  /// Scenario options of `slot` (profile pointer set), from which the
  /// traced run rebuilds the trial's layers in isolation.
  virtual ys::exp::ScenarioOptions scenario_options(std::size_t slot) const = 0;
  /// Human label of a slot, e.g. "v2/flow1834" or "row1/v3/s40/t7".
  virtual std::string slot_label(std::size_t slot) const = 0;
};

/// Names accepted by --workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, u64 seed);

}  // namespace ysbench
