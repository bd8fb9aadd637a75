// Deployment-scale multi-client INTANG simulation (§6 as a *population*).
//
// One Fleet object defines a deterministic sweep: per vantage point, a
// population of N simulated INTANG clients draws flows from a seeded
// arrival/churn process (fleet/arrival.h) and multiplexes them over one
// shared virtual timeline — every flow is a pooled-profile Scenario whose
// clock starts at the flow's arrival instant, so TTL-bearing selector
// records age consistently across the whole sweep. Clients on one vantage
// share a snapshot-consistent SharedKvStore (or keep private stores, or
// none, per the cache-sharing mode), which is what converges the
// population onto the best strategy per server.
//
// The sweep rides ys::runner under the hard determinism contract: the grid
// is one chain per vantage (chain_trials), every flow's result encodes
// into one i64 slot (chain-granularity resume via ResultsStore), and
// --jobs=N is bit-identical to serial. sweep() drives that grid, and one
// publisher emits each flow's telemetry, live or rebuilt from the slots.
// replay_flow() rebuilds any chain prefix and re-runs one flow traced, with
// the strategy's supplying flow linked via caused_by so `yourstate
// explain` can attribute a cache hit to the flow that wrote the entry.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exp/benchdef.h"
#include "fleet/arrival.h"
#include "fleet/fleet_config.h"
#include "intang/kv_store.h"
#include "intang/selector.h"

namespace ys::obs {
class Timeline;
}

namespace ys::runner {
class ResultsStore;
}

namespace ys::fleet {

/// Vantages [begin, end) of a fleet grid; the default is all of them.
struct VantageRange {
  std::size_t begin = 0;
  std::size_t end = static_cast<std::size_t>(-1);
};

class Fleet {
 public:
  /// One flow's outcome, compressed into a results-store slot.
  struct FlowRecord {
    exp::Outcome outcome = exp::Outcome::kTrialError;
    strategy::StrategyId strategy = strategy::StrategyId::kNone;
    /// intang::StrategySelector::Choice::Source as an int; -1 = the flow
    /// made no INTANG pick (should not happen — fleet flows always run
    /// INTANG).
    int source = -1;
    /// Index of the flow whose success wrote the cache entry this flow's
    /// pick came from; -1 when the pick was not a cache/store hit.
    int supplier = -1;

    i64 encode() const;
    static FlowRecord decode(i64 slot);
  };

  /// Everything one vantage chain accumulates across its flows. The sweep
  /// creates one per chain; replay_flow() rebuilds one from scratch.
  struct VantageState {
    FleetConfig const* cfg = nullptr;
    intang::SharedKvStore store;  ///< the vantage's shared strategy cache
    /// Per-client selectors (empty in cold mode — each flow brings its
    /// own). In shared mode they are bound to `store`.
    std::vector<std::unique_ptr<intang::StrategySelector>> selectors;
    std::vector<FlowSpec> schedule;
    /// Per server: index of the last flow whose success wrote the
    /// known-good record (-1 = none yet) — the supplier of later hits.
    std::vector<int> writer;
    /// Series labels for the vantage's timeline producers (vantage name
    /// plus its grid index, so `yourstate report` can emit exact
    /// `explain --vantage=N` coordinates). Built once per chain.
    std::map<std::string, std::string> timeline_labels;
  };

  explicit Fleet(FleetConfig cfg);

  const FleetConfig& config() const { return cfg_; }
  const std::vector<exp::VantagePoint>& vantage_points() const { return vps_; }
  const std::vector<exp::ServerSpec>& server_population() const {
    return servers_;
  }

  /// One chain per vantage: {cells=1, vantages=V, servers=1 (the schedule
  /// carries the real server axis), trials=flows, chain_trials}.
  runner::TrialGrid grid() const;

  /// Fresh chain state for `vantage` (schedule built, stores empty).
  std::unique_ptr<VantageState> make_vantage_state(std::size_t vantage) const;

  /// Sweep the vantages in `range` on the pool, heartbeat_line() as the
  /// heartbeat payload. With `store`, fully recorded chains are skipped
  /// (values read back) and each executed flow is stored under its global
  /// slot before `on_recorded(slot)` fires on its worker. Slots span the
  /// whole grid: -1 outside `range` or where a flow threw.
  runner::GridOutcome<i64> sweep(
      runner::PoolOptions pool, runner::ResultsStore* store = nullptr,
      VantageRange range = {},
      const std::function<void(std::size_t)>& on_recorded = {}) const;

  /// Run flow `c.trial` of vantage `c.vantage` against the chain state.
  /// Must be called in ascending trial order on one thread (the runner's
  /// chain contract). Publishes fleet.* metrics.
  FlowRecord run_flow(const runner::GridCoord& c, VantageState& state) const;

  /// Traced deterministic re-run of one flow: the chain prefix is replayed
  /// untraced first, then the target flow runs with tracing on and a
  /// caused_by note linking its strategy decision to the supplying flow.
  exp::Replay replay_flow(const runner::GridCoord& c,
                          const std::string& trace_path = {},
                          const std::string& pcap_path = {}) const;

  // ---------------------------------------------------------- analysis
  struct VantageReport {
    std::string name;
    std::size_t flows = 0;
    /// Scheduled flows with no recorded slot (a degraded shard's holes).
    /// Rates below are over *executed* flows, so partial coverage never
    /// deflates them.
    std::size_t missing = 0;
    double success_rate = 0.0;
    /// Fraction of flows whose pick was a cache or store hit.
    double cache_hit_rate = 0.0;
    /// Servers whose population converged: after the server's last
    /// exploratory pick, a cache/store-hit success exists.
    int servers_converged = 0;
    int servers_touched = 0;
    /// Mean index of the last exploratory pick among converged servers —
    /// "flows until the population settled".
    double mean_flows_to_converge = 0.0;
  };

  struct StrategyShare {
    strategy::StrategyId id;
    /// Fraction of flows using the strategy, per soak phase (index 0 =
    /// before any phase / no soak).
    std::vector<double> share_by_phase;
  };

  struct Report {
    std::vector<VantageReport> vantages;
    std::vector<StrategyShare> shares;
    std::size_t phases = 1;
    std::size_t total_flows = 0;
    /// Holes across every vantage (slot value < 0). 0 for a full sweep.
    std::size_t missing_flows = 0;
    double success_rate = 0.0;
    double cache_hit_rate = 0.0;
    int cross_client_supplies = 0;

    /// executed / scheduled; 1.0 for a full sweep.
    double coverage() const {
      return total_flows > 0 ? static_cast<double>(total_flows -
                                                   missing_flows) /
                                   static_cast<double>(total_flows)
                             : 1.0;
    }

    std::string render() const;
  };

  /// Decode a full sweep's slots (grid().total() entries) into the
  /// convergence report. Pure function of the slots — callable on resumed
  /// or freshly-run results alike. A negative slot is a hole (flow never
  /// recorded, e.g. a degraded shard): it is counted as missing and
  /// excluded from every rate, and render() labels the partial coverage.
  Report analyze(const std::vector<i64>& slots) const;

  /// Rebuild the sweep's deterministic telemetry — every pure `fleet.*`
  /// counter and virtual-time timeline series run_flow() publishes — from
  /// recorded slots alone, into the current MetricsRegistry and `tl`.
  /// Holes (negative slots) are skipped. Used by the supervisor's merge
  /// path: the children's registries die with their processes, but the
  /// slots are a sufficient statistic for all of fleet.*, so a supervised
  /// run's merged metrics and timeline digests are byte-identical to an
  /// unsharded run's.
  void rebuild_telemetry(const std::vector<i64>& slots,
                         obs::Timeline* tl = nullptr) const;

  // ------------------------------------------------------- live telemetry
  /// Soak phases the live stats break flows down by, numbered like
  /// fleet.share.pN (p0 = before any boundary); later phases clamp into
  /// the last bucket.
  static constexpr std::size_t kMaxLivePhases = 8;

  /// One-line summary of the current sweep's flows so far, e.g. "ok 61.8%
  /// | cache 40.2% | p0:120 p1:240" — sweep()'s heartbeat payload.
  std::string heartbeat_line() const;

  /// Mark the sweep's soak-phase boundaries on a timeline ("soak-phase"
  /// annotations at each phase's start instant). Idempotent (annotations
  /// dedup), no-op on nullptr or a soak-free config.
  void annotate_timeline(obs::Timeline* tl) const;

 private:
  /// Relaxed atomics bumped by run_flow on whichever worker executes it,
  /// for the stderr heartbeat of long sweeps (bench_fleet --heartbeat).
  /// Monitoring only: nothing reads them back into results, so they sit
  /// outside the determinism contract.
  struct LiveStats {
    std::atomic<u64> flows{0};
    std::atomic<u64> successes{0};
    std::atomic<u64> cache_hits{0};
    std::atomic<u64> phase_flows[kMaxLivePhases] = {};
  };

  /// The one source of a flow's fleet.* telemetry: every counter, the
  /// fleet.pick.* and fleet.share.pN.* families into the current registry,
  /// and the timeline series into `tl` (nullptr = none). run_flow calls it
  /// live; rebuild_telemetry re-drives it from recorded slots.
  void publish_flow(const FlowRecord& rec, const FlowSpec& flow,
                    const std::vector<FlowSpec>& schedule,
                    const std::map<std::string, std::string>& labels,
                    obs::Timeline* tl) const;
  /// run_flow's body; with `replay` set, the flow runs traced through
  /// exp::run_traced and fills it.
  FlowRecord run_flow_impl(const runner::GridCoord& c, VantageState& state,
                           exp::Replay* replay, const std::string& trace_path,
                           const std::string& pcap_path) const;
  exp::ScenarioOptions options_for(const runner::GridCoord& c,
                                   const FlowSpec& flow, bool tracing) const;
  u64 flow_seed(const runner::GridCoord& c, const FlowSpec& flow) const;

  FleetConfig cfg_;
  exp::Calibration cal_;
  gfw::DetectionRules rules_;
  std::vector<exp::VantagePoint> vps_;
  std::vector<exp::ServerSpec> servers_;
  exp::PathProfileCache profiles_;
  mutable LiveStats live_;
};

}  // namespace ys::fleet
