// Shared definitions of the paper-table benchmark grids.
//
// bench_table4, the flight recorder, and `yourstate explain` must all agree
// on what "cell 2, vantage 5, server 13, trial 4" means — same server
// population, same per-trial seed formula, same trial options — or a
// flight-recorder replay would not reproduce the anomalous trial it is
// trying to explain. This header is that single source of truth: the bench
// binary runs the grids through the runner pool, and replay_*() re-runs any
// one coordinate (with tracing on) deterministically.
#pragma once

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "exp/explain.h"
#include "exp/scenario.h"
#include "exp/trial.h"
#include "exp/vantage.h"
#include "faults/fault_plan.h"
#include "gfw/gfw_device.h"
#include "runner/runner.h"

namespace ys::exp {

/// Knobs every bench exposes (--trials/--servers/--seed/--faults).
struct BenchScale {
  int trials = 10;
  int servers = 77;
  u64 seed = 2017;
  /// Fault plan spec (--faults=): a shipped plan name, inline clauses, or
  /// @file.json. Empty = fault-free. Part of the bench definition so a
  /// flight-recorder replay re-runs under the exact same plan.
  std::string faults;
};

/// Replay a chained coordinate's prefix: run trials 0..c.trial-1 of c's
/// chain untraced, in the order the grid ran them, as `run(prefix, state)`.
/// The chain contract then leaves `state` exactly as the grid had it when
/// it reached `c`.
template <class State, class RunTrial>
void replay_chain_prefix(const runner::GridCoord& c, State& state,
                         RunTrial&& run) {
  runner::GridCoord prefix = c;
  for (prefix.trial = 0; prefix.trial < c.trial; ++prefix.trial) {
    (void)run(prefix, state);
  }
}

/// What every trial grid shares — the paper benches, the fleet and the
/// strategy search: its scale, calibration, detection rules, vantage
/// points, server population, fault plan and pooled path profiles, plus
/// the one ScenarioOptions builder their trials are built from. A search
/// or fleet trial toward (vantage, server) therefore runs on exactly the
/// path a bench trial toward the same pair draws.
class BenchWorld {
 public:
  const BenchScale& scale() const { return scale_; }
  const std::vector<VantagePoint>& vantage_points() const { return vps_; }
  const std::vector<ServerSpec>& server_population() const { return servers_; }

 protected:
  /// Every inside-China vantage point and the scale's seeded inside-China
  /// server population.
  explicit BenchWorld(BenchScale scale);
  BenchWorld(BenchScale scale, std::vector<VantagePoint> vps,
             std::vector<ServerSpec> servers);

  /// Options of one trial toward `servers_[server]` from `vps_[vantage]`
  /// under `plan` (nullptr or empty = fault-free).
  ScenarioOptions scenario_options(std::size_t vantage, std::size_t server,
                                   u64 seed, bool tracing,
                                   const faults::FaultPlan* plan) const;

  /// `cells` × every vantage point × every server × the scale's trials.
  runner::TrialGrid world_grid(std::size_t cells, bool chained) const;

  /// One HTTP trial of a bench row, built in one place for both its
  /// untraced grid run (run_http) and its traced replay (replay_http).
  struct HttpTrial {
    ScenarioOptions scenario;
    HttpTrialOptions http;
  };
  TrialResult run_http(HttpTrial trial) const;
  Replay replay_http(HttpTrial trial, const std::string& trace_path,
                     const std::string& pcap_path) const;

  BenchScale scale_;
  Calibration cal_;
  gfw::DetectionRules rules_;
  std::vector<VantagePoint> vps_;
  std::vector<ServerSpec> servers_;
  faults::FaultPlan plan_;  // parsed from scale_.faults; empty when unset
  /// Batched scenario construction: path profiles are route properties,
  /// drawn once per (vantage, server) pair and shared by every trial.
  PathProfileCache profiles_;
};

/// Table 1: every *existing* evasion strategy against today's GFW, with
/// and without a sensitive keyword. Cell layout: cell = row * 2 +
/// (keyword ? 0 : 1), matching bench_table1's historical order.
class Table1Bench : public BenchWorld {
 public:
  struct Row {
    strategy::StrategyId id;
    const char* label;
    const char* discrepancy;
  };
  static const std::array<Row, 16>& rows();

  explicit Table1Bench(BenchScale scale) : BenchWorld(std::move(scale)) {}

  std::size_t row_of(std::size_t cell) const { return cell / 2; }
  bool keyword_cell(std::size_t cell) const { return cell % 2 == 0; }

  /// Unchained grid: cells = rows × {keyword, no keyword}.
  runner::TrialGrid grid() const;

  /// Run one trial, untraced (the grid hot path).
  TrialResult run_trial(const runner::GridCoord& c) const;

  /// Traced deterministic re-run of coordinate `c`.
  Replay replay(const runner::GridCoord& c, const std::string& trace_path = {},
                const std::string& pcap_path = {}) const;

 private:
  HttpTrial trial_for(const runner::GridCoord& c, bool tracing) const;
};

/// Table 4 in one direction: the fixed-strategy rows from the inside-China
/// vantage points toward foreign servers, or from the foreign vantage
/// points toward Chinese servers, plus (inside China) the INTANG adaptive
/// row. Owns the populations and seed formulas; the fixed rows' seed
/// formula is the same in both directions.
class Table4Bench : public BenchWorld {
 public:
  enum class Direction { kInside, kOutside };
  struct Row {
    strategy::StrategyId id;
    const char* label;
    /// Paper Table 4 average success rates, as fractions.
    double paper_success;          // inside China
    double paper_success_outside;  // outside China
  };
  static const std::array<Row, 4>& rows();
  /// Paper average success rate of the INTANG row (98.3 %).
  static constexpr double kIntangPaperSuccess = 0.983;

  /// The direction's vantage points and the scale's seeded server
  /// population on the far side of the GFW.
  explicit Table4Bench(BenchScale scale,
                       Direction direction = Direction::kInside);

  Direction direction() const { return direction_; }
  /// Paper average success rate of fixed row `row` in this direction.
  double paper_average(std::size_t row) const;

  /// Grid over the fixed-strategy rows (cell = row index).
  runner::TrialGrid fixed_grid() const;
  /// Chained grid of the INTANG row (one cell; selector state accumulates
  /// along the trial axis).
  runner::TrialGrid intang_grid() const;

  /// Run one fixed-row trial, untraced (the grid hot path).
  TrialResult run_fixed(const runner::GridCoord& c) const;
  /// Run one INTANG trial against `selector` (which carries the chain's
  /// accumulated knowledge), untraced.
  TrialResult run_intang(const runner::GridCoord& c,
                         intang::StrategySelector& selector) const;

  /// Deterministically re-run coordinate `c` with tracing on; writes the
  /// Chrome trace JSON to `trace_path` and the client wire capture to
  /// `pcap_path` when non-empty. For the INTANG row the chain's earlier
  /// trials are replayed untraced first so the selector state matches the
  /// grid run exactly.
  Replay replay_fixed(const runner::GridCoord& c,
                      const std::string& trace_path = {},
                      const std::string& pcap_path = {}) const;
  Replay replay_intang(const runner::GridCoord& c,
                       const std::string& trace_path = {},
                       const std::string& pcap_path = {}) const;

 private:
  HttpTrial fixed_trial(const runner::GridCoord& c, bool tracing) const;
  HttpTrial intang_trial(const runner::GridCoord& c,
                         intang::StrategySelector& selector,
                         bool tracing) const;

  Direction direction_;
};

/// The inside direction's name, through which the ysbench harness (whose
/// files change only with the benchmark) builds its table4-grid workload.
using Table4Inside = Table4Bench;

/// Table 6: TCP DNS censorship evasion (§7.2) — INTANG's DNS forwarder
/// toward Dyn's public resolvers, plus the uncensored OpenDNS anecdote
/// row. The query axis is chained: one persistent selector per
/// (resolver, vantage point) converges on the resolver path's strategy.
class Table6Dns : public BenchWorld {
 public:
  struct Resolver {
    const char* label;
    net::IpAddr ip;
    bool censored;  // OpenDNS resolver paths drew no DNS censorship (§7.2)
  };
  static const std::array<Resolver, 3>& resolvers();

  explicit Table6Dns(BenchScale scale);

  /// One ServerSpec per resolver (the grid's cell axis, not its server
  /// axis — grids here have servers=1).
  const std::vector<ServerSpec>& resolver_specs() const { return servers_; }

  /// Chained grid: cells = resolvers, servers = 1, trials = queries.
  runner::TrialGrid grid() const;

  /// Run one query. `selector` carries the chain's accumulated knowledge
  /// (unused by the uncensored OpenDNS cell but always passed).
  DnsTrialResult run_query(const runner::GridCoord& c,
                           intang::StrategySelector& selector) const;

  /// Traced deterministic re-run (chain prefix replayed untraced first).
  /// Replay::result carries the query's outcome and the strategy INTANG
  /// armed for its forwarder connection.
  Replay replay(const runner::GridCoord& c, const std::string& trace_path = {},
                const std::string& pcap_path = {}) const;

 private:
  /// One query, built in one place for its grid run and its replay.
  struct Query {
    const gfw::DetectionRules* rules;
    ScenarioOptions scenario;
    DnsTrialOptions dns;
  };
  Query query_for(const runner::GridCoord& c,
                  intang::StrategySelector& selector, bool tracing) const;

  gfw::DetectionRules uncensored_;
};

/// The robustness bench behind bench_faults and `yourstate faults`: every
/// fault plan × {no-INTANG baseline, INTANG with failover}, probing the
/// graceful-degradation guarantee (INTANG success under faults must never
/// fall below the baseline, because safe mode degrades to exactly the
/// baseline behavior once the retry budget is spent).
///
/// Cell layout: cell = plan_index * 2 + (INTANG ? 1 : 0). The grid is
/// chained — the INTANG cells accumulate selector state along the trial
/// axis, and chaining the baseline cells too costs nothing.
class FaultsBench : public BenchWorld {
 public:
  /// With scale.faults empty, runs every shipped plan; otherwise only the
  /// given plan.
  explicit FaultsBench(BenchScale scale);

  const std::vector<faults::FaultPlan>& plans() const { return plans_; }

  std::size_t plan_of(std::size_t cell) const { return cell / 2; }
  bool intang_cell(std::size_t cell) const { return cell % 2 == 1; }

  /// Chained grid: cells = plans × {baseline, INTANG}.
  runner::TrialGrid grid() const;

  /// Run one trial. `selector` carries the chain's accumulated knowledge
  /// (unused by baseline cells but always passed for uniformity).
  TrialResult run_trial(const runner::GridCoord& c,
                        intang::StrategySelector& selector) const;

  /// Traced deterministic re-run (chain prefix replayed untraced first).
  Replay replay(const runner::GridCoord& c, const std::string& trace_path = {},
                const std::string& pcap_path = {}) const;

 private:
  HttpTrial trial_for(const runner::GridCoord& c,
                      intang::StrategySelector& selector, bool tracing) const;

  std::vector<faults::FaultPlan> plans_;
};

/// Bench names `yourstate explain --bench=` accepts.
const std::vector<std::string>& known_benches();

}  // namespace ys::exp
