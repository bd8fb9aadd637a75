#include "fleet/fleet.h"

#include <algorithm>
#include <cstdio>

#include "exp/table.h"
#include "obs/metrics.h"
#include "obs/phase_profiler.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "runner/results_store.h"

namespace ys::fleet {

namespace {

using intang::StrategySelector;

struct FleetMetrics {
  obs::Counter& flows;
  obs::Counter& success;
  obs::Counter& failure1;
  obs::Counter& failure2;
  obs::Counter& trial_error;
  obs::Counter& cache_hits;
  obs::Counter& cross_client_supply;
  obs::Counter& fresh_sessions;
};

FleetMetrics& metrics() {
  return obs::bind_per_thread<FleetMetrics>([](obs::MetricsRegistry& reg) {
    return FleetMetrics{reg.counter("fleet.flows"),
                        reg.counter("fleet.flow_success"),
                        reg.counter("fleet.flow_failure1"),
                        reg.counter("fleet.flow_failure2"),
                        reg.counter("fleet.flow_trial_error"),
                        reg.counter("fleet.cache_hit"),
                        reg.counter("fleet.cross_client_supply"),
                        reg.counter("fleet.fresh_session")};
  });
}

bool is_cache_source(int source) {
  return source ==
             static_cast<int>(StrategySelector::Choice::Source::kCacheHit) ||
         source ==
             static_cast<int>(StrategySelector::Choice::Source::kStoreHit);
}

/// A cache/store hit supplied by another client's flow: one client's
/// measurement served another's.
bool cross_client_supply(const Fleet::FlowRecord& rec, const FlowSpec& flow,
                         const std::vector<FlowSpec>& schedule) {
  return rec.supplier >= 0 &&
         schedule[static_cast<std::size_t>(rec.supplier)].client !=
             flow.client;
}

obs::TimelineLabels vantage_labels(const exp::VantagePoint& vp,
                                   std::size_t vantage) {
  return {{"vantage", vp.name}, {"vantage_index", std::to_string(vantage)}};
}

}  // namespace

i64 Fleet::FlowRecord::encode() const {
  return static_cast<i64>(outcome) |
         (static_cast<i64>(strategy) << 8) |
         (static_cast<i64>(source + 1) << 16) |
         (static_cast<i64>(supplier + 1) << 24);
}

Fleet::FlowRecord Fleet::FlowRecord::decode(i64 slot) {
  FlowRecord rec;
  rec.outcome = static_cast<exp::Outcome>(slot & 0xff);
  rec.strategy = static_cast<strategy::StrategyId>((slot >> 8) & 0xff);
  rec.source = static_cast<int>((slot >> 16) & 0xff) - 1;
  rec.supplier = static_cast<int>(slot >> 24) - 1;
  return rec;
}

Fleet::Fleet(FleetConfig cfg)
    : BenchWorld({.servers = cfg.servers, .seed = cfg.seed, .faults = {}},
                 [&cfg] {
                   std::vector<exp::VantagePoint> vps =
                       exp::china_vantage_points();
                   if (cfg.vantages > 0 &&
                       static_cast<std::size_t>(cfg.vantages) < vps.size()) {
                     vps.resize(static_cast<std::size_t>(cfg.vantages));
                   }
                   return vps;
                 }(),
                 exp::make_server_population(cfg.servers, cfg.seed,
                                             exp::Calibration::standard(),
                                             /*inside_china=*/true)),
      cfg_(std::move(cfg)) {}

runner::TrialGrid Fleet::grid() const {
  runner::TrialGrid grid;
  grid.cells = 1;
  grid.vantages = vps_.size();
  grid.servers = 1;  // the schedule carries the real server axis
  grid.trials = static_cast<std::size_t>(cfg_.flows);
  grid.chain_trials = true;
  return grid;
}

std::unique_ptr<Fleet::VantageState> Fleet::make_vantage_state(
    std::size_t vantage) const {
  auto state = std::make_unique<VantageState>();
  state->cfg = &cfg_;
  state->schedule = build_flow_schedule(cfg_, vps_[vantage].name);
  state->writer.assign(servers_.size(), -1);
  state->timeline_labels = vantage_labels(vps_[vantage], vantage);
  if (cfg_.share != ShareMode::kCold) {
    state->selectors.reserve(static_cast<std::size_t>(cfg_.clients));
    for (int i = 0; i < cfg_.clients; ++i) {
      state->selectors.push_back(
          cfg_.share == ShareMode::kShared
              ? std::make_unique<StrategySelector>(StrategySelector::Config{},
                                                   &state->store)
              : std::make_unique<StrategySelector>(StrategySelector::Config{}));
    }
  }
  return state;
}

u64 Fleet::flow_seed(const runner::GridCoord& c, const FlowSpec& flow) const {
  // Salted independently of every existing bench seed formula; client and
  // flow index both feed in, so two flows of one (vantage, server) pair
  // never share dynamic randomness.
  return Rng::mix_seed({cfg_.seed, 0xF1EE7DULL,
                        Rng::hash_label(vps_[c.vantage].name),
                        servers_[static_cast<std::size_t>(flow.server)].ip,
                        static_cast<u64>(flow.index),
                        static_cast<u64>(flow.client)});
}

exp::ScenarioOptions Fleet::options_for(const runner::GridCoord& c,
                                        const FlowSpec& flow,
                                        bool tracing) const {
  exp::ScenarioOptions opt = scenario_options(
      c.vantage, static_cast<std::size_t>(flow.server), flow_seed(c, flow),
      tracing,
      flow.soak_phase >= 0
          ? &cfg_.soak[static_cast<std::size_t>(flow.soak_phase)].plan
          : nullptr);
  opt.start_time = flow.at;
  // A fleet sweep must survive any flow wedging under a soak plan: bound
  // every flow in virtual time so it degrades to kTrialError, not a hang.
  opt.deadline = SimTime::from_sec(120);
  return opt;
}

Fleet::FlowRecord Fleet::run_flow(const runner::GridCoord& c,
                                  VantageState& state) const {
  return run_flow_impl(c, state, nullptr, {}, {});
}

runner::GridOutcome<i64> Fleet::sweep(
    runner::PoolOptions pool, runner::ResultsStore* store, VantageRange range,
    const std::function<void(std::size_t)>& on_recorded) const {
  const runner::TrialGrid grid = this->grid();
  range.end = std::min(range.end, grid.vantages);
  range.begin = std::min(range.begin, range.end);
  // The slice's sub-grid: local vantage axis, same trial axis. Every flow
  // maps back to its global coordinate, so seeds, schedules and slot
  // indices match the full sweep's.
  runner::TrialGrid sub = grid;
  sub.vantages = range.end - range.begin;

  // A chain the store holds in full is skipped and needs no state.
  std::vector<std::unique_ptr<VantageState>> states(sub.chains());
  for (std::size_t v = range.begin; v < range.end; ++v) {
    if (store == nullptr ||
        !store->range_complete(v * grid.trials, (v + 1) * grid.trials)) {
      states[v - range.begin] = make_vantage_state(v);
    }
  }

  for (auto* n : {&live_.flows, &live_.successes, &live_.cache_hits}) {
    n->store(0);
  }
  for (auto& n : live_.phase_flows) n.store(0);
  pool.heartbeat_extra = [this] { return heartbeat_line(); };

  runner::GridOutcome<i64> out;
  out.slots.assign(grid.total(), -1);
  out.report = runner::run_grid(
      sub, pool, [&](const runner::GridCoord& c, runner::TaskContext&) {
        runner::GridCoord g = c;
        g.vantage += range.begin;
        const std::size_t slot = grid.index(g);
        VantageState* state = states[c.vantage].get();
        if (state == nullptr) {
          out.slots[slot] = *store->get(slot);
          return;
        }
        const i64 encoded = run_flow(g, *state).encode();
        out.slots[slot] = encoded;
        if (store != nullptr) store->put(slot, encoded);
        if (on_recorded) on_recorded(slot);
      });
  return out;
}

void Fleet::publish_flow(const FlowRecord& rec, const FlowSpec& flow,
                         const std::vector<FlowSpec>& schedule,
                         const obs::TimelineLabels& labels,
                         obs::Timeline* tl) const {
  FleetMetrics& m = metrics();
  m.flows.inc();
  switch (rec.outcome) {
    case exp::Outcome::kSuccess: m.success.inc(); break;
    case exp::Outcome::kFailure1: m.failure1.inc(); break;
    case exp::Outcome::kFailure2: m.failure2.inc(); break;
    case exp::Outcome::kTrialError: m.trial_error.inc(); break;
  }
  if (cfg_.share != ShareMode::kCold && flow.fresh_session) {
    m.fresh_sessions.inc();
  }
  const bool cache_hit = is_cache_source(rec.source);
  const bool cross_client = cross_client_supply(rec, flow, schedule);
  if (cache_hit) m.cache_hits.inc();
  if (cross_client) m.cross_client_supply.inc();
  auto& reg = obs::MetricsRegistry::current();
  if (rec.source >= 0) {
    reg.counter(std::string("fleet.pick.") +
                to_string(static_cast<StrategySelector::Choice::Source>(
                    rec.source)))
        .inc();
  }
  // Per-strategy share over time: one counter per (soak phase, strategy);
  // phase p0 = before any soak boundary (or a soak-free run).
  reg.counter("fleet.share.p" + std::to_string(flow.soak_phase + 1) + "." +
              strategy::to_string(rec.strategy))
      .inc();

  // Timeline producers (opt-in): the same outcomes, bucketed at the flow's
  // virtual arrival instant per vantage. flow.at and the record are pure
  // functions of the grid coordinates, so these series are bit-identical
  // under --jobs=N.
  if (tl == nullptr) return;
  tl->count("fleet.flows", labels, flow.at);
  if (rec.outcome == exp::Outcome::kSuccess) {
    tl->count("fleet.flow_success", labels, flow.at);
  }
  if (cache_hit) tl->count("fleet.cache_hit", labels, flow.at);
  if (cross_client) tl->count("fleet.cross_client_supply", labels, flow.at);
  if (rec.source ==
      static_cast<int>(StrategySelector::Choice::Source::kSafeMode)) {
    tl->count("fleet.safe_mode", labels, flow.at);
  }
  // Gauge, not counter: its per-bucket max is the newest flow index in the
  // bucket — the `--trial=` coordinate `yourstate report` prints for
  // anomalous buckets.
  tl->sample("fleet.flow_index", labels, flow.at, flow.index);
}

Fleet::FlowRecord Fleet::run_flow_impl(const runner::GridCoord& c,
                                       VantageState& state,
                                       exp::Replay* replay,
                                       const std::string& trace_path,
                                       const std::string& pcap_path) const {
  obs::perf::ScopedPhase phase_timer("fleet.flow");
  const FlowSpec& flow = state.schedule[c.trial];

  // Session churn, by share mode. Shared: a restarted client process loses
  // its private LRU but rebinds to the vantage store. Per-client: the
  // private store survives the restart, only the LRU goes. Cold: nothing
  // persists anyway.
  StrategySelector* selector = nullptr;
  if (cfg_.share != ShareMode::kCold) {
    auto& slot = state.selectors[static_cast<std::size_t>(flow.client)];
    if (flow.fresh_session) {
      if (cfg_.share == ShareMode::kShared) {
        slot = std::make_unique<StrategySelector>(StrategySelector::Config{},
                                                  &state.store);
      } else {
        slot->forget_cache();
      }
    }
    selector = slot.get();
  }

  // Supplier attribution: capture who last wrote this server's known-good
  // record *before* the flow runs — that flow supplied any cache/store hit
  // the pick makes now.
  const int writer_before =
      state.writer[static_cast<std::size_t>(flow.server)];

  exp::Scenario sc(&rules_, options_for(c, flow, replay != nullptr));
  exp::HttpTrialOptions http;
  http.with_keyword = true;
  http.use_intang = true;
  http.shared_selector = selector;  // nullptr in cold mode = fresh per flow

  FlowRecord rec;
  const auto body = [&](exp::Scenario& s) {
    const exp::TrialResult result = exp::run_http_trial(s, http);
    rec.outcome = result.outcome;
    rec.strategy = result.strategy_used;
    rec.source =
        result.pick_source ? static_cast<int>(*result.pick_source) : -1;
    if (is_cache_source(rec.source)) rec.supplier = writer_before;
    // A replay attributes the pick to its supplier in the trace, causally
    // linked to the selector's decision event so `yourstate explain`
    // renders the supply chain.
    if (replay != nullptr && rec.supplier >= 0) {
      const FlowSpec& sup =
          state.schedule[static_cast<std::size_t>(rec.supplier)];
      s.trace().note(
          s.loop().now(), "fleet", obs::TraceKind::kDecision,
          "cache entry for " +
              servers_[static_cast<std::size_t>(flow.server)].host +
              " was supplied by flow #" + std::to_string(rec.supplier) +
              " (client " + std::to_string(sup.client) + ")",
          s.trace().last_decision());
    }
    return result;
  };
  if (replay == nullptr) {
    (void)body(sc);
  } else {
    *replay = exp::run_traced(sc, body, trace_path, pcap_path);
  }

  // This flow becomes the supplier of later hits on its server if it
  // succeeded with an actual strategy (kNone successes prove the plain
  // path works; they write no record).
  if (rec.outcome == exp::Outcome::kSuccess &&
      rec.strategy != strategy::StrategyId::kNone) {
    state.writer[static_cast<std::size_t>(flow.server)] = flow.index;
  }

  publish_flow(rec, flow, state.schedule, state.timeline_labels,
               obs::Timeline::current());

  // Live heartbeat feed (relaxed: monitoring only, never read into
  // results).
  live_.flows.fetch_add(1, std::memory_order_relaxed);
  if (rec.outcome == exp::Outcome::kSuccess) {
    live_.successes.fetch_add(1, std::memory_order_relaxed);
  }
  if (is_cache_source(rec.source)) {
    live_.cache_hits.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t live_phase = std::min<std::size_t>(
      static_cast<std::size_t>(flow.soak_phase + 1), kMaxLivePhases - 1);
  live_.phase_flows[live_phase].fetch_add(1, std::memory_order_relaxed);
  return rec;
}

exp::Replay Fleet::replay_flow(const runner::GridCoord& c,
                               const std::string& trace_path,
                               const std::string& pcap_path) const {
  auto state = make_vantage_state(c.vantage);
  exp::replay_chain_prefix(c, *state, [this](const auto& p, auto& s) {
    return run_flow(p, s);
  });
  exp::Replay replay;
  (void)run_flow_impl(c, *state, &replay, trace_path, pcap_path);
  return replay;
}

std::string Fleet::heartbeat_line() const {
  const u64 flows = live_.flows.load(std::memory_order_relaxed);
  const u64 ok = live_.successes.load(std::memory_order_relaxed);
  const u64 hits = live_.cache_hits.load(std::memory_order_relaxed);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "ok %.1f%% | cache %.1f%%",
                flows > 0 ? 100.0 * static_cast<double>(ok) / flows : 0.0,
                flows > 0 ? 100.0 * static_cast<double>(hits) / flows : 0.0);
  std::string out = buf;
  const char* sep = " | ";
  for (std::size_t p = 0; p < kMaxLivePhases; ++p) {
    const u64 n = live_.phase_flows[p].load(std::memory_order_relaxed);
    if (n == 0) continue;
    std::snprintf(buf, sizeof(buf), "%sp%zu:%llu", sep, p,
                  static_cast<unsigned long long>(n));
    out += buf;
    sep = " ";
  }
  return out;
}

void Fleet::annotate_timeline(obs::Timeline* tl) const {
  if (tl == nullptr) return;
  for (std::size_t p = 0; p < cfg_.soak.size(); ++p) {
    // Same numbering as the fleet.share.pN counters: soak[p] starts the
    // phase whose flows count under p{p+1} (p0 precedes every boundary).
    tl->annotate(cfg_.soak[p].at, "soak-phase",
                 "p" + std::to_string(p + 1) + ": " + cfg_.soak[p].spec);
  }
}

Fleet::Report Fleet::analyze(const std::vector<i64>& slots) const {
  const runner::TrialGrid g = grid();
  Report report;
  report.phases = cfg_.soak.size() + 1;
  report.total_flows = slots.size();

  const auto candidates = StrategySelector::Config{}.candidates;
  std::vector<strategy::StrategyId> strat_ids;
  strat_ids.push_back(strategy::StrategyId::kNone);
  for (auto id : candidates) strat_ids.push_back(id);
  std::vector<std::vector<std::size_t>> strat_counts(
      strat_ids.size(), std::vector<std::size_t>(report.phases, 0));
  std::vector<std::size_t> phase_totals(report.phases, 0);

  std::size_t total_success = 0;
  std::size_t total_cache_hits = 0;

  for (std::size_t v = 0; v < vps_.size(); ++v) {
    const std::vector<FlowSpec> schedule =
        build_flow_schedule(cfg_, vps_[v].name);
    VantageReport vr;
    vr.name = vps_[v].name;
    vr.flows = g.trials;

    std::size_t success = 0;
    std::size_t cache_hits = 0;
    // Per server: last exploratory pick index, and whether a cache/store-
    // hit success happened after it (the converged steady state).
    std::vector<int> last_explore(servers_.size(), -1);
    std::vector<char> settled(servers_.size(), 0);
    std::vector<char> touched(servers_.size(), 0);

    for (std::size_t t = 0; t < g.trials; ++t) {
      const i64 slot = slots[v * g.trials + t];
      if (slot < 0) {
        // Hole: the flow never ran (degraded shard / cancelled sweep).
        // Nothing is known about it — keep it out of every rate and out
        // of the convergence state machine.
        ++vr.missing;
        ++report.missing_flows;
        continue;
      }
      const FlowRecord rec = FlowRecord::decode(slot);
      const FlowSpec& flow = schedule[t];
      const auto srv = static_cast<std::size_t>(flow.server);
      touched[srv] = 1;
      if (rec.outcome == exp::Outcome::kSuccess) ++success;
      if (is_cache_source(rec.source)) {
        ++cache_hits;
        if (rec.outcome == exp::Outcome::kSuccess) settled[srv] = 1;
      } else {
        // Any exploratory pick re-opens the server's search.
        last_explore[srv] = flow.index;
        settled[srv] = 0;
      }
      const auto phase = static_cast<std::size_t>(flow.soak_phase + 1);
      ++phase_totals[phase];
      for (std::size_t s = 0; s < strat_ids.size(); ++s) {
        if (strat_ids[s] == rec.strategy) {
          ++strat_counts[s][phase];
          break;
        }
      }
      if (cross_client_supply(rec, flow, schedule)) {
        ++report.cross_client_supplies;
      }
    }

    double converge_sum = 0.0;
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      if (!touched[s]) continue;
      ++vr.servers_touched;
      if (settled[s]) {
        ++vr.servers_converged;
        converge_sum += static_cast<double>(last_explore[s] + 1);
      }
    }
    const std::size_t executed = vr.flows - vr.missing;
    vr.success_rate =
        executed > 0 ? static_cast<double>(success) / executed : 0.0;
    vr.cache_hit_rate =
        executed > 0 ? static_cast<double>(cache_hits) / executed : 0.0;
    vr.mean_flows_to_converge =
        vr.servers_converged > 0 ? converge_sum / vr.servers_converged : 0.0;
    total_success += success;
    total_cache_hits += cache_hits;
    report.vantages.push_back(std::move(vr));
  }

  const std::size_t total_executed = report.total_flows - report.missing_flows;
  report.success_rate =
      total_executed > 0
          ? static_cast<double>(total_success) / total_executed
          : 0.0;
  report.cache_hit_rate =
      total_executed > 0
          ? static_cast<double>(total_cache_hits) / total_executed
          : 0.0;
  for (std::size_t s = 0; s < strat_ids.size(); ++s) {
    StrategyShare share;
    share.id = strat_ids[s];
    share.share_by_phase.resize(report.phases, 0.0);
    bool any = false;
    for (std::size_t p = 0; p < report.phases; ++p) {
      if (phase_totals[p] == 0) continue;
      share.share_by_phase[p] =
          static_cast<double>(strat_counts[s][p]) / phase_totals[p];
      if (strat_counts[s][p] > 0) any = true;
    }
    if (any) report.shares.push_back(std::move(share));
  }
  return report;
}

std::string Fleet::Report::render() const {
  std::string out;
  exp::TextTable per_vantage({"Vantage point", "Flows", "Success",
                              "Cache hit", "Converged", "Mean flows to conv"});
  for (const VantageReport& vr : vantages) {
    char conv[32];
    std::snprintf(conv, sizeof(conv), "%d/%d", vr.servers_converged,
                  vr.servers_touched);
    char mean[32];
    std::snprintf(mean, sizeof(mean), "%.1f", vr.mean_flows_to_converge);
    // Full-coverage vantages render exactly as before; a vantage with
    // holes shows executed/scheduled so partial coverage is visible in
    // the table itself.
    const std::string flows_cell =
        vr.missing == 0 ? std::to_string(vr.flows)
                        : std::to_string(vr.flows - vr.missing) + "/" +
                              std::to_string(vr.flows);
    per_vantage.add_row({vr.name, flows_cell, exp::pct(vr.success_rate),
                         exp::pct(vr.cache_hit_rate), conv, mean});
  }
  out += per_vantage.render();
  out += "\n";

  std::vector<std::string> headers = {"Strategy share"};
  for (std::size_t p = 0; p < phases; ++p) {
    headers.push_back(p == 0 ? "p0 (clean)" : "p" + std::to_string(p));
  }
  exp::TextTable shares_table(std::move(headers));
  for (const StrategyShare& s : shares) {
    std::vector<std::string> row = {strategy::to_string(s.id)};
    for (double v : s.share_by_phase) row.push_back(exp::pct(v));
    shares_table.add_row(std::move(row));
  }
  out += shares_table.render();

  char tail[160];
  std::snprintf(tail, sizeof(tail),
                "\n%zu flows total: %.1f%% success, %.1f%% cache hits, %d "
                "cross-client supplies\n",
                total_flows, success_rate * 100.0, cache_hit_rate * 100.0,
                cross_client_supplies);
  out += tail;
  if (missing_flows > 0) {
    std::snprintf(tail, sizeof(tail),
                  "PARTIAL COVERAGE: %zu/%zu flows recorded (%zu missing; "
                  "rates are over executed flows only)\n",
                  total_flows - missing_flows, total_flows, missing_flows);
    out += tail;
  }
  return out;
}

void Fleet::rebuild_telemetry(const std::vector<i64>& slots,
                              obs::Timeline* tl) const {
  const runner::TrialGrid g = grid();
  for (std::size_t v = 0; v < vps_.size(); ++v) {
    const std::vector<FlowSpec> schedule =
        build_flow_schedule(cfg_, vps_[v].name);
    const obs::TimelineLabels labels = vantage_labels(vps_[v], v);
    for (std::size_t t = 0; t < g.trials && t < schedule.size(); ++t) {
      const i64 slot = slots[v * g.trials + t];
      if (slot < 0) continue;  // hole: nothing was published for it
      publish_flow(FlowRecord::decode(slot), schedule[t], schedule, labels,
                   tl);
    }
  }
}

}  // namespace ys::fleet
