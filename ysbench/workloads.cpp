#include "workloads.h"

#include <time.h>

#include <chrono>
#include <cstdio>
#include <mutex>
#include <stdexcept>

#include "exp/benchdef.h"
#include "fleet/fleet.h"
#include "intang/selector.h"
#include "obs/phase_profiler.h"
#include "runner/runner.h"

namespace ysbench {
namespace {

using namespace ys;
using Clock = std::chrono::steady_clock;

/// Counter-wise `after - before` (gauges and histograms are not additive
/// per trial; probes only need counters).
obs::Snapshot counter_delta(const obs::Snapshot& after,
                            const obs::Snapshot& before) {
  obs::Snapshot d;
  for (const auto& [name, v] : after.counters) {
    const auto it = before.counters.find(name);
    const u64 prev = it == before.counters.end() ? 0 : it->second;
    if (v != prev) d.counters[name] = v - prev;
  }
  return d;
}

/// CPU time consumed so far by the calling thread or by the whole
/// process, in ns.
u64 cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<u64>(ts.tv_sec) * 1000000000ULL +
         static_cast<u64>(ts.tv_nsec);
}

/// Clock bookkeeping of one sweep: the wall and CPU duration of every
/// trial call, the wall and process CPU time of every runner call, and the
/// registry delta of each probed slot.
class SweepTimer {
 public:
  SweepTimer(Sweep& s, const std::set<std::size_t>& probe)
      : s_(s), probe_(probe) {
    s_.trial_ns.assign(s_.trials, 0);
    s_.trial_cpu_ns.assign(s_.trials, 0);
  }

  /// One runner call; its time counts towards the sweep's.
  template <typename Fn>
  auto runner_call(Fn&& fn) {
    const u64 cpu0 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
    const auto wall0 = Clock::now();
    auto out = fn();
    s_.wall_s += std::chrono::duration<double>(Clock::now() - wall0).count();
    s_.cpu_ns += cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    return out;
  }

  /// One trial call on a worker publishing into `reg`.
  template <typename Fn>
  auto trial(std::size_t slot, obs::MetricsRegistry& reg, Fn&& fn) {
    const bool probed = probe_.count(slot) != 0;
    obs::Snapshot before;
    if (probed) before = reg.snapshot();
    const auto wall0 = Clock::now();
    const u64 cpu0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
    auto result = fn();
    s_.trial_cpu_ns[slot] = cpu_ns(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    s_.trial_ns[slot] = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             wall0)
            .count());
    if (probed) {
      obs::Snapshot d = counter_delta(reg.snapshot(), before);
      std::lock_guard<std::mutex> lock(mu_);
      s_.probes[slot] = std::move(d);
    }
    return result;
  }

 private:
  Sweep& s_;
  const std::set<std::size_t>& probe_;
  std::mutex mu_;  // guards s_.probes
};

runner::PoolOptions pool(int jobs) {
  runner::PoolOptions opt;
  opt.jobs = jobs;
  opt.track_allocs = true;
  return opt;
}

void append_slot(std::string& out, i64 v) {
  out += std::to_string(v);
  out += ',';
}

// ------------------------------------------------------------------ fleet

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(const char* name, const std::string& spec, u64 seed)
      : name_(name) {
    std::string err;
    cfg_ = fleet::parse_fleet_config(spec, err);
    if (!err.empty()) throw std::runtime_error("fleet spec: " + err);
    cfg_.seed = seed;
  }

  const char* name() const override { return name_; }
  int jobs() const override { return 1; }
  void setup() override {
    fleet_ = std::make_unique<fleet::Fleet>(cfg_);
    for (std::size_t v = 0; v < fleet_->grid().chains(); ++v) {
      states_.push_back(fleet_->make_vantage_state(v));
    }
  }
  void teardown() override {
    states_.clear();
    fleet_.reset();
  }

  Sweep sweep(const std::set<std::size_t>& probe) override {
    obs::MetricsRegistry local;
    obs::ScopedMetricsRegistry scope(&local);
    obs::perf::PhaseProfiler::reset();
    const runner::TrialGrid grid = fleet_->grid();
    Sweep s;
    s.trials = grid.total();
    SweepTimer timer(s, probe);
    auto out = timer.runner_call([&] {
      return runner::collect_grid_or(
          grid, pool(jobs()), i64{-1},
          [&](const runner::GridCoord& c, runner::TaskContext& ctx) {
            return timer.trial(grid.index(c), *ctx.metrics, [&] {
              return fleet_->run_flow(c, *states_[grid.chain(c)]).encode();
            });
          });
    });
    s.phases = obs::perf::PhaseProfiler::snapshot();
    s.snap = local.snapshot();
    s.reports.push_back(out.report);
    s.slots = std::move(out.slots);
    s.outputs.reserve(s.slots.size() * 8);
    for (const i64 slot : s.slots) {
      append_slot(s.outputs, slot);
      const auto outcome =
          slot < 0 ? exp::Outcome::kTrialError
                   : fleet::Fleet::FlowRecord::decode(slot).outcome;
      s.outcomes.push_back(static_cast<int>(outcome));
      if (outcome == exp::Outcome::kTrialError) ++s.errors;
    }
    return s;
  }

  std::vector<std::string> check(const Sweep& s) const override {
    std::vector<std::string> failures;
    const fleet::Fleet::Report report = fleet_->analyze(s.slots);
    if (report.coverage() != 1.0) {
      failures.push_back("fleet coverage below 1 (holes in the sweep)");
    }
    // The slots are a sufficient statistic for every fleet.* counter: a
    // rebuild from the slots alone must reproduce the live counters.
    obs::MetricsRegistry rebuilt;
    {
      obs::ScopedMetricsRegistry scope(&rebuilt);
      fleet_->rebuild_telemetry(s.slots);
    }
    const obs::Snapshot rs = rebuilt.snapshot();
    for (const auto& [name, v] : s.snap.counters) {
      if (name.rfind("fleet.", 0) != 0) continue;
      const auto it = rs.counters.find(name);
      const u64 got = it == rs.counters.end() ? 0 : it->second;
      if (got != v) {
        failures.push_back("telemetry rebuilt from slots disagrees on " +
                           name + ": live " + std::to_string(v) +
                           ", rebuilt " + std::to_string(got));
      }
    }
    // Workload invariants: a converged shared-cache deployment serves most
    // flows from the cache; a cold one never can.
    if (cfg_.share == fleet::ShareMode::kCold && report.cache_hit_rate != 0.0) {
      failures.push_back("cold-cache sweep reported cache hits");
    }
    if (cfg_.share == fleet::ShareMode::kShared &&
        report.cache_hit_rate < 0.9) {
      failures.push_back("shared-cache sweep converged on fewer than 90% "
                         "cache hits");
    }
    return failures;
  }

  std::vector<std::size_t> sample(u64 seed) const override {
    // Two flows per vantage, uniform over the chain.
    Rng rng(Rng::mix_seed({seed, 0x7973626eULL, 1}));
    const runner::TrialGrid grid = fleet_->grid();
    std::set<std::size_t> picked;
    for (std::size_t v = 0; v < grid.vantages; ++v) {
      while (picked.size() < 2 * (v + 1)) {
        picked.insert(grid.index({0, v, 0, rng.uniform(grid.trials)}));
      }
    }
    return {picked.begin(), picked.end()};
  }

  std::size_t replay(std::size_t slot, const std::string& pcap,
                     int* outcome) const override {
    const runner::GridCoord c = fleet_->grid().coord(slot);
    const exp::Replay r = fleet_->replay_flow(c, {}, pcap);
    *outcome = static_cast<int>(r.result.outcome);
    return c.trial + 1;
  }

  exp::ScenarioOptions scenario_options(std::size_t slot) const override {
    if (!profiles_) {
      profiles_ = std::make_unique<exp::PathProfileCache>(
          fleet_->vantage_points(), fleet_->server_population(),
          exp::Calibration::standard());
    }
    const runner::GridCoord c = fleet_->grid().coord(slot);
    const fleet::FlowSpec& flow = states_[c.vantage]->schedule[c.trial];
    const auto server = static_cast<std::size_t>(flow.server);
    exp::ScenarioOptions opt;
    opt.vp = fleet_->vantage_points()[c.vantage];
    opt.server = fleet_->server_population()[server];
    opt.seed = Rng::mix_seed({cfg_.seed, slot});
    opt.profile = profiles_->get(c.vantage, server);
    opt.start_time = flow.at;
    opt.deadline = SimTime::from_sec(120);
    if (flow.soak_phase >= 0) {
      const faults::FaultPlan& plan =
          cfg_.soak[static_cast<std::size_t>(flow.soak_phase)].plan;
      if (!plan.empty()) opt.faults = &plan;
    }
    return opt;
  }

  std::string slot_label(std::size_t slot) const override {
    const runner::GridCoord c = fleet_->grid().coord(slot);
    char label[96];
    std::snprintf(label, sizeof(label), "v%zu/flow%zu", c.vantage, c.trial);
    return label;
  }

 private:
  const char* name_;
  fleet::FleetConfig cfg_;
  std::unique_ptr<fleet::Fleet> fleet_;
  std::vector<std::unique_ptr<fleet::Fleet::VantageState>> states_;
  mutable std::unique_ptr<exp::PathProfileCache> profiles_;
};

// ----------------------------------------------------------------- table 4

class Table4Workload final : public Workload {
 public:
  explicit Table4Workload(u64 seed) {
    scale_.trials = 10;
    scale_.servers = 77;
    scale_.seed = seed;
  }

  const char* name() const override { return "table4-grid"; }
  int jobs() const override { return 2; }
  void setup() override {
    bench_ = std::make_unique<exp::Table4Inside>(scale_);
    selectors_.assign(
        bench_->intang_grid().chains(),
        intang::StrategySelector{intang::StrategySelector::Config{}});
  }
  void teardown() override {
    selectors_.clear();
    bench_.reset();
  }

  Sweep sweep(const std::set<std::size_t>& probe) override {
    obs::MetricsRegistry local;
    obs::ScopedMetricsRegistry scope(&local);
    obs::perf::PhaseProfiler::reset();
    const runner::TrialGrid fixed = bench_->fixed_grid();
    const runner::TrialGrid chained = bench_->intang_grid();
    const std::size_t base = fixed.total();
    Sweep s;
    s.trials = fixed.total() + chained.total();
    SweepTimer timer(s, probe);
    auto fout = timer.runner_call([&] {
      return runner::collect_grid_or(
          fixed, pool(jobs()), exp::Outcome::kTrialError,
          [&](const runner::GridCoord& c, runner::TaskContext& ctx) {
            return timer.trial(fixed.index(c), *ctx.metrics,
                               [&] { return bench_->run_fixed(c).outcome; });
          });
    });
    auto iout = timer.runner_call([&] {
      return runner::collect_grid_or(
          chained, pool(jobs()), exp::Outcome::kTrialError,
          [&](const runner::GridCoord& c, runner::TaskContext& ctx) {
            return timer.trial(base + chained.index(c), *ctx.metrics, [&] {
              return bench_->run_intang(c, selectors_[chained.chain(c)])
                  .outcome;
            });
          });
    });
    s.phases = obs::perf::PhaseProfiler::snapshot();
    s.snap = local.snapshot();
    s.reports = {fout.report, iout.report};

    for (const auto* slots : {&fout.slots, &iout.slots}) {
      for (const exp::Outcome o : *slots) {
        s.slots.push_back(static_cast<i64>(o));
        s.outcomes.push_back(static_cast<int>(o));
        if (o == exp::Outcome::kTrialError) ++s.errors;
      }
    }
    s.outputs.reserve(s.slots.size() * 2 + 4096);
    for (const i64 slot : s.slots) append_slot(s.outputs, slot);
    // The paper's cells: per row, per vantage, the success / Failure 1 /
    // Failure 2 / error tallies.
    const std::size_t rows = exp::Table4Inside::rows().size() + 1;
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t v = 0; v < fixed.vantages; ++v) {
        std::size_t n[4] = {0, 0, 0, 0};
        for (std::size_t sv = 0; sv < fixed.servers; ++sv) {
          for (std::size_t t = 0; t < fixed.trials; ++t) {
            const std::size_t slot =
                r + 1 < rows ? fixed.index({r, v, sv, t})
                             : base + chained.index({0, v, sv, t});
            ++n[s.outcomes[slot]];
          }
        }
        char cell[160];
        std::snprintf(cell, sizeof(cell), "\nrow%zu v%zu %zu/%zu/%zu/%zu", r, v,
                      n[0], n[1], n[2], n[3]);
        s.outputs += cell;
      }
    }
    return s;
  }

  std::vector<std::string> check(const Sweep& s) const override {
    // Every row's success rate must sit in the paper band the flight
    // recorder of bench_table4 uses (paper value +- 5 points).
    constexpr double kBand = 0.05;
    std::vector<std::string> failures;
    const std::size_t per_row = bench_->fixed_grid().total() /
                                exp::Table4Inside::rows().size();
    for (std::size_t r = 0; r <= exp::Table4Inside::rows().size(); ++r) {
      const bool intang_row = r == exp::Table4Inside::rows().size();
      const double paper = intang_row
                               ? exp::Table4Inside::kIntangPaperSuccess
                               : exp::Table4Inside::rows()[r].paper_success;
      std::size_t ok = 0;
      for (std::size_t i = 0; i < per_row; ++i) {
        ok += s.outcomes[r * per_row + i] ==
              static_cast<int>(exp::Outcome::kSuccess);
      }
      const double rate = static_cast<double>(ok) / per_row;
      if (rate < paper - kBand || rate > paper + kBand) {
        failures.push_back(
            std::string(intang_row ? "INTANG"
                                   : exp::Table4Inside::rows()[r].label) +
            ": success " + std::to_string(rate) + " outside paper band " +
            std::to_string(paper) + " +- " + std::to_string(kBand));
      }
    }
    return failures;
  }

  std::vector<std::size_t> sample(u64 seed) const override {
    // Three trials per fixed row, four INTANG chain trials.
    Rng rng(Rng::mix_seed({seed, 0x7973626eULL, 4}));
    const runner::TrialGrid fixed = bench_->fixed_grid();
    const runner::TrialGrid chained = bench_->intang_grid();
    std::set<std::size_t> picked;
    auto coord = [&](std::size_t cell) {
      return runner::GridCoord{cell, rng.uniform(fixed.vantages),
                               rng.uniform(fixed.servers),
                               rng.uniform(fixed.trials)};
    };
    for (std::size_t r = 0; r < fixed.cells; ++r) {
      while (picked.size() < 3 * (r + 1)) picked.insert(fixed.index(coord(r)));
    }
    while (picked.size() < 3 * fixed.cells + 4) {
      picked.insert(fixed.total() + chained.index(coord(0)));
    }
    return {picked.begin(), picked.end()};
  }

  std::size_t replay(std::size_t slot, const std::string& pcap,
                     int* outcome) const override {
    const runner::GridCoord c = coord(slot);
    if (slot < bench_->fixed_grid().total()) {
      *outcome =
          static_cast<int>(bench_->replay_fixed(c, {}, pcap).result.outcome);
      return 1;
    }
    *outcome =
        static_cast<int>(bench_->replay_intang(c, {}, pcap).result.outcome);
    return c.trial + 1;
  }

  exp::ScenarioOptions scenario_options(std::size_t slot) const override {
    if (!profiles_) {
      profiles_ = std::make_unique<exp::PathProfileCache>(
          bench_->vantage_points(), bench_->server_population(),
          exp::Calibration::standard());
    }
    const runner::GridCoord c = coord(slot);
    exp::ScenarioOptions opt;
    opt.vp = bench_->vantage_points()[c.vantage];
    opt.server = bench_->server_population()[c.server];
    opt.seed = Rng::mix_seed({scale_.seed, slot});
    opt.profile = profiles_->get(c.vantage, c.server);
    return opt;
  }

  std::string slot_label(std::size_t slot) const override {
    const runner::GridCoord c = coord(slot);
    char label[96];
    if (slot >= bench_->fixed_grid().total()) {
      std::snprintf(label, sizeof(label), "intang/v%zu/s%zu/t%zu", c.vantage,
                    c.server, c.trial);
    } else {
      std::snprintf(label, sizeof(label), "row%zu/v%zu/s%zu/t%zu", c.cell,
                    c.vantage, c.server, c.trial);
    }
    return label;
  }

 private:
  runner::GridCoord coord(std::size_t slot) const {
    const std::size_t base = bench_->fixed_grid().total();
    return slot < base ? bench_->fixed_grid().coord(slot)
                       : bench_->intang_grid().coord(slot - base);
  }

  exp::BenchScale scale_;
  std::unique_ptr<exp::Table4Inside> bench_;
  std::vector<intang::StrategySelector> selectors_;
  mutable std::unique_ptr<exp::PathProfileCache> profiles_;
};

// The ROADMAP reference sweep, and the same shape with cold caches under
// the chaos fault plan from virtual time zero.
constexpr const char* kConvergedSpec =
    "clients=200;flows=5000;servers=40;vantages=4;arrival=40;churn=0.05";
constexpr const char* kChaosColdSpec =
    "clients=200;flows=2500;servers=40;vantages=4;arrival=40;churn=0.05;"
    "share=cold;soak=0s:chaos";

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fleet-converged", "fleet-chaos-cold", "table4-grid"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, u64 seed) {
  if (name == "fleet-converged") {
    return std::make_unique<FleetWorkload>("fleet-converged", kConvergedSpec,
                                           seed);
  }
  if (name == "fleet-chaos-cold") {
    return std::make_unique<FleetWorkload>("fleet-chaos-cold", kChaosColdSpec,
                                           seed);
  }
  if (name == "table4-grid") return std::make_unique<Table4Workload>(seed);
  return nullptr;
}

}  // namespace ysbench
