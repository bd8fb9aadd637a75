// Table 4 — success rates of the new/improved strategies, reported as
// min/max/avg across vantage points, for both directions:
//   inside China  (11 vantage points × 77 foreign sites)
//   outside China ( 4 vantage points × 33 Chinese sites)
// plus the INTANG adaptive row (inside China), where the selector converges
// on the best strategy per server using its persistent cache.
//
// Paper reference values (avg, inside China):
//   Improved TCB Teardown            95.8 / 3.1 / 1.1
//   Improved In-order Data Overlap   94.5 / 4.4 / 1.1
//   TCB Creation + Resync/Desync     95.6 / 3.3 / 1.1
//   TCB Teardown + TCB Reversal      96.2 / 2.6 / 1.1
//   INTANG                           98.3 / 0.9 / 0.6
// Outside China (avg): 89.8/92.7/84.6/89.5 for the four strategies.
//
// Both directions run through exp/benchdef.h (the shared grid definition)
// so --flight-dir can re-run any anomalous cell's trial traced, and
// `yourstate explain` can replay the exact same coordinates.
#include "bench_common.h"
#include "exp/benchdef.h"
#include "runner/flight_recorder.h"

namespace ys {
namespace {

using namespace ys::exp;
using namespace ys::bench;

std::string mma(const MinMaxAvg& v) {
  return pct(v.min) + " / " + pct(v.max) + " / " + pct(v.avg);
}

/// How far a cell's sampled success rate may drift from the paper value
/// before the flight recorder archives a trace. Wide enough that honest
/// sampling noise at --trials=10 passes, tight enough that a genuinely
/// shifted cell (or a deliberately small --trials=1 --servers=3 smoke run,
/// which trace_lint's ctest script exploits) trips it.
constexpr double kBandTolerance = 0.05;

/// A trial error (event cap, deadline expiry, or an isolated exception) is
/// always an anomaly: archive the first one of `cell`, traced.
void record_trial_error(runner::FlightRecorder& recorder,
                        const runner::TrialGrid& grid,
                        const std::vector<Outcome>& slots, std::size_t cell) {
  for (std::size_t i = 0; i < grid.total(); ++i) {
    if (grid.coord(i).cell == cell && slots[i] == Outcome::kTrialError) {
      recorder.record(grid.coord(i),
                      "trial error (simulation cut off, not a §3.4 outcome)");
      return;
    }
  }
}

/// One table row from `cell` of a finished grid, as min/max/avg over the
/// vantage points; then the band check, which archives the cell's first
/// off-script trial when its pooled success rate drifts from `paper`.
void add_row(TextTable& table, const char* direction, const char* label,
             double paper, const runner::TrialGrid& grid,
             const std::vector<Outcome>& slots, std::size_t cell,
             runner::FlightRecorder& recorder) {
  std::vector<double> success, f1, f2;
  RateTally cell_tally;
  for (std::size_t v = 0; v < grid.vantages; ++v) {
    RateTally tally;
    for (std::size_t s = 0; s < grid.servers; ++s) {
      for (std::size_t t = 0; t < grid.trials; ++t) {
        tally.add(slots[grid.index({cell, v, s, t})]);
        cell_tally.add(slots[grid.index({cell, v, s, t})]);
      }
    }
    success.push_back(tally.success_rate());
    f1.push_back(tally.failure1_rate());
    f2.push_back(tally.failure2_rate());
  }
  table.add_row({direction, label, mma(aggregate(success)),
                 mma(aggregate(f1)), mma(aggregate(f2))});

  const runner::AnomalyBand band{paper - kBandTolerance,
                                 paper + kBandTolerance};
  const double rate = cell_tally.success_rate();
  runner::GridCoord example{cell, 0, 0, 0};
  const Outcome want =
      rate < band.success_min ? Outcome::kSuccess : Outcome::kFailure1;
  for (std::size_t i = 0; i < grid.total(); ++i) {
    if (grid.coord(i).cell == cell && slots[i] != want) {
      example = grid.coord(i);
      break;
    }
  }
  recorder.check_band(label, band, rate, example);
}

/// The fixed-strategy rows of one direction. Every trial is independent,
/// plain grid; slots are pre-filled with kTrialError so a thrown-and-
/// isolated trial can never read as a silent success.
void run_fixed_rows(const Table4Bench& bench, const RunConfig& cfg,
                    TextTable& table, runner::FlightRecorder& recorder) {
  const runner::TrialGrid grid = bench.fixed_grid();
  auto out = runner::collect_grid_or(
      grid, pool_options(cfg), Outcome::kTrialError,
      [&bench](const runner::GridCoord& c, runner::TaskContext&) {
        return bench.run_fixed(c).outcome;
      });
  print_runner_report(out.report);

  const auto& rows = Table4Bench::rows();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    record_trial_error(recorder, grid, out.slots, r);
  }
  const char* direction =
      bench.direction() == Table4Bench::Direction::kInside ? "Inside China"
                                                           : "Outside China";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    add_row(table, direction, rows[r].label, bench.paper_average(r), grid,
            out.slots, r, recorder);
  }
}

/// INTANG row: one persistent selector per (vantage point, server) pair,
/// so knowledge accumulates across the repeated trials exactly like the
/// tool's Redis cache does across page loads. The trial axis is a
/// sequential dependency, so the grid is chained: each chain runs its
/// trials in order on one worker against its own selector.
void run_intang_row(const Table4Bench& bench, const RunConfig& cfg,
                    TextTable& table, runner::FlightRecorder& recorder) {
  const runner::TrialGrid grid = bench.intang_grid();
  std::vector<intang::StrategySelector> selectors(
      grid.chains(),
      intang::StrategySelector{intang::StrategySelector::Config{}});
  auto out = runner::collect_grid_or(
      grid, pool_options(cfg), Outcome::kTrialError,
      [&bench, &grid, &selectors](const runner::GridCoord& c,
                                  runner::TaskContext&) {
        return bench.run_intang(c, selectors[grid.chain(c)]).outcome;
      });
  print_runner_report(out.report);

  record_trial_error(recorder, grid, out.slots, 0);
  add_row(table, "Inside China", "INTANG Performance",
          Table4Bench::kIntangPaperSuccess, grid, out.slots, 0, recorder);
}

int run(int argc, char** argv) {
  RunConfig cfg = parse_args(argc, argv, "table4");
  const int trials = cfg.trials > 0 ? cfg.trials : 10;

  print_banner("Table 4: new strategies, inside and outside China",
               "Wang et al., IMC'17, Table 4");
  std::printf("trials per pair: %d (paper: 50)\n\n", trials);

  BenchScale scale;
  scale.trials = trials;
  scale.seed = cfg.seed;
  scale.faults = cfg.faults;
  scale.servers = cfg.servers > 0 ? cfg.servers : 77;
  const Table4Bench inside(scale);
  scale.servers = cfg.servers > 0 ? cfg.servers : 33;
  const Table4Bench outside(scale, Table4Bench::Direction::kOutside);

  // One recorder per explain target, each checking its cells against
  // their paper bands.
  const auto recorder = [&cfg](const char* name, const Table4Bench& bench,
                               bool intang) {
    runner::FlightRecorderOptions fopt;
    fopt.dir = cfg.flight_dir;
    fopt.bench = name;
    return runner::FlightRecorder(
        fopt, [&bench, intang](const runner::GridCoord& c,
                               const std::string& trace,
                               const std::string& pcap) {
          return (intang ? bench.replay_intang(c, trace, pcap)
                         : bench.replay_fixed(c, trace, pcap))
              .attribution.verdict;
        });
  };
  runner::FlightRecorder inside_recorder =
      recorder("table4-inside", inside, false);
  runner::FlightRecorder intang_recorder =
      recorder("table4-intang", inside, true);
  runner::FlightRecorder outside_recorder =
      recorder("table4-outside", outside, false);

  TextTable table({"Vantage Points", "Strategy", "Success (min/max/avg)",
                   "Failure 1 (min/max/avg)", "Failure 2 (min/max/avg)"});
  run_fixed_rows(inside, cfg, table, inside_recorder);
  run_intang_row(inside, cfg, table, intang_recorder);
  run_fixed_rows(outside, cfg, table, outside_recorder);

  const std::string freport = inside_recorder.report() +
                              intang_recorder.report() +
                              outside_recorder.report();
  if (!freport.empty()) std::printf("\n%s", freport.c_str());
  std::printf("%s\n", table.render().c_str());
  return 0;
}

}  // namespace
}  // namespace ys

int main(int argc, char** argv) { return ys::run(argc, argv); }
