#include "runner/runner.h"

#include <atomic>

namespace ys::runner {

RunnerReport run_grid(
    const TrialGrid& grid, const PoolOptions& opt,
    const std::function<void(const GridCoord&, TaskContext&)>& fn) {
  if (!grid.chain_trials) {
    RunnerReport report = run_sharded(
        opt, grid.total(), [&](std::size_t index, TaskContext& ctx) {
          const GridCoord c = grid.coord(index);
          fn(c, ctx);
        });
    return report;
  }

  // Chained grids: one pool task per (cell, vantage, server) chain; the
  // trial axis runs in ascending order inside it. Cancellation is honored
  // between trials, so an early-stop can cut a chain short.
  const std::size_t trials = grid.trials;
  std::atomic<u64> trials_done{0};
  RunnerReport report = run_sharded(
      opt, grid.chains(), [&](std::size_t chain, TaskContext& ctx) {
        GridCoord c;
        c.server = chain % grid.servers;
        const std::size_t rest = chain / grid.servers;
        c.vantage = rest % grid.vantages;
        c.cell = rest / grid.vantages;
        for (c.trial = 0; c.trial < trials; ++c.trial) {
          if (ctx.cancel->cancelled()) break;
          fn(c, ctx);
          trials_done.fetch_add(1, std::memory_order_relaxed);
        }
      },
      &trials_done, grid.total());

  // The pool counted chains; re-express the report in trials.
  report.trials = grid.total();
  report.trials_executed = trials_done.load(std::memory_order_relaxed);
  report.trials_per_sec = report.wall_seconds > 0.0
                              ? report.trials_executed / report.wall_seconds
                              : 0.0;
  return report;
}

}  // namespace ys::runner
