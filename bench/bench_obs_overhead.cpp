// Measures what the obs layer costs on the hot path: the bench_micro
// end-to-end workload (full HTTP trials through the event loop, path, GFW
// devices, TCP stacks and INTANG) is timed with metric updates enabled and
// with the runtime kill switch off (`obs::set_metrics_enabled(false)`,
// which reduces every update to the same predictable branch the
// -DYS_OBS_DISABLE compile-out leaves behind). The acceptance bar for the
// observability layer is <5% overhead with tracing off (the default);
// structured tracing and timeline recording (obs/timeline.h) are opt-in
// axes whose cost is measured and reported separately but not gated —
// with no timeline installed their producer sites are the same
// thread-local read + branch the gate already covers.
//
//   bench_obs_overhead [--smoke] [--trials=N] [--reps=K] [--max-overhead=P]
//                      [--report=FILE]
//
// Exit status 0 iff measured metrics overhead <= P percent (default 5).
// Each rep is timed in CPU time of the measuring thread, so time the core
// spends on other processes of a shared host is not charged to it. The
// enabled and disabled reps alternate which runs first, and each mode is
// measured K times and the *minimum* is compared: noise only ever adds
// time, so min-of-reps is the right estimator for a pass/fail gate.
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <optional>

#include "exp/scenario.h"
#include "exp/trial.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/timeline.h"

namespace ys {
namespace {

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU seconds the calling thread spends on `trials` HTTP trials.
double run_workload(const gfw::DetectionRules* rules, int trials, u64 seed,
                    bool tracing, bool timeline = false) {
  // Installed around the timed loop: the measured delta is what every
  // producer site pays to resolve + fold into buckets during a
  // --timeline-out run (export cost happens once, at exit).
  std::optional<obs::Timeline> tl;
  std::optional<obs::ScopedTimeline> tl_scope;
  if (timeline) {
    tl.emplace(SimTime::from_sec(1));
    tl_scope.emplace(&*tl);
  }
  const double start = thread_cpu_seconds();
  for (int i = 0; i < trials; ++i) {
    exp::ScenarioOptions opt;
    opt.vp = exp::china_vantage_points()[0];
    opt.server.host = "site-0.example";
    opt.server.ip = net::make_ip(93, 184, 216, 34);
    opt.cal = exp::Calibration::standard();
    opt.seed = seed + static_cast<u64>(i);
    opt.tracing = tracing;
    exp::Scenario sc(rules, opt);
    exp::HttpTrialOptions http;
    http.with_keyword = true;
    http.strategy = strategy::StrategyId::kImprovedTeardown;
    volatile bool sink = exp::run_http_trial(sc, http).response_received;
    (void)sink;
  }
  return thread_cpu_seconds() - start;
}

int run(int argc, char** argv) {
  int trials = 120;
  int reps = 15;
  double max_overhead_pct = 5.0;
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      trials = 400;
      reps = 25;
    } else if (arg.rfind("--trials=", 0) == 0) {
      trials = std::max(1, std::atoi(arg.c_str() + 9));
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = std::max(1, std::atoi(arg.c_str() + 7));
    } else if (arg.rfind("--max-overhead=", 0) == 0) {
      max_overhead_pct = std::atof(arg.c_str() + 15);
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(9);
    } else {
      std::fprintf(stderr,
                   "usage: bench_obs_overhead [--smoke] [--trials=N] "
                   "[--reps=K] [--max-overhead=P] [--report=FILE]\n");
      return 2;
    }
  }

  const gfw::DetectionRules rules = gfw::DetectionRules::standard();

  // Warm-up: fault in code paths and registry slots for all modes.
  obs::set_metrics_enabled(true);
  run_workload(&rules, std::max(1, trials / 10), 999, /*tracing=*/false);
  run_workload(&rules, std::max(1, trials / 10), 999, /*tracing=*/true);
  run_workload(&rules, std::max(1, trials / 10), 999, /*tracing=*/false,
               /*timeline=*/true);
  obs::set_metrics_enabled(false);
  run_workload(&rules, std::max(1, trials / 10), 999, /*tracing=*/false);

  double best_on = 1e300;
  double best_off = 1e300;
  double best_traced = 1e300;
  double best_timeline = 1e300;
  for (int r = 0; r < reps; ++r) {
    // Interleave modes so drift (thermal, scheduler) hits both equally,
    // and alternate which of the gated pair runs first.
    for (const bool on : {r % 2 == 0, r % 2 != 0}) {
      obs::set_metrics_enabled(on);
      double& best = on ? best_on : best_off;
      best = std::min(best, run_workload(&rules, trials, 1, false));
    }
    obs::set_metrics_enabled(true);
    best_traced = std::min(best_traced, run_workload(&rules, trials, 1, true));
    best_timeline = std::min(
        best_timeline, run_workload(&rules, trials, 1, false, true));
  }
  obs::set_metrics_enabled(true);

  const double overhead_pct = (best_on / best_off - 1.0) * 100.0;
  const double traced_pct = (best_traced / best_off - 1.0) * 100.0;
  const double timeline_pct = (best_timeline / best_off - 1.0) * 100.0;
  std::printf("bench_obs_overhead: %d http trials per rep, %d reps\n",
              trials, reps);
  std::printf("  metrics enabled : %9.4f s CPU (best of %d)\n", best_on, reps);
  std::printf("  metrics disabled: %9.4f s CPU (best of %d)\n", best_off, reps);
  std::printf("  metrics+tracing : %9.4f s CPU (best of %d)\n", best_traced,
              reps);
  std::printf("  metrics+timeline: %9.4f s CPU (best of %d)\n", best_timeline,
              reps);
  std::printf("  overhead        : %+8.2f %%  (bar: %.1f %%)\n",
              overhead_pct, max_overhead_pct);
  std::printf("  traced overhead : %+8.2f %%  (informational; tracing is "
              "opt-in)\n",
              traced_pct);
  std::printf("  timeline overhead: %+7.2f %%  (informational; timelines "
              "are opt-in)\n",
              timeline_pct);
  const bool ok = overhead_pct <= max_overhead_pct;
  std::printf("  verdict         : %s\n", ok ? "PASS" : "FAIL");

  if (!report_path.empty()) {
    using obs::perf::Direction;
    obs::perf::BenchReport rep = obs::perf::make_report("obs_overhead");
    rep.config["trials"] = trials;
    rep.config["reps"] = reps;
    rep.wall_seconds = best_on;
    rep.metrics["trials_per_sec"] = obs::perf::MetricValue{
        best_on > 0.0 ? trials / best_on : 0.0, "trials/s",
        Direction::kHigherIsBetter};
    rep.metrics["overhead_pct"] = obs::perf::MetricValue{
        overhead_pct, "%", Direction::kLowerIsBetter};
    rep.metrics["traced_overhead_pct"] = obs::perf::MetricValue{
        traced_pct, "%", Direction::kInfo};
    rep.metrics["timeline_overhead_pct"] = obs::perf::MetricValue{
        timeline_pct, "%", Direction::kInfo};
    rep.snapshot = obs::MetricsRegistry::global().snapshot();
    if (!rep.write(report_path)) {
      std::fprintf(stderr, "cannot write --report file %s\n",
                   report_path.c_str());
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace ys

int main(int argc, char** argv) { return ys::run(argc, argv); }
