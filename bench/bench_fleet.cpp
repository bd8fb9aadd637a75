// Deployment-scale fleet simulation: N INTANG clients per vantage point
// sharing one strategy cache, multiplexed over pooled netsim scenarios on
// a single virtual timeline (src/fleet/).
//
// The sweep answers the deployment question §6 of the paper leaves open:
// how fast does a *population* of clients converge on working strategies
// per server when measurements are shared, and what does that convergence
// survive (session churn, mid-sweep fault plans from a soak schedule)?
//
// --smoke asserts, on a small grid with a soak schedule that flaps the
// rst-storm plan mid-sweep:
//   * throughput: the sweep clears a conservative flows/s floor
//   * convergence: shared caching produces cache hits and converged
//     servers, and cross-client supplies exist (one client's measurement
//     served another's flow)
//   * determinism: --jobs=2 reproduces --jobs=1 bit-for-bit, results AND
//     merged deterministic fleet.* metrics, with the soak plan flapping
//   * resumability: a sweep "killed" half-way and resumed via a results
//     store matches the uninterrupted run exactly
//
// Flags: the shared set (bench_common.h) plus --fleet=SPEC (inline spec or
// @file.json; see src/fleet/fleet_config.h). --trials/--servers override
// flows-per-vantage / server-population for quick scaling experiments;
// --resume-dir=D persists results across invocations.
#include <unistd.h>

#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <set>

#include "bench_common.h"
#include "faults/fault_plan.h"
#include "fleet/fleet.h"
#include "runner/results_store.h"
#include "supervisor/shard_child.h"
#include "supervisor/supervisor.h"

namespace ys {
namespace {

using namespace ys::bench;

struct SweepOut {
  std::vector<i64> slots;
  std::string metrics_digest;
  runner::RunnerReport report;
  u64 alloc_count = 0;  // perf.alloc.* totals (0 when tracking is off)
  u64 alloc_bytes = 0;
};

/// Canonical string of the deterministic slice of a metrics snapshot:
/// everything except wall-clock-derived values (wall/busy timers, rates,
/// utilizations), which legitimately differ run to run.
std::string deterministic_digest(const obs::Snapshot& snap) {
  const auto wall_dependent = [](const std::string& name) {
    return name.find("wall") != std::string::npos ||
           name.find("per_sec") != std::string::npos ||
           name.find("utilization") != std::string::npos ||
           name.find("busy") != std::string::npos ||
           // perf.alloc.* totals include one-time per-worker setup
           // allocations, which legitimately vary with --jobs=N.
           name.rfind("perf.alloc", 0) == 0;
  };
  std::string out;
  for (const auto& [name, v] : snap.counters) {
    if (wall_dependent(name)) continue;
    out += "c " + name + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    if (wall_dependent(name)) continue;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += "g " + name + " " + buf + "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    if (wall_dependent(name)) continue;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", h.sum);
    out += "h " + name + " " + std::to_string(h.count) + " " + buf;
    for (u64 c : h.counts) out += " " + std::to_string(c);
    out += "\n";
  }
  return out;
}

/// One full fleet sweep (Fleet::sweep) in a private metrics registry,
/// optionally recording a timeline and resuming through `store`.
SweepOut sweep(const fleet::Fleet& fl, const runner::PoolOptions& pool,
               runner::ResultsStore* store, obs::Timeline* tl = nullptr) {
  obs::MetricsRegistry local;
  obs::ScopedMetricsRegistry scope(&local);
  std::optional<obs::ScopedTimeline> tl_scope;
  if (tl != nullptr) tl_scope.emplace(tl);
  auto out = fl.sweep(pool, store);

  SweepOut res;
  res.slots = std::move(out.slots);
  res.report = out.report;
  const obs::Snapshot snap = local.snapshot();
  res.metrics_digest = deterministic_digest(snap);
  if (const auto it = snap.counters.find("perf.alloc.count");
      it != snap.counters.end()) {
    res.alloc_count = it->second;
  }
  if (const auto it = snap.counters.find("perf.alloc.bytes");
      it != snap.counters.end()) {
    res.alloc_bytes = it->second;
  }
  // Fold the private registry into the global one so --metrics-out still
  // archives everything at exit.
  obs::MetricsRegistry::global().merge_from(snap);
  return res;
}

u64 store_signature(const fleet::FleetConfig& cfg) {
  return runner::ResultsStore::signature_of({"fleet", cfg.signature()});
}

/// Keep only the fleet.* lines of a deterministic_digest() string. The
/// supervised-shard check rebuilds telemetry from merged slots, which
/// reproduces every fleet.* series exactly but cannot reproduce lower-layer
/// counters (exp.*, gfw.*, ...) — those die with the child processes and
/// are not a function of the slots.
std::string fleet_digest_lines(const std::string& digest) {
  std::string out;
  std::size_t pos = 0;
  while (pos < digest.size()) {
    std::size_t eol = digest.find('\n', pos);
    if (eol == std::string::npos) eol = digest.size();
    const std::string line = digest.substr(pos, eol - pos);
    const std::size_t space = line.find(' ');
    if (space != std::string::npos &&
        line.compare(space + 1, 6, "fleet.") == 0) {
      out += line;
      out += '\n';
    }
    pos = eol + 1;
  }
  return out;
}

int run(int argc, char** argv) {
  // Peel --smoke, --fleet=, and the hidden shard-child protocol flags off
  // before handing the rest to the shared parser (which rejects flags it
  // does not know). The shard-child flags exist so the supervised smoke
  // scenario can re-exec this binary as its own shard workers.
  bool smoke = false;
  std::string fleet_spec;
  bool fleet_spec_given = false;
  std::string shard_child;  // "i/N"; non-empty switches to child mode
  std::string shard_dir;
  std::string chaos_spec;
  int status_fd = -1;
  int shard_attempt = 0;
  double status_interval = 0.05;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--fleet=", 0) == 0) {
      fleet_spec = arg.substr(8);
      fleet_spec_given = true;
    } else if (arg.rfind("--shard-child=", 0) == 0) {
      shard_child = arg.substr(14);
    } else if (arg.rfind("--shard-dir=", 0) == 0) {
      shard_dir = arg.substr(12);
    } else if (arg.rfind("--chaos=", 0) == 0) {
      chaos_spec = arg.substr(8);
    } else if (arg.rfind("--status-fd=", 0) == 0) {
      status_fd = std::atoi(arg.c_str() + 12);
    } else if (arg.rfind("--shard-attempt=", 0) == 0) {
      shard_attempt = std::atoi(arg.c_str() + 16);
    } else if (arg.rfind("--status-interval=", 0) == 0) {
      status_interval = std::atof(arg.c_str() + 18);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  RunConfig cfg = parse_args(static_cast<int>(passthrough.size()),
                             passthrough.data(), "fleet");

  if (!fleet_spec_given && smoke) {
    // The smoke grid exercises everything the full sweep does: shared
    // caching with churn, and a soak schedule that turns the rst-storm
    // plan on at 2s of virtual time and back off at 4s (~40 flows per
    // phase at 20 flows/s of arrivals).
    fleet_spec =
        "clients=12;flows=120;servers=5;vantages=4;arrival=20;churn=0.08;"
        "soak=2s:rst-storm,4s:none";
  }
  std::string err;
  fleet::FleetConfig fcfg = fleet::parse_fleet_config(fleet_spec, err);
  if (!err.empty()) {
    std::fprintf(stderr, "--fleet: %s\n", err.c_str());
    return 2;
  }
  if (cfg.trials > 0) fcfg.flows = cfg.trials;
  if (cfg.servers > 0) fcfg.servers = cfg.servers;
  if (cfg.seed != 2017) fcfg.seed = cfg.seed;
  if (!cfg.faults.empty()) {
    std::fprintf(stderr,
                 "--faults is not supported here; use the soak= field of "
                 "--fleet to schedule fault plans\n");
    return 2;
  }

  // Shard-child mode: sweep one vantage slice into a checkpoint store and
  // exit — no banner, no report; the parent owns all output.
  if (!shard_child.empty()) {
    int shard = -1;
    int shards = 0;
    if (std::sscanf(shard_child.c_str(), "%d/%d", &shard, &shards) != 2 ||
        shard < 0 || shards <= 0 || shard >= shards || shard_dir.empty()) {
      std::fprintf(stderr, "bad --shard-child=%s / --shard-dir=%s\n",
                   shard_child.c_str(), shard_dir.c_str());
      return 2;
    }
    supervisor::FleetShardOptions sopt;
    sopt.cfg = fcfg;
    sopt.resume_dir = shard_dir;
    sopt.shard = shard;
    sopt.shards = shards;
    sopt.status_fd = status_fd;
    sopt.attempt = shard_attempt;
    sopt.jobs = 1;
    sopt.heartbeat_seconds = status_interval;
    if (!chaos_spec.empty()) {
      std::string chaos_err;
      sopt.chaos = faults::parse_fault_plan(chaos_spec, chaos_err);
      if (!chaos_err.empty()) {
        std::fprintf(stderr, "--chaos: %s\n", chaos_err.c_str());
        return 2;
      }
    }
    return supervisor::run_shard_child(sopt);
  }

  const fleet::Fleet fl(fcfg);
  const runner::TrialGrid grid = fl.grid();

  print_banner("Fleet simulation: multi-client INTANG deployment convergence",
               "deployment-scale extension of §6; spec in EXPERIMENTS.md");
  std::printf("%s\n%zu vantage points x %d clients x %d flows = %zu flows "
              "over %d servers\n\n",
              fcfg.summary().c_str(), grid.vantages, fcfg.clients, fcfg.flows,
              grid.total(), fcfg.servers);

  std::unique_ptr<runner::ResultsStore> store;
  if (!cfg.resume_dir.empty()) {
    store = std::make_unique<runner::ResultsStore>(
        cfg.resume_dir, "fleet", store_signature(fcfg), grid.total());
    if (store->resumed()) {
      std::printf("resuming: %zu/%zu slots already recorded in %s\n\n",
                  store->recorded(), grid.total(), store->path().c_str());
    }
  }

  // Always sample the allocator hook: the allocs/flow line below is the
  // heap-churn trajectory the zero-copy arena work tracks. The digest
  // excludes perf.alloc.*, so determinism checks are unaffected.
  runner::PoolOptions pool = pool_options(cfg);
  pool.track_allocs = true;

  const SweepOut ref = sweep(fl, pool, store.get());
  print_runner_report(ref.report);

  const fleet::Fleet::Report report = fl.analyze(ref.slots);
  std::printf("%s", report.render().c_str());
  std::printf("throughput: %.0f flows/s over %.2fs wall\n",
              ref.report.trials_per_sec, ref.report.wall_seconds);
  const double flows = ref.slots.empty() ? 1.0 : double(ref.slots.size());
  if (ref.alloc_count > 0) {
    std::printf("alloc churn: %.0f allocs/flow, %.0f B/flow\n",
                static_cast<double>(ref.alloc_count) / flows,
                static_cast<double>(ref.alloc_bytes) / flows);
  }
  std::printf("\n");

  if (report_enabled()) {
    using obs::perf::Direction;
    report_add_metric("flows_per_sec", ref.report.trials_per_sec, "flows/s",
                      Direction::kHigherIsBetter);
    report_add_metric("success_rate", report.success_rate, "ratio",
                      Direction::kInfo);
    report_add_metric("cache_hit_rate", report.cache_hit_rate, "ratio",
                      Direction::kInfo);
    if (ref.alloc_count > 0) {
      // Per-flow churn from the reference sweep only (under --smoke the
      // global totals also include the determinism/resume re-sweeps).
      report_add_metric("allocs_per_trial",
                        static_cast<double>(ref.alloc_count) / flows, "allocs",
                        Direction::kLowerIsBetter);
      report_add_metric("bytes_per_trial",
                        static_cast<double>(ref.alloc_bytes) / flows, "B",
                        Direction::kLowerIsBetter);
    }
  }

  if (!smoke) return 0;

  // ---- smoke assertions ----
  int failures = 0;

  // Throughput floor. Deliberately conservative (an order of magnitude
  // under typical machines) — this gates "the multiplexing didn't
  // catastrophically regress", not a benchmark score.
  const double kFloorFlowsPerSec = 25.0;
  if (ref.report.trials_per_sec < kFloorFlowsPerSec) {
    std::printf("FAIL: throughput %.0f flows/s below the %.0f flows/s floor\n",
                ref.report.trials_per_sec, kFloorFlowsPerSec);
    ++failures;
  } else {
    std::printf("throughput: %.0f flows/s clears the %.0f flows/s floor\n",
                ref.report.trials_per_sec, kFloorFlowsPerSec);
  }

  // Convergence: shared caching must actually share. Some cache hits, at
  // least one converged server somewhere, and at least one cross-client
  // supply (a flow served by a record another client wrote).
  int converged = 0;
  for (const auto& vr : report.vantages) converged += vr.servers_converged;
  if (report.cache_hit_rate <= 0.0) {
    std::printf("FAIL: shared-cache sweep produced no cache hits\n");
    ++failures;
  } else if (converged == 0) {
    std::printf("FAIL: no server's population converged on a strategy\n");
    ++failures;
  } else if (report.cross_client_supplies == 0) {
    std::printf("FAIL: no cross-client supplies — the cache never actually "
                "shared a measurement\n");
    ++failures;
  } else {
    std::printf("convergence: %.1f%% cache hits, %d server(s) converged, "
                "%d cross-client supplies\n",
                report.cache_hit_rate * 100.0, converged,
                report.cross_client_supplies);
  }

  // The soak schedule must have flapped mid-sweep: flows exist in the
  // clean phase, the faulted phase, and the recovery phase.
  if (report.phases < 3) {
    std::printf("FAIL: smoke config lost its soak schedule (%zu phase(s))\n",
                report.phases);
    ++failures;
  } else {
    std::vector<std::size_t> per_phase(report.phases, 0);
    for (std::size_t v = 0; v < grid.vantages; ++v) {
      const auto schedule =
          fleet::build_flow_schedule(fcfg, fl.vantage_points()[v].name);
      for (const auto& flow : schedule) {
        per_phase[static_cast<std::size_t>(flow.soak_phase + 1)]++;
      }
    }
    bool all_phases_hit = true;
    for (std::size_t p = 0; p < per_phase.size(); ++p) {
      if (per_phase[p] == 0) all_phases_hit = false;
    }
    if (!all_phases_hit) {
      std::printf("FAIL: a soak phase saw zero flows — the plan never "
                  "flapped mid-sweep\n");
      ++failures;
    } else {
      std::printf("soak: rst-storm flapped mid-sweep (%zu/%zu/%zu flows in "
                  "clean/storm/recovery phases)\n",
                  per_phase[0], per_phase[1], per_phase[2]);
    }
  }

  // Determinism: jobs=2 with the soak plan flapping must reproduce the
  // serial reference bit-for-bit — results and deterministic metrics.
  runner::PoolOptions par_pool = pool;
  par_pool.jobs = 2;
  runner::PoolOptions ser_pool = pool;
  ser_pool.jobs = 1;
  const SweepOut par = sweep(fl, par_pool, nullptr);
  const SweepOut ser =
      store != nullptr ? sweep(fl, ser_pool, nullptr) : ref;  // free of store effects
  if (par.slots != ser.slots) {
    std::printf("FAIL: --jobs=2 flow records diverge from --jobs=1 with the "
                "soak schedule active\n");
    ++failures;
  } else if (par.metrics_digest != ser.metrics_digest) {
    std::printf("FAIL: --jobs=2 merged fleet.* metrics diverge from "
                "--jobs=1\n");
    ++failures;
  } else {
    std::printf("determinism: --jobs=2 == --jobs=1 (flow records and merged "
                "metrics) with the soak schedule active\n");
  }

  // Timelines ride the same contract: sweeps recording virtual-time
  // series at --jobs=2 and --jobs=1 must produce identical digests once
  // the wall-clock runner.* curves are excluded (the runner's worker pool
  // merges worker-private timelines in worker order, and every other
  // series is keyed by virtual time, which --jobs never moves).
  obs::Timeline par_tl{SimTime::from_ms(500)};
  obs::Timeline ser_tl{SimTime::from_ms(500)};
  (void)sweep(fl, par_pool, nullptr, &par_tl);
  (void)sweep(fl, ser_pool, nullptr, &ser_tl);
  fl.annotate_timeline(&par_tl);
  fl.annotate_timeline(&ser_tl);
  const std::vector<std::string> exclude = {"runner."};
  if (obs::timeline_digest(par_tl, exclude) !=
      obs::timeline_digest(ser_tl, exclude)) {
    std::printf("FAIL: --jobs=2 timeline diverges from --jobs=1 "
                "(virtual-time series should be jobs-invariant)\n");
    ++failures;
  } else {
    std::printf("timeline: --jobs=2 digest == --jobs=1 digest "
                "(%zu series)\n", ser_tl.series_count());
  }

  // Timeline soak coverage: every scheduled phase boundary is annotated
  // at its bucket, and every phase window (clean lead-in included)
  // contains at least one fleet.flows bucket — a timeline that skips a
  // phase would make the dashboard silently lie about the flap response.
  {
    std::set<i64> flow_buckets;
    for (const auto& [key, series] : ser_tl.series()) {
      if (key.name != "fleet.flows") continue;
      for (const auto& [bucket, value] : series.buckets) {
        flow_buckets.insert(bucket);
      }
    }
    std::vector<i64> boundaries = {0};
    for (const auto& phase : fcfg.soak) {
      boundaries.push_back(ser_tl.bucket_of(phase.at));
    }
    bool covered = !flow_buckets.empty();
    for (std::size_t p = 0; p < fcfg.soak.size(); ++p) {
      const i64 bucket = ser_tl.bucket_of(fcfg.soak[p].at);
      bool annotated = false;
      for (const auto& a : ser_tl.annotations()) {
        if (a.category == "soak-phase" && a.bucket == bucket) annotated = true;
      }
      if (!annotated) {
        std::printf("FAIL: soak phase %zu has no timeline annotation at "
                    "bucket %lld\n", p + 1, static_cast<long long>(bucket));
        ++failures;
      }
    }
    for (std::size_t w = 0; w < boundaries.size(); ++w) {
      const i64 lo = boundaries[w];
      const i64 hi = w + 1 < boundaries.size()
                         ? boundaries[w + 1]
                         : std::numeric_limits<i64>::max();
      if (hi == lo) continue;  // boundaries sharing a bucket: empty window
      const auto it = flow_buckets.lower_bound(lo);
      if (it == flow_buckets.end() || *it >= hi) {
        std::printf("FAIL: soak window %zu (buckets [%lld, %lld)) has no "
                    "fleet.flows bucket\n", w, static_cast<long long>(lo),
                    static_cast<long long>(hi));
        ++failures;
        covered = false;
      }
    }
    if (covered) {
      std::printf("timeline: soak coverage ok — %zu phase boundaries "
                  "annotated, flows recorded in every window\n",
                  fcfg.soak.size());
    }
  }

  // Resumability: record the first half of the chains (simulating a killed
  // run), reopen the store, and check the resumed sweep reproduces the
  // uninterrupted reference exactly.
  const std::string dir = "bench_fleet_smoke_resume.tmp";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const u64 sig = store_signature(fcfg);
  {
    runner::ResultsStore killed(dir, "fleet", sig, grid.total());
    const std::size_t half_chains = grid.chains() / 2;
    for (std::size_t i = 0; i < half_chains * grid.trials; ++i) {
      killed.put(i, ser.slots[i]);
    }
  }
  runner::ResultsStore resumed(dir, "fleet", sig, grid.total());
  if (!resumed.resumed()) {
    std::printf("FAIL: results store did not recognize its own file\n");
    ++failures;
  }
  const SweepOut cont = sweep(fl, pool, &resumed);
  if (cont.slots != ser.slots) {
    std::printf("FAIL: killed-then-resumed sweep diverges from the "
                "uninterrupted run\n");
    ++failures;
  } else {
    std::printf("resume: killed-then-resumed sweep matches the "
                "uninterrupted run (%zu/%zu chains skipped)\n",
                grid.chains() / 2, grid.chains());
  }
  std::filesystem::remove_all(dir, ec);

  // Resume-dir ownership: a second sweep opening a store another live
  // process (here: ourselves) holds must fail fast, not corrupt it.
  {
    const std::string cdir = "bench_fleet_smoke_conflict.tmp";
    std::filesystem::remove_all(cdir, ec);
    runner::ResultsStore owner(cdir, "fleet", sig, grid.total());
    runner::ResultsStore intruder(cdir, "fleet", sig, grid.total());
    if (owner.conflict() || !intruder.conflict()) {
      std::printf("FAIL: resume-dir collision not detected (owner=%d "
                  "intruder=%d)\n", owner.conflict(), intruder.conflict());
      ++failures;
    } else {
      std::printf("resume lock: second opener refused (owner pid %ld "
                  "holds %s)\n", intruder.conflict_pid(),
                  owner.lock_path().c_str());
    }
    std::filesystem::remove_all(cdir, ec);
  }

  // ---- supervised shards ----
  // Re-exec this binary as shard children under ys::supervisor. Scenario
  // A: chaos kills shard 1 after 30 checkpointed flows and stalls shard 0
  // (heartbeat muted) after 40 — the supervisor must see one crash and one
  // hang, restart both from their checkpoints, and the merged sweep must
  // be byte-identical to the uninterrupted serial reference: slots, every
  // fleet.* metric, and the timeline digest (minus the wall-clock
  // runner./supervisor. series and the exp.* trial series, whose bucket
  // instants are not a function of the slots).
  char exe_buf[4096];
  const ssize_t exe_len =
      ::readlink("/proc/self/exe", exe_buf, sizeof(exe_buf) - 1);
  const std::string self_exe =
      exe_len > 0 ? std::string(exe_buf, static_cast<std::size_t>(exe_len))
                  : std::string(argv[0]);
  const auto parts = supervisor::partition_vantages(grid.vantages, 2);
  const int nshards = static_cast<int>(parts.size());
  auto shard_command = [&](const std::string& sdir, const std::string& chaos) {
    return [&, sdir, chaos](const supervisor::ShardPartition& part,
                            int attempt, int fd) {
      std::vector<std::string> args{
          self_exe,
          "--fleet=" + fleet_spec,
          "--shard-child=" + std::to_string(part.shard) + "/" +
              std::to_string(nshards),
          "--shard-dir=" + sdir,
          "--status-fd=" + std::to_string(fd),
          "--shard-attempt=" + std::to_string(attempt),
          "--status-interval=0.05",
          "--seed=" + std::to_string(cfg.seed)};
      if (cfg.trials > 0) args.push_back("--trials=" + std::to_string(cfg.trials));
      if (cfg.servers > 0) {
        args.push_back("--servers=" + std::to_string(cfg.servers));
      }
      if (!chaos.empty()) args.push_back("--chaos=" + chaos);
      return args;
    };
  };

  // Both scenarios need a real partition (a --fleet override with one
  // vantage cannot shard).
  if (nshards >= 2) {
    const std::string sdir = "bench_fleet_smoke_shards.tmp";
    std::filesystem::remove_all(sdir, ec);
    std::filesystem::create_directories(sdir, ec);
    supervisor::SupervisorOptions sopt;
    sopt.max_restarts = 3;
    sopt.heartbeat_seconds = 0.05;
    sopt.resume_dir = sdir;
    const supervisor::SupervisorResult sres = supervisor::supervise(
        parts, sopt,
        shard_command(sdir,
                      "shard-kill:shard=1,after=30;shard-stall:shard=0,"
                      "after=40"));
    bool crash_seen = false;
    bool hang_seen = false;
    for (const auto& e : sres.events) {
      if (e.kind == supervisor::ShardEvent::Kind::kCrash) crash_seen = true;
      if (e.kind == supervisor::ShardEvent::Kind::kHang) hang_seen = true;
    }
    const supervisor::ShardMerge merge =
        supervisor::merge_shard_stores(fl, sdir, nshards);

    obs::MetricsRegistry rebuilt;
    obs::Timeline sup_tl{SimTime::from_ms(500)};
    {
      obs::ScopedMetricsRegistry scope(&rebuilt);
      fl.rebuild_telemetry(merge.slots, &sup_tl);
    }
    fl.annotate_timeline(&sup_tl);
    supervisor::annotate_coverage(merge, &sup_tl);  // no-op: full coverage
    // The digest covers the fleet.* series and the annotations. Excluded:
    // wall-clock runner./supervisor. curves, and the exp./faults. series
    // whose bucket instants are packet/trial-level events inside the child
    // scenarios — reproducible only by re-running flows, not from slots.
    const std::vector<std::string> sup_exclude = {"runner.", "supervisor.",
                                                  "exp.", "faults."};

    if (!sres.all_complete() || sres.degraded_count() != 0) {
      std::printf("FAIL: supervised sweep did not complete (%d degraded)\n",
                  sres.degraded_count());
      ++failures;
    } else if (!crash_seen || !hang_seen || sres.restart_count() < 2) {
      std::printf("FAIL: chaos not exercised (crash=%d hang=%d "
                  "restarts=%d)\n", crash_seen, hang_seen,
                  sres.restart_count());
      ++failures;
    } else if (merge.missing != 0 || merge.slots != ser.slots) {
      std::printf("FAIL: merged shard stores diverge from the uninterrupted "
                  "run (%zu missing)\n", merge.missing);
      ++failures;
    } else if (fleet_digest_lines(deterministic_digest(rebuilt.snapshot())) !=
               fleet_digest_lines(ser.metrics_digest)) {
      std::printf("FAIL: rebuilt fleet.* metrics diverge from the "
                  "uninterrupted run\n");
      ++failures;
    } else if (obs::timeline_digest(sup_tl, sup_exclude) !=
               obs::timeline_digest(ser_tl, sup_exclude)) {
      std::printf("FAIL: supervised timeline digest diverges from the "
                  "uninterrupted run\n");
      ++failures;
    } else {
      std::printf("supervisor: kill + stall recovered (%d restarts); merged "
                  "slots, fleet.* metrics, and timeline digest match the "
                  "uninterrupted run\n", sres.restart_count());
    }
    std::filesystem::remove_all(sdir, ec);
  }

  // Scenario B: a shard that dies on every attempt with a zero retry
  // budget must degrade — the sweep still completes, holes stay confined
  // to the degraded shard's vantage range, and analyze() reports the
  // partial coverage honestly.
  if (nshards >= 2) {
    const std::string sdir = "bench_fleet_smoke_degraded.tmp";
    std::filesystem::remove_all(sdir, ec);
    std::filesystem::create_directories(sdir, ec);
    supervisor::SupervisorOptions sopt;
    sopt.max_restarts = 0;
    sopt.heartbeat_seconds = 0.05;
    sopt.resume_dir = sdir;
    const supervisor::SupervisorResult sres = supervisor::supervise(
        parts, sopt, shard_command(sdir, "shard-kill:shard=1,after=10,attempts=99"));
    const supervisor::ShardMerge merge =
        supervisor::merge_shard_stores(fl, sdir, nshards);
    bool holes_confined = true;
    for (std::size_t v = 0; v < grid.vantages; ++v) {
      const bool degraded_range = v >= parts[1].vantage_begin;
      for (std::size_t t = 0; t < grid.trials; ++t) {
        const bool hole = merge.slots[v * grid.trials + t] < 0;
        if (hole && !degraded_range) holes_confined = false;
      }
    }
    const fleet::Fleet::Report partial = fl.analyze(merge.slots);
    if (sres.degraded_count() != 1 || sres.all_complete()) {
      std::printf("FAIL: zero-budget shard did not degrade (%d degraded)\n",
                  sres.degraded_count());
      ++failures;
    } else if (merge.missing == 0 || !holes_confined) {
      std::printf("FAIL: degraded-shard holes wrong (%zu missing, "
                  "confined=%d)\n", merge.missing, holes_confined);
      ++failures;
    } else if (partial.missing_flows != merge.missing ||
               partial.coverage() >= 1.0 ||
               partial.render().find("PARTIAL COVERAGE") ==
                   std::string::npos) {
      std::printf("FAIL: analyze() did not report partial coverage "
                  "(%zu missing, coverage %.3f)\n", partial.missing_flows,
                  partial.coverage());
      ++failures;
    } else {
      std::printf("supervisor: zero-budget shard degraded honestly "
                  "(%zu/%zu flows recorded, coverage %.1f%%)\n",
                  merge.slots.size() - merge.missing, merge.slots.size(),
                  partial.coverage() * 100.0);
    }
    std::filesystem::remove_all(sdir, ec);
  }

  if (failures > 0) {
    std::printf("\nFAIL: %d smoke assertion(s) failed\n", failures);
    return 1;
  }
  std::printf("\nall smoke assertions passed\n");
  return 0;
}

}  // namespace
}  // namespace ys

int main(int argc, char** argv) { return ys::run(argc, argv); }
