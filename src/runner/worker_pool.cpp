#include "runner/worker_pool.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "core/log.h"
#include "obs/alloc_hook.h"
#include "obs/metrics.h"
#include "obs/phase_profiler.h"
#include "obs/timeline.h"

namespace ys::runner {

namespace {

using Clock = std::chrono::steady_clock;

/// Crash isolation: one bad trial must not take down the pool (or, under
/// jobs==1, the whole sweep). The exception is swallowed after counting —
/// callers pre-fill slots with an error value (collect_grid_or) so the
/// task's slot still reads as a failure, never as a silent success.
void run_isolated(const std::function<void(std::size_t, TaskContext&)>& task,
                  std::size_t index, TaskContext& ctx, WorkerStats& ws) {
  try {
    task(index, ctx);
  } catch (const std::exception& e) {
    ++ws.task_exceptions;
    obs::MetricsRegistry::current().counter("runner.task_exception").inc();
    YS_LOG(LogLevel::kWarn, "task " + std::to_string(index) +
                                " threw: " + e.what() +
                                " (isolated; pool continues)");
  } catch (...) {
    ++ws.task_exceptions;
    obs::MetricsRegistry::current().counter("runner.task_exception").inc();
    YS_LOG(LogLevel::kWarn, "task " + std::to_string(index) +
                                " threw a non-std exception (isolated; pool "
                                "continues)");
  }
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A contiguous block of task indices.
struct Shard {
  std::size_t begin = 0;
  std::size_t end = 0;  // exclusive
};

/// Per-worker deque of shards. The owner pops from the back (LIFO keeps
/// its working set warm); thieves pop from the front (FIFO grabs the
/// coldest block). One small mutex per deque: contention only occurs when
/// a thief visits, which the shard granularity keeps rare.
struct ShardDeque {
  std::mutex mu;
  std::vector<Shard> shards;

  bool pop_back(Shard* out) {
    std::lock_guard<std::mutex> lock(mu);
    if (shards.empty()) return false;
    *out = shards.back();
    shards.pop_back();
    return true;
  }

  bool pop_front(Shard* out) {
    std::lock_guard<std::mutex> lock(mu);
    if (shards.empty()) return false;
    *out = shards.front();
    shards.erase(shards.begin());
    return true;
  }

  std::size_t size() {
    std::lock_guard<std::mutex> lock(mu);
    return shards.size();
  }
};

/// Wall-clock-derived runner progress series. These exist so `yourstate
/// report` can chart trials/s, steals, and queue depth over a run, but
/// they are inherently not jobs-invariant (there are no steals at
/// jobs=1), so determinism digests exclude the "runner." prefix — the
/// `axis=wall` label marks them as off the virtual-time axis.
const obs::TimelineLabels& wall_labels() {
  static const obs::TimelineLabels labels{{"axis", "wall"}};
  return labels;
}

i64 wall_bucket(const obs::Timeline& tl, Clock::time_point start) {
  const i64 us = std::chrono::duration_cast<std::chrono::microseconds>(
                     Clock::now() - start)
                     .count();
  return tl.bucket_of(SimTime::from_us(us));
}

std::size_t pick_shard_size(const PoolOptions& opt, std::size_t count,
                            int jobs) {
  if (opt.shard_size > 0) return opt.shard_size;
  // Aim for ~8 shards per worker: enough imbalance absorption for grids
  // whose trials vary in cost, small enough that deque traffic stays
  // negligible next to millisecond-scale trials.
  const std::size_t target = static_cast<std::size_t>(jobs) * 8;
  return std::max<std::size_t>(1, count / std::max<std::size_t>(1, target));
}

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// Live progress line for long sweeps (PoolOptions::heartbeat_seconds).
/// A monitor thread samples a relaxed progress counter on an interval and
/// prints tasks done, rate, and ETA to stderr; `extra` (when set) appends
/// caller state such as cache hit-rates. Reads atomics only — the sweep's
/// results cannot observe it, so determinism is untouched; the stderr
/// stream itself is wall-clock-driven and outside the contract.
class Heartbeat {
 public:
  Heartbeat(const PoolOptions& opt, std::size_t count,
            const std::atomic<u64>* progress)
      : interval_(opt.heartbeat_seconds),
        extra_(opt.heartbeat_extra),
        sink_(opt.heartbeat_sink),
        quiet_(opt.heartbeat_quiet),
        count_(count),
        progress_(progress) {
    if (interval_ > 0.0 && count_ > 0) {
      monitor_ = std::thread([this] { run(); });
    }
  }

  ~Heartbeat() { stop(); }

  /// Join the monitor thread. Idempotent; run_sharded calls this as soon
  /// as the workers have drained, so no heartbeat line can interleave
  /// with anything the caller prints after the pool returns — the
  /// destructor is only the safety net for early exits.
  void stop() {
    if (!monitor_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    monitor_.join();
    std::fflush(stderr);
  }

 private:
  void run() {
    const auto start = Clock::now();
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (cv_.wait_for(lock,
                       std::chrono::duration<double>(interval_),
                       [this] { return done_; })) {
        return;  // pool drained; no trailing line after the join
      }
      const u64 done = progress_->load(std::memory_order_relaxed);
      if (sink_) sink_(done, count_);
      if (quiet_) continue;
      const double elapsed = seconds_since(start);
      const double rate = elapsed > 0.0 ? done / elapsed : 0.0;
      const double eta =
          rate > 0.0 ? (static_cast<double>(count_) - done) / rate : 0.0;
      char line[160];
      std::snprintf(line, sizeof(line),
                    "[perf] %llu/%zu trials (%.1f%%) | %.0f/s | eta %.0fs",
                    static_cast<unsigned long long>(done), count_,
                    100.0 * done / static_cast<double>(count_), rate, eta);
      std::string out = line;
      if (extra_) out += " | " + extra_();
      out += "\n";
      std::fputs(out.c_str(), stderr);
    }
  }

  const double interval_;
  const std::function<std::string()> extra_;
  const std::function<void(u64, std::size_t)> sink_;
  const bool quiet_ = false;
  const std::size_t count_;
  const std::atomic<u64>* progress_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread monitor_;
};

/// Per-worker handles for the allocator-hook sampling
/// (PoolOptions::track_allocs): nullptr when tracking is off.
struct AllocPublish {
  obs::Counter* count = nullptr;
  obs::Counter* bytes = nullptr;
};

AllocPublish resolve_alloc_counters(bool track, obs::MetricsRegistry& reg) {
  AllocPublish p;
  if (track) {
    p.count = &reg.counter("perf.alloc.count");
    p.bytes = &reg.counter("perf.alloc.bytes");
  }
  return p;
}

/// One task: phase-timed, optionally alloc-sampled, crash-isolated. The
/// alloc delta is this thread's own counters around the task, so it is
/// exact per-task churn (workers run tasks sequentially).
void exec_task(const std::function<void(std::size_t, TaskContext&)>& task,
               std::size_t index, TaskContext& ctx, WorkerStats& ws,
               const AllocPublish& alloc) {
  obs::perf::ScopedPhase phase("runner.task");
  if (alloc.count == nullptr) {
    run_isolated(task, index, ctx, ws);
    return;
  }
  const obs::perf::AllocCounters before = obs::perf::thread_alloc_counters();
  run_isolated(task, index, ctx, ws);
  const obs::perf::AllocCounters after = obs::perf::thread_alloc_counters();
  alloc.count->inc(after.count - before.count);
  alloc.bytes->inc(after.bytes - before.bytes);
}

}  // namespace

double RunnerReport::utilization(std::size_t worker) const {
  if (worker >= workers.size() || wall_seconds <= 0.0) return 0.0;
  return std::min(1.0, workers[worker].busy_seconds / wall_seconds);
}

std::string RunnerReport::to_string() const {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "runner: %llu/%llu trials in %.3f s (%.0f trials/s) on %d "
                "worker%s, %llu steals%s\n",
                static_cast<unsigned long long>(trials_executed),
                static_cast<unsigned long long>(trials),
                wall_seconds, trials_per_sec, jobs, jobs == 1 ? "" : "s",
                static_cast<unsigned long long>(steals),
                cancelled ? ", CANCELLED" : "");
  out += line;
  if (task_exceptions > 0) {
    std::snprintf(line, sizeof(line),
                  "  WARNING: %llu task%s threw (isolated; see log)\n",
                  static_cast<unsigned long long>(task_exceptions),
                  task_exceptions == 1 ? "" : "s");
    out += line;
  }
  for (std::size_t w = 0; w < workers.size(); ++w) {
    const WorkerStats& ws = workers[w];
    std::snprintf(line, sizeof(line),
                  "  worker %2zu: %6llu tasks, %4llu shards (%llu stolen), "
                  "busy %.3f s, utilization %4.1f %%\n",
                  w, static_cast<unsigned long long>(ws.tasks_executed),
                  static_cast<unsigned long long>(ws.shards_served +
                                                  ws.shards_stolen),
                  static_cast<unsigned long long>(ws.shards_stolen),
                  ws.busy_seconds, utilization(w) * 100.0);
    out += line;
  }
  return out;
}

void RunnerReport::publish(obs::MetricsRegistry& registry) const {
  registry.gauge("runner.jobs").set(static_cast<double>(jobs));
  registry.gauge("runner.wall_seconds").set(wall_seconds);
  registry.gauge("runner.trials_per_sec").set(trials_per_sec);
  registry.gauge("runner.cancelled").set(cancelled ? 1.0 : 0.0);
  registry.counter("runner.trials_total").inc(trials_executed);
  registry.counter("runner.tasks_total").inc(tasks_executed);
  registry.counter("runner.steals_total").inc(steals);
  registry.counter("runner.task_exceptions_total").inc(task_exceptions);
  registry.counter("runner.runs_total").inc();
  for (std::size_t w = 0; w < workers.size(); ++w) {
    const std::string prefix = "runner.worker." + std::to_string(w) + ".";
    registry.gauge(prefix + "utilization").set(utilization(w));
    registry.counter(prefix + "tasks").inc(workers[w].tasks_executed);
    registry.counter(prefix + "steals").inc(workers[w].shards_stolen);
  }
}

RunnerReport run_sharded(
    const PoolOptions& opt, std::size_t count,
    const std::function<void(std::size_t, TaskContext&)>& task,
    const std::atomic<u64>* trials_done, std::size_t trials) {
  RunnerReport report;
  const int jobs = resolve_jobs(opt.jobs);
  report.jobs = jobs;
  report.tasks = count;
  report.trials = count;
  const auto start = Clock::now();

  CancelToken cancel;
  std::atomic<u64> progress{0};
  // Count tasks only when the heartbeat reads them.
  const bool heartbeat_on =
      opt.heartbeat_seconds > 0.0 && trials_done == nullptr;
  Heartbeat heartbeat(opt, trials_done != nullptr ? trials : count,
                      trials_done != nullptr ? trials_done : &progress);

  if (jobs == 1 || count <= 1) {
    // Serial reference path: inline on the caller, no threads, no registry
    // scoping — instrumentation keeps hitting the caller's current()
    // registry exactly like the historical single-threaded loops.
    report.jobs = 1;
    report.workers.resize(1);
    Rng rng(Rng::mix_seed({0x72756e6e6572ULL, 0}));  // "runner"
    TaskContext ctx{0, &obs::MetricsRegistry::current(), &rng, &cancel};
    WorkerStats& ws = report.workers[0];
    const AllocPublish alloc = resolve_alloc_counters(
        opt.track_allocs, obs::MetricsRegistry::current());
    obs::Timeline* tl = obs::Timeline::current();
    for (std::size_t i = 0; i < count && !cancel.cancelled(); ++i) {
      exec_task(task, i, ctx, ws, alloc);
      ++ws.tasks_executed;
      if (heartbeat_on) progress.fetch_add(1, std::memory_order_relaxed);
      if (tl != nullptr) {
        tl->count_at("runner.tasks_done", wall_labels(),
                     wall_bucket(*tl, start));
      }
    }
    ++ws.shards_served;
    heartbeat.stop();
    report.wall_seconds = seconds_since(start);
    ws.busy_seconds = report.wall_seconds;
    report.tasks_executed = ws.tasks_executed;
    report.trials_executed = ws.tasks_executed;
    report.task_exceptions = ws.task_exceptions;
    report.cancelled = cancel.cancelled();
    report.trials_per_sec = report.wall_seconds > 0.0
                                ? report.trials_executed / report.wall_seconds
                                : 0.0;
    return report;
  }

  // Pre-shard [0, count) into blocks and deal them round-robin, so every
  // worker starts with an interleaved slice of the grid.
  const std::size_t shard_size = pick_shard_size(opt, count, jobs);
  std::vector<ShardDeque> deques(static_cast<std::size_t>(jobs));
  {
    std::size_t begin = 0;
    std::size_t next_worker = 0;
    while (begin < count) {
      const std::size_t end = std::min(count, begin + shard_size);
      deques[next_worker].shards.push_back(Shard{begin, end});
      begin = end;
      next_worker = (next_worker + 1) % static_cast<std::size_t>(jobs);
    }
    // Owners pop from the back: reverse so each worker serves its blocks
    // in ascending index order (pure aesthetics — determinism never
    // depends on it).
    for (auto& dq : deques) {
      std::reverse(dq.shards.begin(), dq.shards.end());
    }
  }

  report.workers.resize(static_cast<std::size_t>(jobs));
  std::vector<std::unique_ptr<obs::MetricsRegistry>> worker_registries;
  worker_registries.reserve(static_cast<std::size_t>(jobs));
  for (int w = 0; w < jobs; ++w) {
    worker_registries.push_back(std::make_unique<obs::MetricsRegistry>());
  }

  // When the orchestrating thread is recording a timeline, every worker
  // gets a private one (same bucket width) and the pool folds them back
  // after the join — bucket values are integers, so the fold is exact and
  // `--jobs=N` stays bit-identical on the virtual-time axis.
  obs::Timeline* parent_tl = obs::Timeline::current();
  std::vector<std::unique_ptr<obs::Timeline>> worker_timelines;
  if (parent_tl != nullptr) {
    worker_timelines.reserve(static_cast<std::size_t>(jobs));
    for (int w = 0; w < jobs; ++w) {
      worker_timelines.push_back(
          std::make_unique<obs::Timeline>(parent_tl->bucket_width()));
    }
  }

  auto worker_main = [&](int worker_id) {
    // All instrumentation on this thread — including the components'
    // obs::bind_per_thread metric caches, which rebind whenever the
    // thread's current() registry changes — lands in the worker-private
    // registry.
    obs::ScopedMetricsRegistry scope(
        worker_registries[static_cast<std::size_t>(worker_id)].get());
    obs::perf::PhaseProfiler::set_thread_label(
        "worker " + std::to_string(worker_id));
    // Resolve the alloc counters up front so the registrations land outside
    // every per-task sampling window.
    const AllocPublish alloc = resolve_alloc_counters(
        opt.track_allocs,
        *worker_registries[static_cast<std::size_t>(worker_id)]);
    Rng rng(Rng::mix_seed({0x72756e6e6572ULL, static_cast<u64>(worker_id)}));
    TaskContext ctx{worker_id,
                    worker_registries[static_cast<std::size_t>(worker_id)].get(),
                    &rng, &cancel};
    WorkerStats& ws = report.workers[static_cast<std::size_t>(worker_id)];
    ShardDeque& own = deques[static_cast<std::size_t>(worker_id)];
    obs::Timeline* tl =
        parent_tl != nullptr
            ? worker_timelines[static_cast<std::size_t>(worker_id)].get()
            : nullptr;
    std::optional<obs::ScopedTimeline> tl_scope;
    if (tl != nullptr) tl_scope.emplace(tl);

    const auto worker_start = Clock::now();
    Shard shard;
    for (;;) {
      bool have = own.pop_back(&shard);
      bool stolen = false;
      if (have) {
        ++ws.shards_served;
      } else {
        // Steal sweep: visit every other worker once, starting just past
        // ourselves so thieves fan out instead of mobbing worker 0.
        for (int hop = 1; hop < jobs && !have; ++hop) {
          const std::size_t victim = static_cast<std::size_t>(
              (worker_id + hop) % jobs);
          have = deques[victim].pop_front(&shard);
        }
        if (!have) break;  // every deque empty: the grid is drained
        ++ws.shards_stolen;
        stolen = true;
      }
      u64 executed = 0;
      for (std::size_t i = shard.begin; i < shard.end; ++i) {
        if (cancel.cancelled()) break;
        exec_task(task, i, ctx, ws, alloc);
        ++ws.tasks_executed;
        ++executed;
        if (heartbeat_on) progress.fetch_add(1, std::memory_order_relaxed);
      }
      if (tl != nullptr) {
        const i64 bucket = wall_bucket(*tl, start);
        tl->count_at("runner.tasks_done", wall_labels(), bucket,
                     static_cast<i64>(executed));
        if (stolen) tl->count_at("runner.steals", wall_labels(), bucket);
        tl->sample_at("runner.queue_depth", wall_labels(), bucket,
                      static_cast<i64>(own.size()));
      }
      if (cancel.cancelled()) break;
    }
    ws.busy_seconds = seconds_since(worker_start);
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(jobs));
  for (int w = 0; w < jobs; ++w) threads.emplace_back(worker_main, w);
  for (auto& t : threads) t.join();
  heartbeat.stop();

  report.wall_seconds = seconds_since(start);
  report.cancelled = cancel.cancelled();
  for (const WorkerStats& ws : report.workers) {
    report.tasks_executed += ws.tasks_executed;
    report.steals += ws.shards_stolen;
    report.task_exceptions += ws.task_exceptions;
  }
  report.trials_executed = report.tasks_executed;
  report.trials_per_sec = report.wall_seconds > 0.0
                              ? report.trials_executed / report.wall_seconds
                              : 0.0;

  // Deterministic fold: worker snapshots merge in worker order (the merge
  // itself is order-independent — counters add, gauges max — but a fixed
  // order keeps even pathological cases reproducible).
  obs::MetricsRegistry& target = obs::MetricsRegistry::current();
  for (const auto& reg : worker_registries) {
    target.merge_from(reg->snapshot());
  }
  if (parent_tl != nullptr) {
    for (const auto& wt : worker_timelines) {
      parent_tl->merge_from(*wt);
    }
  }
  return report;
}

}  // namespace ys::runner
