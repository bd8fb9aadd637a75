// ys::runner — fixed-size worker pool with a work-stealing shard queue.
//
// The execution substrate for paper-scale trial grids: `count` tasks,
// identified only by their index, are pre-sharded into contiguous blocks,
// dealt round-robin onto per-worker deques, and executed by `jobs` threads.
// A worker serves its own deque from the back; when empty it steals a
// whole shard from the front of a victim's deque (classic owner-LIFO /
// thief-FIFO, so steals grab the coldest blocks).
//
// Determinism contract: the pool guarantees each index in [0, count) is
// executed exactly once, on exactly one worker, but promises nothing about
// order or placement. Callers make results order-independent by deriving
// every random draw from the task index (never from execution order) and
// writing into a pre-sized slot array — see runner.h for the grid layer
// that packages this pattern.
//
// Metrics isolation: every worker thread owns a private
// obs::MetricsRegistry installed as the thread's ScopedMetricsRegistry, so
// per-packet instrumentation in gfw/tcpstack/netsim/intang lands in
// worker-private storage with zero synchronization. After the join, worker
// snapshots are merged (in worker order) into the orchestrating thread's
// current() registry. With jobs == 1 no threads are spawned and no scoping
// happens: tasks run inline on the caller, byte-for-byte the legacy serial
// path.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/types.h"

namespace ys::obs {
class MetricsRegistry;
}

namespace ys::runner {

struct PoolOptions {
  /// Worker threads. 1 runs inline on the caller (exact serial reference);
  /// 0 resolves to the hardware concurrency.
  int jobs = 1;
  /// Tasks per shard; 0 picks a size that gives each worker several shards
  /// to serve and others something worth stealing.
  std::size_t shard_size = 0;
  /// Live progress heartbeat for long sweeps: every `heartbeat_seconds` a
  /// monitor thread prints tasks done, rate, and ETA to stderr. 0 (the
  /// default) disables it. The heartbeat only reads a relaxed progress
  /// counter and writes stderr — results and merged metrics stay
  /// bit-identical, but its output is wall-clock-driven and therefore
  /// excluded from the determinism contract.
  double heartbeat_seconds = 0.0;
  /// Optional extra heartbeat payload (cache hit-rate, per-phase flow
  /// counts, ...). Called from the monitor thread, so it must only read
  /// atomics or otherwise thread-safe state.
  std::function<std::string()> heartbeat_extra;
  /// Structured heartbeat consumer, fired on the same cadence as the
  /// stderr line with (done, total) in tasks, or in trials under
  /// run_grid. Shard children use this to feed the supervisor's pipe
  /// protocol. Called from the monitor thread — same thread-safety rules
  /// as heartbeat_extra.
  std::function<void(u64, std::size_t)> heartbeat_sink;
  /// Suppress the human-readable stderr heartbeat line (the sink still
  /// fires). Shard children run quiet so N children don't interleave
  /// progress lines on the parent's terminal.
  bool heartbeat_quiet = false;
  /// Sample the counting-allocator hook (obs/alloc_hook.h) around every
  /// task and publish per-task deltas as `perf.alloc.count` /
  /// `perf.alloc.bytes` counters — the heap-churn trajectory the
  /// zero-copy arena work tracks. Off by default: totals include one-time
  /// per-worker setup allocations and thus vary slightly with --jobs=N,
  /// so determinism digests must exclude perf.alloc.* when this is on.
  bool track_allocs = false;
};

/// Cooperative early-stop: any task may cancel; workers finish the task in
/// flight and drain without starting new ones.
class CancelToken {
 public:
  void cancel() { flag_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> flag_{false};
};

/// Handed to every task invocation.
struct TaskContext {
  int worker_id = 0;
  /// The worker's private registry (the caller's current() when jobs==1).
  /// Tasks normally never need it — instrumentation reaches it implicitly
  /// through MetricsRegistry::current() — but it is here for direct use.
  obs::MetricsRegistry* metrics = nullptr;
  /// Worker-private stream for scheduling-level draws only (e.g. victim
  /// selection). NEVER use it for anything that feeds a result: trial
  /// randomness must derive from grid coordinates to stay deterministic.
  Rng* rng = nullptr;
  CancelToken* cancel = nullptr;
};

struct WorkerStats {
  u64 tasks_executed = 0;
  u64 task_exceptions = 0;  // tasks that threw (isolated, pool survived)
  u64 shards_served = 0;   // shards taken from the worker's own deque
  u64 shards_stolen = 0;   // shards this worker stole from a victim
  double busy_seconds = 0.0;
};

struct RunnerReport {
  int jobs = 1;
  u64 tasks = 0;           // scheduled
  u64 tasks_executed = 0;  // < tasks only after cancellation
  u64 trials = 0;          // scheduled trials (grid layer; == tasks for raw pools)
  u64 trials_executed = 0;
  u64 steals = 0;          // total successful steal operations
  /// Tasks that threw. The pool catches per task (crash isolation): the
  /// exception is counted and logged, the worker moves on, and the slot the
  /// task owned keeps whatever value the caller pre-filled.
  u64 task_exceptions = 0;
  bool cancelled = false;
  double wall_seconds = 0.0;
  double trials_per_sec = 0.0;
  std::vector<WorkerStats> workers;

  /// busy/wall share for one worker, in [0, 1].
  double utilization(std::size_t worker) const;

  /// Human-readable multi-line summary (the "runner report").
  std::string to_string() const;

  /// Export through the obs registry: per-run values as `runner.*` gauges
  /// (overwritten each run) and cumulative `runner.*_total` counters, so
  /// the report rides along in every JSON/table metrics snapshot.
  void publish(obs::MetricsRegistry& registry) const;
};

/// Execute tasks [0, count) across the pool; blocks until every task ran
/// (or cancellation drained the queues). `task` may run on any worker
/// thread, for any index, in any order — see the determinism contract
/// above. The heartbeat counts tasks unless the caller passes its own
/// relaxed `trials_done` counter and `trials` total (run_grid's chained
/// grids run one task per chain but report progress in trials).
RunnerReport run_sharded(const PoolOptions& opt, std::size_t count,
                         const std::function<void(std::size_t, TaskContext&)>& task,
                         const std::atomic<u64>* trials_done = nullptr,
                         std::size_t trials = 0);

}  // namespace ys::runner
