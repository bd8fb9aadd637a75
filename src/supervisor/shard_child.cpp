#include "supervisor/shard_child.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "core/rng.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "runner/results_store.h"
#include "runner/runner.h"
#include "supervisor/supervisor.h"

namespace ys::supervisor {

std::string shard_bench_name(int shard) {
  return "fleet-shard-" + std::to_string(shard);
}

u64 shard_signature(const fleet::FleetConfig& cfg, int shard, int shards) {
  return runner::ResultsStore::signature_of(
      {"fleet", cfg.signature(), "shard", std::to_string(shard), "of",
       std::to_string(shards)});
}

int run_shard_child(const FleetShardOptions& opt) {
  // The parent may die first; a heartbeat write must not kill us with
  // SIGPIPE mid-checkpoint.
  ::signal(SIGPIPE, SIG_IGN);

  const fleet::Fleet fl(opt.cfg);
  const runner::TrialGrid grid = fl.grid();
  const std::vector<ShardPartition> parts =
      partition_vantages(grid.vantages, opt.shards);
  if (opt.shard < 0 ||
      static_cast<std::size_t>(opt.shard) >= parts.size()) {
    std::fprintf(stderr, "shard %d/%d does not exist (%zu partition(s))\n",
                 opt.shard, opt.shards, parts.size());
    return 2;
  }
  const ShardPartition part = parts[static_cast<std::size_t>(opt.shard)];

  runner::ResultsStore store(opt.resume_dir, shard_bench_name(opt.shard),
                             shard_signature(opt.cfg, opt.shard, opt.shards),
                             grid.total());
  if (store.conflict()) {
    std::fprintf(stderr,
                 "shard %d: %s is owned by live pid %ld — two sweeps may "
                 "not share a resume dir\n",
                 opt.shard, store.path().c_str(), store.conflict_pid());
    return 3;
  }

  // Self-inflicted chaos: only clauses for this shard, and only while the
  // attempt is inside the clause's budget. Seeded trigger points keep the
  // recovery path a pure function of the sweep seed.
  bool kill_active = false, stall_active = false;
  u64 kill_after = 0, stall_after = 0;
  double hb_factor = 1.0;
  const std::size_t shard_flows =
      (part.vantage_end - part.vantage_begin) * grid.trials;
  for (const faults::ShardChaos& sc : opt.chaos.shard_chaos) {
    if (sc.shard != opt.shard || opt.attempt >= sc.attempts) continue;
    const u64 after =
        sc.after >= 0
            ? static_cast<u64>(sc.after)
            : 1 + Rng::mix_seed({opt.cfg.seed, 0x5EEDULL,
                                 static_cast<u64>(opt.shard),
                                 static_cast<u64>(opt.attempt)}) %
                      std::max<u64>(1, shard_flows / 2);
    switch (sc.kind) {
      case faults::ShardChaos::Kind::kKill:
        kill_active = true;
        kill_after = after;
        break;
      case faults::ShardChaos::Kind::kStall:
        stall_active = true;
        stall_after = after;
        break;
      case faults::ShardChaos::Kind::kSlowHeartbeat:
        hb_factor *= sc.factor > 0 ? sc.factor : 1.0;
        break;
    }
  }

  std::atomic<u64> flows_done{0};
  std::atomic<bool> stalled{false};
  auto write_hb = [&](u64 done, std::size_t total) {
    if (opt.status_fd < 0) return;
    if (stalled.load(std::memory_order_relaxed)) return;  // play dead
    char line[64];
    const int n =
        std::snprintf(line, sizeof(line), "HB %llu %zu\n",
                      static_cast<unsigned long long>(done), total);
    if (n > 0) {
      const ssize_t w = ::write(opt.status_fd, line, static_cast<size_t>(n));
      (void)w;
    }
  };

  runner::PoolOptions pool;
  pool.jobs = opt.jobs;
  pool.heartbeat_seconds =
      opt.heartbeat_seconds > 0 ? opt.heartbeat_seconds * hb_factor : 0.0;
  pool.heartbeat_quiet = true;
  pool.heartbeat_sink = write_hb;

  write_hb(0, shard_flows);

  (void)fl.sweep(
      pool, &store, {part.vantage_begin, part.vantage_end}, [&](std::size_t) {
        // Chaos triggers fire only after the slot is flushed, so the
        // checkpoint the restart resumes from is always line-complete.
        const u64 n = flows_done.fetch_add(1, std::memory_order_relaxed) + 1;
        if (kill_active && n == kill_after) {
          ::kill(::getpid(), SIGKILL);
        }
        if (stall_active && n == stall_after) {
          stalled.store(true, std::memory_order_relaxed);
          for (;;) ::sleep(3600);  // wedge until the supervisor SIGKILLs us
        }
      });

  write_hb(shard_flows, shard_flows);
  return 0;
}

ShardMerge merge_shard_stores(const fleet::Fleet& fl,
                              const std::string& resume_dir, int shards) {
  const runner::TrialGrid grid = fl.grid();
  const std::vector<ShardPartition> parts =
      partition_vantages(grid.vantages, shards);
  ShardMerge merge;
  merge.slots.assign(grid.total(), static_cast<i64>(-1));
  merge.missing_per_shard.assign(parts.size(), 0);
  for (const ShardPartition& part : parts) {
    // Read-only: the shards own their lockfiles; the merge never writes.
    runner::ResultsStore ro(resume_dir, shard_bench_name(part.shard),
                            shard_signature(fl.config(), part.shard, shards),
                            grid.total(),
                            runner::ResultsStore::Mode::kReadOnly);
    for (const auto& [slot, value] : ro.entries()) {
      if (slot < merge.slots.size()) merge.slots[slot] = value;
    }
    for (std::size_t s = part.vantage_begin * grid.trials;
         s < part.vantage_end * grid.trials; ++s) {
      if (merge.slots[s] < 0) {
        ++merge.missing_per_shard[static_cast<std::size_t>(part.shard)];
        ++merge.missing;
      }
    }
  }
  return merge;
}

void annotate_coverage(const ShardMerge& merge, obs::Timeline* tl) {
  if (tl == nullptr || merge.missing == 0) return;
  char text[128];
  std::snprintf(text, sizeof(text),
                "partial coverage: %zu/%zu flows recorded (%zu missing)",
                merge.slots.size() - merge.missing, merge.slots.size(),
                merge.missing);
  tl->annotate_bucket(0, "coverage", text);
}

}  // namespace ys::supervisor
