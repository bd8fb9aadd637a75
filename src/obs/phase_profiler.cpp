#include "obs/phase_profiler.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

namespace ys::obs::perf {

namespace {

std::atomic<bool> g_phases_enabled{true};
thread_local int t_phases_off = 0;  // live ScopedPhasesOff on this thread

/// Global registry of per-thread tables. Threads come and go (the runner
/// spawns fresh workers every run), so the registry holds shared_ptrs that
/// outlive their owning threads; tables are merged by label at snapshot
/// time. Guarded by g_tables_mu for registration and snapshotting; the
/// owning thread mutates its table without the lock (snapshots promise to
/// run only after workers joined).
std::mutex g_tables_mu;
std::vector<std::shared_ptr<ThreadPhases>>& tables() {
  static auto* t = new std::vector<std::shared_ptr<ThreadPhases>>();
  return *t;
}

ThreadPhases& local_table() {
  thread_local std::shared_ptr<ThreadPhases> table = [] {
    auto t = std::make_shared<ThreadPhases>();
    t->label = "main";
    std::lock_guard<std::mutex> lock(g_tables_mu);
    tables().push_back(t);
    return t;
  }();
  return *table;
}

}  // namespace

bool PhaseProfiler::enabled() {
  return g_phases_enabled.load(std::memory_order_relaxed);
}

void PhaseProfiler::set_enabled(bool on) {
  g_phases_enabled.store(on, std::memory_order_relaxed);
}

void PhaseProfiler::record(const char* name, u64 wall_ns) {
  if (!enabled() || t_phases_off > 0) return;
  PhaseAgg& agg = local_table().phases[name];
  ++agg.count;
  agg.wall_ns += wall_ns;
}

void PhaseProfiler::set_thread_label(const std::string& label) {
  local_table().label = label;
}

std::map<std::string, PhaseAgg> PhaseProfiler::snapshot() {
  std::map<std::string, PhaseAgg> merged;
  std::lock_guard<std::mutex> lock(g_tables_mu);
  for (const auto& table : tables()) {
    for (const auto& [name, agg] : table->phases) {
      PhaseAgg& m = merged[name];
      m.count += agg.count;
      m.wall_ns += agg.wall_ns;
    }
  }
  return merged;
}

std::vector<ThreadPhases> PhaseProfiler::by_thread() {
  std::vector<ThreadPhases> out;
  std::lock_guard<std::mutex> lock(g_tables_mu);
  out.reserve(tables().size());
  for (const auto& table : tables()) {
    if (!table->phases.empty()) out.push_back(*table);
  }
  return out;
}

void PhaseProfiler::reset() {
  std::lock_guard<std::mutex> lock(g_tables_mu);
  for (const auto& table : tables()) table->phases.clear();
}

ScopedPhasesOff::ScopedPhasesOff() { ++t_phases_off; }
ScopedPhasesOff::~ScopedPhasesOff() { --t_phases_off; }

bool write_phase_trace(const std::string& path) {
  const std::vector<ThreadPhases> threads = PhaseProfiler::by_thread();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  int tid = 0;
  for (const ThreadPhases& t : threads) {
    std::fprintf(f,
                 "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %d, \"args\": {\"name\": \"%s\"}}",
                 first ? "" : ",\n", tid, t.label.c_str());
    first = false;
    double at_us = 0.0;
    for (const auto& [name, agg] : t.phases) {
      const double dur_us = static_cast<double>(agg.wall_ns) / 1000.0;
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"count\": %llu}}",
                   name.c_str(), tid, at_us, dur_us,
                   static_cast<unsigned long long>(agg.count));
      at_us += dur_us;
    }
    ++tid;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace ys::obs::perf
