// ys::obs::perf — deterministic phase profiler.
//
// Scoped wall-clock timers aggregated *per phase name, per thread*: each
// thread owns a private accumulation table (no locks on the hot path —
// the global registry mutex is only taken once per thread, at first use),
// and snapshots merge the tables after workers have joined. "Deterministic"
// here means the profiler never perturbs results: it reads the clock and
// bumps thread-private integers, nothing a trial's outcome can observe.
//
// Granularity: flow/trial-level phases (scenario construction, trial
// execution, a fleet flow), not per-packet — two steady_clock reads per
// phase are ~50 ns against millisecond trials, comfortably inside the obs
// layer's <5% overhead budget (bench_obs_overhead gates it).
//
// The per-thread tables become:
//   * per-phase wall totals in every BenchReport ("phases"),
//   * a Chrome-trace "flamegraph" track per runner worker
//     (write_phase_trace, --phase-trace=FILE on every bench) that renders
//     alongside the causal trace in chrome://tracing / Perfetto.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "core/types.h"

namespace ys::obs::perf {

struct PhaseAgg {
  u64 count = 0;
  u64 wall_ns = 0;
};

/// Aggregated phases of one thread (label set via set_thread_label; the
/// runner labels its workers "worker N", everything else is "main").
struct ThreadPhases {
  std::string label;
  std::map<std::string, PhaseAgg> phases;
};

class PhaseProfiler {
 public:
  /// Runtime kill switch (on by default); record() becomes a no-op when
  /// off. Like the metrics switch, flip only from the orchestrating
  /// thread while no workers run.
  static bool enabled();
  static void set_enabled(bool on);

  /// Add one timed section to this thread's table. `name` must be a
  /// literal or otherwise outlive the process (tables key the pointer's
  /// characters, copied on first use per thread).
  static void record(const char* name, u64 wall_ns);

  /// Label this thread's table in per-thread exports ("worker 3").
  static void set_thread_label(const std::string& label);

  /// Merged view across every thread that ever recorded (phase name ->
  /// totals). Call after worker threads have joined — per-thread tables
  /// are owner-written without synchronization.
  static std::map<std::string, PhaseAgg> snapshot();

  /// Per-thread tables (label order: registration order). Same join
  /// caveat as snapshot().
  static std::vector<ThreadPhases> by_thread();

  /// Zero every table (between bench sections). Registrations survive.
  static void reset();
};

/// Drop this thread's phase records while alive (nests). Re-runs of work
/// that was already counted, like flight-recorder replays, wrap
/// themselves in one so their phases do not count twice.
class ScopedPhasesOff {
 public:
  ScopedPhasesOff();
  ~ScopedPhasesOff();

  ScopedPhasesOff(const ScopedPhasesOff&) = delete;
  ScopedPhasesOff& operator=(const ScopedPhasesOff&) = delete;
};

/// RAII phase timer.
class ScopedPhase {
 public:
  explicit ScopedPhase(const char* name)
      : name_(name), start_(std::chrono::steady_clock::now()) {}
  ~ScopedPhase() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    PhaseProfiler::record(name_, static_cast<u64>(ns));
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  const char* name_;
  std::chrono::steady_clock::time_point start_;
};

/// Write every thread's phase table as Chrome trace-event JSON: one
/// synthetic track (tid) per thread, phases laid end-to-end as complete
/// ("X") events — a flamegraph-style summary, not a timeline.
bool write_phase_trace(const std::string& path);

}  // namespace ys::obs::perf
