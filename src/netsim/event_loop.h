// Discrete-event scheduler driving all simulations on virtual time.
#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/clock.h"
#include "core/log.h"
#include "core/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ys::net {

/// What one `run`/`run_until` call did. `hit_max_events` disambiguates
/// "queue drained" from "the livelock guard tripped" — the raw executed
/// count alone cannot (executed == max_events can be either). Converts to
/// the executed count so historical `std::size_t n = loop.run()` callers
/// keep compiling.
struct RunResult {
  std::size_t executed = 0;
  bool hit_max_events = false;

  operator std::size_t() const { return executed; }
};

/// Min-heap event loop. Events scheduled for the same instant run in
/// scheduling order (a monotonically increasing tiebreaker guarantees
/// determinism). The heap is a plain vector: events are moved in and moved
/// out, never copied, and a closure of at most 16 trivially-copyable bytes
/// (what the path schedules per hop) lives inside its std::function, so a
/// warmed loop schedules and runs such events without touching the heap
/// allocator.
class EventLoop {
 public:
  using Action = std::function<void()>;

  SimTime now() const { return clock_.now(); }
  const VirtualClock& clock() const { return clock_; }

  /// Move the clock to `t` before any event runs. Fleet sweeps use this to
  /// multiplex many flows over one shared virtual timeline: each flow's
  /// scenario starts at its arrival time, so TTL-bearing state (selector
  /// records, block periods) ages consistently across the whole sweep.
  /// Monotonic like everything else on the clock; a no-op for t <= now().
  void start_at(SimTime t) { clock_.advance_to(t); }

  void schedule_at(SimTime when, Action action) {
    queue_.push_back(Event{when, next_seq_++, std::move(action)});
    std::push_heap(queue_.begin(), queue_.end(), Later{});
    metrics().queue_depth_hwm.max_of(static_cast<double>(queue_.size()));
  }

  void schedule_after(SimTime delay, Action action) {
    schedule_at(now() + delay, std::move(action));
  }

  /// Run until the queue drains or `max_events` fire (a bound guards
  /// against accidental livelock in tests).
  RunResult run(std::size_t max_events = 1'000'000) {
    RunResult result;
    while (!queue_.empty() && result.executed < max_events) {
      run_next();
      ++result.executed;
    }
    finish_run(result, !queue_.empty());
    return result;
  }

  /// Run events with timestamps <= deadline, then set the clock there.
  RunResult run_until(SimTime deadline, std::size_t max_events = 1'000'000) {
    RunResult result;
    while (!queue_.empty() && queue_.front().when <= deadline &&
           result.executed < max_events) {
      run_next();
      ++result.executed;
    }
    finish_run(result, !queue_.empty() && queue_.front().when <= deadline);
    clock_.advance_to(deadline);
    return result;
  }

  bool idle() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }

  /// Attach a trace recorder; the loop annotates anomalies (today: the
  /// livelock guard tripping) as kNote events so they show up in replays.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

 private:
  struct LoopMetrics {
    obs::Counter& events_executed;
    obs::Counter& runs;
    obs::Counter& max_events_hits;
    obs::Gauge& queue_depth_hwm;
    obs::Gauge& max_events_hit;  // 1 while any run this trial tripped
  };

  /// One name-lookup per (thread, registry); every loop instance on a
  /// thread shares the metrics (they aggregate across trials until
  /// reset_all()). The cache resolves through current() and rebinds on
  /// registry change, so runner workers write their private registries,
  /// not the global one.
  static LoopMetrics& metrics() {
    return obs::bind_per_thread<LoopMetrics>([](obs::MetricsRegistry& reg) {
      return LoopMetrics{reg.counter("loop.events_executed"),
                         reg.counter("loop.runs"),
                         reg.counter("loop.max_events_hits"),
                         reg.gauge("loop.queue_depth_hwm"),
                         reg.gauge("loop.max_events_hit")};
    });
  }

  void finish_run(RunResult& result, bool more_work_pending) {
    result.hit_max_events = more_work_pending;
    LoopMetrics& m = metrics();
    m.runs.inc();
    m.events_executed.inc(result.executed);
    if (result.hit_max_events) {
      m.max_events_hits.inc();
      m.max_events_hit.set(1.0);
      const std::string msg =
          "event loop stopped at the max_events bound after " +
          std::to_string(result.executed) + " events with " +
          std::to_string(queue_.size()) + " still pending (possible livelock)";
      YS_LOG(LogLevel::kWarn, msg);
      if (trace_ != nullptr) {
        trace_->note(now(), "loop", obs::TraceKind::kNote, msg);
      }
    }
  }
  struct Event {
    SimTime when;
    u64 seq;
    Action action;
  };

  /// Heap order: the earliest (when, seq) sits at the front.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return b.when < a.when;
      return a.seq > b.seq;
    }
  };

  /// Pop the earliest event, advance the clock to it and run it. The event
  /// is moved out before it runs, so its action may schedule more events.
  void run_next() {
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    Event ev = std::move(queue_.back());
    queue_.pop_back();
    clock_.advance_to(ev.when);
    ev.action();
  }

  VirtualClock clock_;
  u64 next_seq_ = 0;
  obs::TraceRecorder* trace_ = nullptr;
  std::vector<Event> queue_;  // binary heap ordered by Later
};

}  // namespace ys::net
