#include "runner/flight_recorder.h"

#include <exception>
#include <filesystem>
#include <system_error>
#include <thread>

#include "core/log.h"
#include "obs/metrics.h"
#include "obs/phase_profiler.h"
#include "obs/timeline.h"

namespace ys::runner {

FlightRecorder::FlightRecorder(FlightRecorderOptions opt, ReplayFn replay)
    : opt_(std::move(opt)), replay_(std::move(replay)) {}

std::string FlightRecorder::artifact_stem(const GridCoord& c) const {
  return opt_.dir + "/" + opt_.bench + "-c" + std::to_string(c.cell) + "-v" +
         std::to_string(c.vantage) + "-s" + std::to_string(c.server) + "-t" +
         std::to_string(c.trial);
}

bool FlightRecorder::check_band(const std::string& cell_label,
                                const AnomalyBand& band, double success_rate,
                                const GridCoord& example) {
  if (band.contains(success_rate)) return false;
  if (enabled()) {
    record(example,
           cell_label + ": success rate " + std::to_string(success_rate) +
               " outside the paper-expected band [" +
               std::to_string(band.success_min) + ", " +
               std::to_string(band.success_max) + "]");
  }
  return true;
}

void FlightRecorder::record(const GridCoord& c, const std::string& why) {
  if (!enabled() || archives_.size() >= opt_.max_archives) return;
  if (!dir_ready_) {
    std::error_code ec;
    std::filesystem::create_directories(opt_.dir, ec);
    if (ec) {
      YS_LOG(LogLevel::kWarn, "flight recorder: cannot create " + opt_.dir +
                                  ": " + ec.message());
      return;
    }
    dir_ready_ = true;
  }

  Archive archive;
  archive.coord = c;
  archive.why = why;
  const std::string stem = artifact_stem(c);
  archive.trace_path = stem + ".trace.json";
  archive.pcap_path = stem + ".pcap";
  // The replay re-runs grid trials (a chained coordinate's prefix too):
  // its counters, timeline series and phases must not count as the
  // bench's. It runs on a thread of its own, so it also leaves this
  // thread's per-thread metric bindings and allocation counters alone: the
  // bench's next trial neither rebinds nor counts the replay's churn.
  std::exception_ptr error;
  std::thread([&] {
    obs::MetricsRegistry scratch;
    obs::ScopedMetricsRegistry metrics_scope(&scratch);
    obs::ScopedTimeline timeline_scope(nullptr);
    obs::perf::ScopedPhasesOff phases_off;
    try {
      archive.summary = replay_(c, archive.trace_path, archive.pcap_path);
    } catch (...) {
      error = std::current_exception();
    }
  }).join();
  if (error) std::rethrow_exception(error);
  obs::MetricsRegistry::current()
      .counter("runner.flight_recorder.archived")
      .inc();
  archives_.push_back(std::move(archive));
}

std::string FlightRecorder::report() const {
  if (archives_.empty()) return {};
  std::string out = "flight recorder: " + std::to_string(archives_.size()) +
                    " anomalous trial(s) archived to " + opt_.dir + "\n";
  for (const Archive& a : archives_) {
    out += "  " + a.why + "\n";
    out += "    trace: " + a.trace_path + "\n";
    out += "    pcap:  " + a.pcap_path + "\n";
    if (!a.summary.empty()) out += "    " + a.summary + "\n";
  }
  return out;
}

}  // namespace ys::runner
