// Flight recorder: deterministic post-hoc tracing of anomalous trials.
//
// Paper-scale grids run untraced (tracing costs strings and allocation on
// every packet). When a cell's aggregate success rate lands outside the
// bench-declared paper-expected band — or a caller flags an individual
// trial — the recorder re-runs the trial WITH tracing and archives the
// causal trace (Chrome trace JSON) plus a pcap of the client's wire, named
// by grid coordinates. Because every trial's seed is a pure function of its
// grid coordinates, the traced re-run reproduces the anomalous execution
// exactly; nothing about the original run needs to be kept.
//
// This layer is deliberately netsim-free: the bench supplies a ReplayFn
// that knows how to rebuild and re-run one coordinate; the recorder only
// decides *what* to replay and names the artifacts.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "runner/runner.h"

namespace ys::runner {

/// Paper-expected success band for one bench cell, as fractions in [0, 1].
struct AnomalyBand {
  double success_min = 0.0;
  double success_max = 1.0;

  bool contains(double success_rate) const {
    return success_rate >= success_min && success_rate <= success_max;
  }
};

struct FlightRecorderOptions {
  /// Directory for the archived artifacts (created if missing). Empty
  /// disables the recorder entirely.
  std::string dir;
  /// Bench name prefixed to every artifact file.
  std::string bench;
  /// Cap on archived trials per recorder (a runaway band should not fill
  /// the disk with thousands of near-identical traces).
  std::size_t max_archives = 8;
};

/// Re-run coordinate `c` traced, writing artifacts to the given paths.
/// Returns a one-line human summary (the verdict attribution) for the
/// recorder's report.
using ReplayFn = std::function<std::string(
    const GridCoord& c, const std::string& trace_path,
    const std::string& pcap_path)>;

class FlightRecorder {
 public:
  FlightRecorder(FlightRecorderOptions opt, ReplayFn replay);

  bool enabled() const { return !opt_.dir.empty(); }

  /// Check one cell's aggregate against its band; on violation, archive a
  /// representative trial (`example` — typically the cell's first failing
  /// coordinate). Returns true if the cell was anomalous.
  bool check_band(const std::string& cell_label, const AnomalyBand& band,
                  double success_rate, const GridCoord& example);

  /// Unconditionally archive one trial (caller saw something unexpected,
  /// e.g. an impossible failure class). The replay runs under a scratch
  /// metrics registry with no timeline: only
  /// runner.flight_recorder.archived reaches the caller's telemetry.
  void record(const GridCoord& c, const std::string& why);

  struct Archive {
    GridCoord coord;
    std::string why;
    std::string trace_path;
    std::string pcap_path;
    std::string summary;  // the replay's verdict line
  };
  const std::vector<Archive>& archives() const { return archives_; }

  /// Multi-line human report of everything archived (empty string when
  /// nothing was).
  std::string report() const;

 private:
  std::string artifact_stem(const GridCoord& c) const;

  FlightRecorderOptions opt_;
  ReplayFn replay_;
  std::vector<Archive> archives_;
  bool dir_ready_ = false;
};

}  // namespace ys::runner
