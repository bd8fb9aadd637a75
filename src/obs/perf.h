// ys::obs::perf — performance telemetry: machine-readable bench reports,
// regression diffing, and the glue that turns a metrics snapshot into a
// perf trajectory the repo can track across commits.
//
// The centerpiece is BenchReport, a versioned JSON document every bench
// binary can emit via --report=<file.json> (bench/bench_common.h wires the
// flag). A report captures:
//
//   * an environment fingerprint (OS, compiler, build flavor, sanitizers,
//     hardware concurrency) so a diff can warn when two reports were not
//     measured on comparable setups;
//   * the bench configuration (seed, jobs, trials, servers, ...);
//   * wall time and a flat `metrics` map of named scalar results, each
//     tagged with a unit and a direction (higher-better / lower-better /
//     informational) — the diffable surface;
//   * per-phase wall-time totals from the PhaseProfiler (obs/
//     phase_profiler.h);
//   * the full merged metrics snapshot, for forensic drill-down.
//
// diff_reports() compares two reports metric-by-metric with a relative
// tolerance band and renders the regression table behind
// `yourstate perf --diff old.json new.json [--check]`. The committed
// baseline (BENCH_fleet.json at the repo root) plus the
// bench_fleet_perf_check ctest gate give the zero-copy-arena work on the
// ROADMAP its required before/after trajectory.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace ys::obs::perf {

/// Which way a metric is allowed to move before the diff calls it a
/// regression.
enum class Direction {
  kHigherIsBetter,  // throughput-style (flows/s, speedup)
  kLowerIsBetter,   // cost-style (wall seconds, allocs/flow)
  kInfo,            // recorded and diffed for display, never gated
};

struct MetricValue {
  double value = 0.0;
  std::string unit;  // "flows/s", "s", "allocs", ... (display only)
  Direction direction = Direction::kInfo;
};

/// One phase's aggregate across all threads (see obs/phase_profiler.h).
struct PhaseTotal {
  std::string name;
  u64 count = 0;
  double wall_us = 0.0;
};

/// Versioned machine-readable bench result. `schema` bumps on any
/// incompatible layout change; from_json rejects documents from the
/// future so a stale binary never silently misreads a newer report.
struct BenchReport {
  static constexpr int kSchema = 1;

  int schema = kSchema;
  std::string name;                          // "fleet", "table1", ...
  std::map<std::string, std::string> env;    // environment fingerprint
  std::map<std::string, double> config;      // seed, jobs, trials, ...
  double wall_seconds = 0.0;                 // measured-section wall time
  std::map<std::string, MetricValue> metrics;
  std::vector<PhaseTotal> phases;            // name-sorted on emission
  Snapshot snapshot;                         // full merged metrics

  std::string to_json() const;

  /// Parse a report; std::nullopt (and a message in *error) on syntax or
  /// schema problems.
  static std::optional<BenchReport> from_json(const std::string& text,
                                              std::string* error);

  bool write(const std::string& path) const;
  static std::optional<BenchReport> load(const std::string& path,
                                         std::string* error);
};

/// A report skeleton with the environment fingerprint filled in.
BenchReport make_report(const std::string& name);

// ------------------------------------------------------------------ diff

enum class DiffStatus {
  kOk,          // within the tolerance band
  kImproved,    // moved beyond tolerance in the good direction
  kRegressed,   // moved beyond tolerance in the bad direction
  kInfo,        // informational metric, never gated
  kMissingOld,  // only the new report has it (not a failure)
  kMissingNew,  // the new report dropped it (a failure under --check)
};

const char* to_string(DiffStatus s);

struct DiffRow {
  std::string metric;
  std::string unit;
  Direction direction = Direction::kInfo;
  double old_value = 0.0;
  double new_value = 0.0;
  /// Relative change (new - old) / |old|; 0 when old == 0.
  double delta = 0.0;
  /// The tolerance band this row was gated against (per-metric override or
  /// the global value; 0 for rows that were never gated).
  double tolerance = 0.0;
  DiffStatus status = DiffStatus::kOk;
};

struct DiffResult {
  std::vector<DiffRow> rows;  // name-sorted
  int regressions = 0;        // kRegressed + kMissingNew
  int improvements = 0;
  /// Environment keys whose values differ between the two reports —
  /// printed as a caveat, since cross-machine wall-time comparisons are
  /// only indicative.
  std::vector<std::string> env_mismatches;

  /// Aligned regression table plus the env caveat, ready to print.
  std::string render() const;
  /// Machine-readable form of the same table (`yourstate perf --diff
  /// --json`): rows with metric/unit/direction/old/new/delta/tolerance/
  /// status, plus the summary counts — for CI dashboards that track the
  /// regression table across commits.
  std::string to_json() const;
  bool ok() const { return regressions == 0; }
};

/// Compare two reports' metric maps. `tolerance` is the allowed relative
/// worsening (0.10 = 10%): a gated metric regresses when it moves more
/// than that in its bad direction, improves when it moves more than that
/// in its good direction, and is kOk in between. Gated metrics present in
/// `old_report` but absent from `new_report` count as regressions.
/// `tolerance_overrides` tightens (or loosens) the band per metric name —
/// deterministic metrics (e.g. the fleet bench's allocs_per_trial) can be
/// gated near-exactly while wall-clock metrics keep a generous band.
DiffResult diff_reports(const BenchReport& old_report,
                        const BenchReport& new_report, double tolerance,
                        const std::map<std::string, double>& tolerance_overrides);
DiffResult diff_reports(const BenchReport& old_report,
                        const BenchReport& new_report, double tolerance);

}  // namespace ys::obs::perf
