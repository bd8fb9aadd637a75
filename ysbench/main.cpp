// ysbench — the repository benchmark driver.
//
//   ysbench_driver --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics: set-up time, then closed-loop
// sweeps of the workload for S seconds, every trial timed on the CPU
// clock. --trace 1 runs one sweep plus the per-layer ledger (ledger.h).
// Both modes gate the outputs (slots, paper cells and deterministic
// counters) against the golden digest committed in golden.json (path
// compiled in as YSB_GOLDEN) when it has one for the seed, and against
// the run's own first sweep always. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
// Exit status: 0 ok, 1 output gate failed, 2 usage, 3 refused build.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/json.h"
#include "ledger.h"
#include "obs/alloc_hook.h"
#include "obs/perf.h"
#include "workloads.h"

namespace ysbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string val;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      val = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      val = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = *end == '\0' && !val.empty();
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1";
    } else {
      return false;
    }
  }
  return have_workload && have_seed;
}

/// Refuse builds whose numbers would mislead: unoptimised code, or a
/// sanitizer build, where the allocation hook is compiled out and
/// allocs_per_trial would read 0.
std::string build_refusal() {
#if !defined(__OPTIMIZE__)
  return "unoptimised build (compile with optimisation, e.g. Release)";
#endif
  const auto env = ys::obs::perf::make_report("ysbench").env;
  if (const auto it = env.find("sanitizer");
      it != env.end() && it->second != "none") {
    return "sanitizer build (" + it->second + ")";
  }
  if (env.at("obs") != "enabled") return "metrics compiled out";
  if (!ys::obs::perf::alloc_hook_available()) {
    return "allocation hook unavailable (allocs_per_trial would read 0)";
  }
  return {};
}

void print_env() {
  const auto env = ys::obs::perf::make_report("ysbench").env;
  std::printf("env:");
  for (const auto& [k, v] : env) std::printf(" %s=%s", k.c_str(), v.c_str());
  std::printf(" build_type=%s nproc=%u\n", YSB_BUILD_TYPE,
              std::thread::hardware_concurrency());
}

u64 fnv1a(const std::string& text, u64 h = 0xcbf29ce484222325ULL) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Digest of what the output gate locks: the workload's result text plus
/// the deterministic counters and virtual-time histograms of the fleet,
/// exp, gfw, tcpstack and netsim layers (wall-clock series excluded).
std::string output_digest(const Sweep& s) {
  static const char* const kFamilies[] = {"fleet.", "exp.", "gfw.",
                                          "tcpstack.", "netsim."};
  const auto locked = [](const std::string& name) {
    if (name.find("wall") != std::string::npos) return false;
    for (const char* f : kFamilies) {
      if (name.rfind(f, 0) == 0) return true;
    }
    return false;
  };
  std::string text = s.outputs;
  const auto field = [&text](const std::string& kind, const std::string& name,
                             u64 v) {
    text.append(kind).append(name).append(" ").append(std::to_string(v));
  };
  for (const auto& [name, v] : s.snap.counters) {
    if (locked(name)) field("\nc ", name, v);
  }
  for (const auto& [name, h] : s.snap.histograms) {
    if (!locked(name)) continue;
    field("\nh ", name, h.count);
    for (const u64 c : h.counts) text.append(" ").append(std::to_string(c));
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a(text)));
  return buf;
}

/// The committed golden digest for (workload, seed); empty when golden.json
/// has none for the seed.
std::string golden_for(const std::string& workload, u64 seed,
                       std::string* err) {
  const std::string path = YSB_GOLDEN;
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = ys::json::parse(buf.str());
  if (!in || !doc || !doc->is_object()) {
    *err = "cannot read golden file " + path;
    return {};
  }
  const auto* per_workload = doc->find(workload);
  if (per_workload == nullptr) return {};
  const auto* digest = per_workload->find(std::to_string(seed));
  return digest != nullptr && digest->is_string() ? digest->string
                                                  : std::string();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of host times, in microseconds.
double percentile_us(std::vector<u64>& ns, double q) {
  const std::size_t k = std::min(
      ns.size() - 1, static_cast<std::size_t>(q * static_cast<double>(ns.size())));
  std::nth_element(ns.begin(), ns.begin() + static_cast<long>(k), ns.end());
  return static_cast<double>(ns[k]) / 1e3;
}

/// Peak RSS of this process image: VmHWM of /proc/self/status. Not
/// getrusage's ru_maxrss, which Linux carries across execve and so would
/// report the launching process's (run.py's) peak when that is larger.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

u64 counter(const ys::obs::Snapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// Time metrics come from repeating identical sweeps on the CPU clock. On a
// shared host, co-tenant load takes the CPU away from a run for bursts
// shorter than a second; CPU time does not count those. What it still
// counts (caches and cores shared with other tenants) varies in bursts
// too, so each trial's CPU time is taken as its fastest repetition across
// the run's sweeps (best of N): every sweep repeats the same trials in the
// same order, interference only ever adds time, and a slower program slows
// every repetition.

/// Fold one sweep's series into the element-wise minimum of the sweeps
/// so far (the series of a workload are equally long in every sweep).
void keep_best(std::vector<u64>& best, const std::vector<u64>& sweep) {
  if (best.empty()) {
    best = sweep;
    return;
  }
  for (std::size_t i = 0; i < best.size(); ++i) {
    best[i] = std::min(best[i], sweep[i]);
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note = {};  ///< printed in the report only
};

/// The output gate over every sweep of the run: the workload's own checks
/// on the first sweep, every sweep's digest equal to the first, and the
/// first equal to the committed golden when one exists for the seed.
class OutputGate {
 public:
  OutputGate(const Workload& w, std::string golden)
      : w_(w), golden_(std::move(golden)) {}

  void add(const Sweep& s) {
    const std::string d = output_digest(s);
    if (first_.empty()) {
      first_ = d;
      for (const std::string& f : w_.check(s)) failures_.push_back(f);
      if (!golden_.empty() && d != golden_) {
        failures_.push_back("output digest " + d + " != golden " + golden_);
      }
    } else if (d != first_) {
      failures_.push_back("sweep " + std::to_string(sweeps_ + 1) +
                          " digest " + d + " != first sweep " + first_);
    }
    ++sweeps_;
  }

  bool ok() const { return failures_.empty(); }

  void print(u64 seed) const {
    std::printf("output gate: digest %s; %s; %d sweep(s) %s\n",
                first_.c_str(),
                golden_.empty()
                    ? ("no golden committed for seed " + std::to_string(seed))
                          .c_str()
                    : (first_ == golden_ ? "matches the committed golden"
                                         : "DIFFERS from the committed golden"),
                sweeps_, ok() ? "pass" : "FAIL");
    for (const std::string& f : failures_) std::printf("  FAIL: %s\n", f.c_str());
  }

 private:
  const Workload& w_;
  std::string golden_;
  std::string first_;
  std::vector<std::string> failures_;
  int sweeps_ = 0;
};

/// Print the report's metric block, then the result JSON as the last line.
/// `report_only` metrics appear in the block but not in the JSON.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics,
                  const std::vector<Metric>& report_only = {}) {
  std::printf("metrics:\n");
  for (const auto* list : {&metrics, &report_only}) {
    for (const Metric& m : *list) {
      std::printf("  %-32s %.6g %s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char val[64];
    std::snprintf(val, sizeof(val), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + val +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int run_end_to_end(Workload& w, const Args& a, OutputGate& gate) {
  // Set-up: everything before the first trial, built from scratch before
  // every sweep and a few extra times up front, so the median samples the
  // whole run. The previous state is released outside the clock.
  constexpr int kExtraSetups = 30;
  std::vector<double> setups;
  const auto timed_setup = [&] {
    w.teardown();
    const double t0 = process_cpu_s();
    w.setup();
    setups.push_back(process_cpu_s() - t0);
  };
  for (int i = 0; i < kExtraSetups; ++i) timed_setup();

  // Closed-loop sweeps until the time budget is spent. Only the running
  // minima are kept, so the driver's memory does not grow with the number
  // of sweeps that fit in the run.
  std::vector<double> allocs;
  std::vector<double> bytes;
  std::vector<u64> per_trial;        // per slot, best CPU time so far
  u64 runner_ns = ~u64{0};           // best CPU time outside the trials
  std::size_t sweeps = 0;
  std::size_t attempted = 0;
  std::size_t errors = 0;
  const auto start = Clock::now();
  do {
    timed_setup();
    Sweep s = w.sweep();
    ++sweeps;
    gate.add(s);
    attempted += s.trials;
    errors += s.errors;
    const double n = static_cast<double>(s.trials);
    allocs.push_back(static_cast<double>(counter(s.snap, "perf.alloc.count")) / n);
    bytes.push_back(static_cast<double>(counter(s.snap, "perf.alloc.bytes")) / n);
    keep_best(per_trial, s.trial_cpu_ns);
    u64 inside_ns = 0;
    for (const u64 ns : s.trial_cpu_ns) inside_ns += ns;
    runner_ns = std::min(runner_ns, s.cpu_ns - std::min(s.cpu_ns, inside_ns));
    std::printf("sweep %zu: %zu trials in %.3f s, %.3f CPU s (%.0f trials/s "
                "wall, %.0f per CPU s), %.4f allocs/trial, %zu errors\n",
                sweeps, s.trials, s.wall_s,
                static_cast<double>(s.cpu_ns) / 1e9, n / s.wall_s,
                n * 1e9 / static_cast<double>(s.cpu_ns), allocs.back(),
                s.errors);
  } while (std::chrono::duration<double>(Clock::now() - start).count() <
           a.seconds);
  std::printf("setup: %zu set-ups, median %.6f CPU s (min %.6f, max %.6f)\n",
              setups.size(), median(setups),
              *std::min_element(setups.begin(), setups.end()),
              *std::max_element(setups.begin(), setups.end()));

  // The first sweep also pays one-time static initialisation.
  if (allocs.size() > 1) {
    const auto [lo, hi] = std::minmax_element(allocs.begin() + 1, allocs.end());
    std::printf("allocs_per_trial: steady-state sweeps %s (spread %.0f "
                "allocations per sweep)\n",
                *lo == *hi ? "repeat exactly" : "differ",
                (*hi - *lo) * static_cast<double>(attempted / sweeps));
  }
  gate.print(a.seed);

  u64 cpu_ns = runner_ns;
  for (const u64 ns : per_trial) cpu_ns += ns;
  const double trials_per_s = static_cast<double>(per_trial.size()) * 1e9 /
                              static_cast<double>(cpu_ns);
  std::printf("best of %zu sweeps: sweep CPU time %.3f s (%zu trials, plus "
              "%.3f s in the runner around them)\n",
              sweeps, static_cast<double>(cpu_ns) / 1e9, per_trial.size(),
              static_cast<double>(runner_ns) / 1e9);
  char p99_note[96];
  std::snprintf(p99_note, sizeof(p99_note),
                " (p99 of %zu trials, each the best of %zu sweeps)",
                per_trial.size(), sweeps);
  char error_note[96];
  std::snprintf(error_note, sizeof(error_note),
                " (%zu of %zu trials; the result's failed/attempted)", errors,
                attempted);

  const std::vector<Metric> metrics = {
      {"setup_s", median(setups), "s"},
      {"trials_per_s", trials_per_s, "trials/s"},
      {"trial_us_p50", percentile_us(per_trial, 0.50), "us"},
      {"allocs_per_trial", median(allocs), "allocs"},
      {"alloc_bytes_per_trial", median(bytes), "B"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  // The tail is printed but not in the result: on a shared host its
  // run-to-run spread exceeds the widest bound a metric may have (README).
  const std::vector<Metric> report_only = {
      {"trial_us_p99", percentile_us(per_trial, 0.99), "us", p99_note},
      {"trial_error_rate",
       static_cast<double>(errors) / static_cast<double>(attempted), "ratio",
       error_note},
  };
  print_result(gate.ok(), attempted, gate.ok() ? errors : attempted, metrics,
               report_only);
  return gate.ok() ? 0 : 1;
}

/// Units and display order of the per-layer metrics.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"netsim.events_per_trial", "count"},
      {"netsim.packets_per_trial", "count"},
      {"netsim.ttl_expired_per_trial", "count"},
      {"netsim.queue_depth_hwm", "count"},
      {"netsim.transit_ns", "ns"},
      {"netsim.transit_allocs", "allocs"},
      {"netsim.checksum_ns", "ns"},
      {"netsim.checksum_allocs", "allocs"},
      {"gfw.packets_per_trial", "count"},
      {"gfw.tcb_ops_per_trial", "count"},
      {"gfw.process_ns", "ns"},
      {"gfw.process_allocs", "allocs"},
      {"tcpstack.segments_per_trial", "count"},
      {"tcpstack.retransmits_per_trial", "count"},
      {"tcpstack.ignored_ratio", "ratio"},
      {"tcpstack.on_segment_ns", "ns"},
      {"tcpstack.on_segment_ooo_ns", "ns"},
      {"tcpstack.on_segment_allocs", "allocs"},
      {"middlebox.events_per_trial", "count"},
      {"middlebox.drops_per_trial", "count"},
      {"intang.choose_us_p50", "us"},
      {"intang.kv_ops_per_trial", "count"},
      {"intang.kv_hit_ratio", "ratio"},
      {"intang.cache_hit_ratio", "ratio"},
      {"exp.scenario_build_us", "us"},
      {"exp.scenario_build_allocs", "allocs"},
      {"exp.trial_us", "us"},
      {"fleet.overhead_us_per_flow", "us"},
      {"runner.overhead_us_per_task", "us"},
      {"runner.utilization", "ratio"},
      {"runner.steals_per_ktask", "count"},
      {"faults.actions_per_trial", "count"},
      {"trace.overhead_ratio", "ratio"},
  };
  return list;
}

int run_traced(Workload& w, const Args& a, OutputGate& gate) {
  w.setup();
  const std::vector<std::size_t> sample = w.sample(a.seed);
  const Sweep s = w.sweep({sample.begin(), sample.end()});
  gate.add(s);
  std::printf("untraced sweep: %zu trials in %.3f s, %zu errors\n", s.trials,
              s.wall_s, s.errors);
  // Captures go under the build tree (compiled in as YSB_SCRATCH).
  const LedgerResult ledger =
      run_ledger(w, a.seed, s,
                 std::string(YSB_SCRATCH) + "/scratch-" +
                     std::to_string(static_cast<long>(getpid())));
  gate.print(a.seed);

  std::vector<Metric> metrics;
  for (const auto& [name, unit] : layer_metrics()) {
    const auto it = ledger.metrics.find(name);
    metrics.push_back({name, it == ledger.metrics.end() ? 0.0 : it->second,
                       unit});
  }
  const bool correct = gate.ok() && ledger.self_check_ok;
  print_result(correct, s.trials, correct ? s.errors : s.trials, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ysbench

int main(int argc, char** argv) {
  using namespace ysbench;
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N [--seconds S] "
                 "[--trace 0|1]\n",
                 argv[0]);
    return 2;
  }
  if (const std::string why = build_refusal(); !why.empty()) {
    std::fprintf(stderr, "ysbench: refusing to report from this build: %s\n",
                 why.c_str());
    return 3;
  }
  std::unique_ptr<Workload> w = make_workload(a.workload, a.seed);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'; known:", a.workload.c_str());
    for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::string err;
  const std::string golden = golden_for(a.workload, a.seed, &err);
  if (!err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  std::printf("ysbench %s seed=%llu jobs=%d seconds=%g trace=%d\n",
              w->name(), static_cast<unsigned long long>(a.seed), w->jobs(),
              a.seconds, a.trace ? 1 : 0);
  print_env();
  OutputGate gate(*w, golden);
  return a.trace ? run_traced(*w, a, gate) : run_end_to_end(*w, a, gate);
}
