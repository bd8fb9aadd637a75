// Microbenchmarks (google-benchmark) for the primitives everything else is
// built on: the keyword engine, checksums, the wire codec, fragmentation,
// the event loop, one packet hop along a path, INTANG's caches, and a
// complete end-to-end trial.
//
// Accepts --report=FILE on top of the standard google-benchmark flags:
// per-benchmark ns/op land in a BenchReport (obs/perf.h) as informational
// metrics for `yourstate perf --diff` side-by-side views.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "obs/perf.h"

#include "core/checksum.h"
#include "exp/scenario.h"
#include "exp/trial.h"
#include "gfw/aho_corasick.h"
#include "intang/kv_store.h"
#include "intang/lru_cache.h"
#include "netsim/fragment.h"
#include "netsim/path.h"
#include "netsim/wire.h"
#include "strategy/insertion.h"

namespace ys {
namespace {

void BM_AhoCorasickScan(benchmark::State& state) {
  gfw::AhoCorasick ac({"ultrasurf", "falun", "freenet.github", "wujieliulan"});
  Rng rng(1);
  Bytes stream = strategy::junk_payload(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    gfw::AhoCorasick::Cursor cursor;
    benchmark::DoNotOptimize(ac.scan(stream, cursor));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AhoCorasickScan)->Arg(1460)->Arg(65536);

void BM_InternetChecksum(benchmark::State& state) {
  Rng rng(2);
  Bytes data = strategy::junk_payload(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(internet_checksum(data));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(1460);

net::Packet sample_packet() {
  const net::FourTuple tuple{net::make_ip(10, 0, 0, 1), 40000,
                             net::make_ip(93, 184, 216, 34), 80};
  Rng rng(3);
  net::Packet pkt = strategy::craft_data(tuple, 1000, 2000,
                                         strategy::junk_payload(512, rng));
  pkt.tcp->options.timestamps = net::TcpTimestamps{1234, 5678};
  net::finalize(pkt);
  return pkt;
}

void BM_TransportChecksum(benchmark::State& state) {
  // A finalized TCP segment with options and a 512-byte payload: the sum
  // every validating endpoint and middlebox recomputes.
  const net::Packet pkt = sample_packet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::correct_transport_checksum(pkt));
  }
}
BENCHMARK(BM_TransportChecksum);

/// Path element that forwards every packet untouched.
class PassElement final : public net::PathElement {
 public:
  std::string name() const override { return "pass"; }
  void process(net::Packet pkt, net::Dir, net::Forwarder& fwd) override {
    fwd.forward(std::move(pkt));
  }
};

void BM_PathHop(benchmark::State& state) {
  // One packet from client to server through one element of a warmed,
  // untraced path: finalize, two scheduled hops, delivery.
  net::EventLoop loop;
  net::PathConfig cfg;
  cfg.server_hops = 10;
  net::Path path(loop, Rng(4), cfg);
  PassElement element;
  path.attach(5, &element);
  net::Packet held = sample_packet();
  path.set_server_sink([&held](net::Packet p) { held = std::move(p); });
  for (auto _ : state) {
    held.ip.ttl = 64;
    path.send_from_client(std::move(held));
    loop.run();
  }
}
BENCHMARK(BM_PathHop);

void BM_WireSerialize(benchmark::State& state) {
  const net::Packet pkt = sample_packet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::serialize(pkt));
  }
}
BENCHMARK(BM_WireSerialize);

void BM_WireParse(benchmark::State& state) {
  const Bytes image = net::serialize(sample_packet());
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::parse(image));
  }
}
BENCHMARK(BM_WireParse);

void BM_FragmentReassemble(benchmark::State& state) {
  const net::Packet pkt = sample_packet();
  for (auto _ : state) {
    net::FragmentReassembler reasm(net::OverlapPolicy::kPreferLast);
    std::optional<net::Packet> whole;
    for (const auto& frag : net::fragment_packet(pkt, 128)) {
      whole = reasm.push(frag);
    }
    benchmark::DoNotOptimize(whole);
  }
}
BENCHMARK(BM_FragmentReassemble);

void BM_EventLoopScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    net::EventLoop loop;
    u64 sum = 0;
    for (int i = 0; i < 1000; ++i) {
      loop.schedule_after(SimTime::from_us(i), [&sum, i] { sum += static_cast<u64>(i); });
    }
    loop.run();
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_EventLoopScheduleRun);

void BM_KvStoreSetGet(benchmark::State& state) {
  intang::KvStore store;
  SimTime now = SimTime::zero();
  int i = 0;
  for (auto _ : state) {
    store.set("key" + std::to_string(i % 512), "value", now);
    benchmark::DoNotOptimize(store.get("key" + std::to_string(i % 512), now));
    ++i;
  }
}
BENCHMARK(BM_KvStoreSetGet);

void BM_LruCache(benchmark::State& state) {
  intang::LruCache<int, int> cache(256);
  int i = 0;
  for (auto _ : state) {
    cache.put(i % 512, i);
    benchmark::DoNotOptimize(cache.get((i / 2) % 512));
    ++i;
  }
}
BENCHMARK(BM_LruCache);

void BM_FullHttpTrial(benchmark::State& state) {
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  u64 seed = 1;
  for (auto _ : state) {
    exp::ScenarioOptions opt;
    opt.vp = exp::china_vantage_points()[0];
    opt.server.host = "site-0.example";
    opt.server.ip = net::make_ip(93, 184, 216, 34);
    opt.cal = exp::Calibration::standard();
    opt.seed = ++seed;
    exp::Scenario sc(&rules, opt);
    exp::HttpTrialOptions http;
    http.with_keyword = true;
    http.strategy = strategy::StrategyId::kImprovedTeardown;
    benchmark::DoNotOptimize(exp::run_http_trial(sc, http));
  }
}
BENCHMARK(BM_FullHttpTrial);

/// Console output plus a BenchReport: every finished benchmark's adjusted
/// real time is recorded as an informational `<name>_ns` metric.
class ReportingReporter : public benchmark::ConsoleReporter {
 public:
  explicit ReportingReporter(obs::perf::BenchReport* report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      std::string name = run.benchmark_name();
      for (char& c : name) {
        if (c == '/' || c == ':') c = '_';
      }
      report_->metrics[name + "_ns"] = obs::perf::MetricValue{
          run.GetAdjustedRealTime(), "ns/op",
          obs::perf::Direction::kInfo};
    }
  }

 private:
  obs::perf::BenchReport* report_;
};

}  // namespace
}  // namespace ys

int main(int argc, char** argv) {
  // Peel --report= off before google-benchmark sees (and rejects) it.
  std::string report_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(9);
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  ys::obs::perf::BenchReport report = ys::obs::perf::make_report("micro");
  ys::ReportingReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!report_path.empty() && !report.write(report_path)) {
    std::fprintf(stderr, "cannot write --report file %s\n",
                 report_path.c_str());
    return 1;
  }
  return 0;
}
