// Structured causal tracing: golden traces per GFW model (causal links
// from state transitions and injected resets back to their trigger
// packets), verdict attribution, Chrome trace-export round-trip, and
// replay determinism (every bench definition's replay equals its grid slot)
// and the flight recorder's telemetry isolation.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "core/json.h"
#include "exp/benchdef.h"
#include "exp/explain.h"
#include "exp/scenario.h"
#include "exp/trial.h"
#include "fleet/fleet.h"
#include "gfw/gfw_device.h"
#include "netsim/event_loop.h"
#include "netsim/path.h"
#include "obs/alloc_hook.h"
#include "obs/metrics.h"
#include "obs/phase_profiler.h"
#include "obs/trace.h"
#include "obs/timeline.h"
#include "obs/trace_export.h"
#include "runner/flight_recorder.h"
#include "runner/results_store.h"
#include "runner/runner.h"
#include "search/engine.h"

namespace ys {
namespace {

using namespace ys::exp;

const net::FourTuple kTuple{net::make_ip(10, 0, 0, 1), 40000,
                            net::make_ip(93, 184, 216, 34), 80};

// --------------------------------------------------------------- golden rig

/// A real Path with one GFW device tapped at hop 5, fully traced. Packets
/// get their trace ids from the path, exactly like a scenario trial.
struct TraceRig {
  net::EventLoop loop;
  obs::TraceRecorder trace;
  gfw::DetectionRules rules = gfw::DetectionRules::standard();
  std::unique_ptr<net::Path> path;
  std::unique_ptr<gfw::GfwDevice> dev;
  u32 cseq = 1000;
  u32 sseq = 5000;

  explicit TraceRig(gfw::GfwConfig cfg = {}) {
    cfg.detection_miss_rate = 0.0;
    net::PathConfig pcfg;
    pcfg.server_hops = 10;
    pcfg.jitter_us = 0;
    pcfg.per_link_loss = 0.0;
    path = std::make_unique<net::Path>(loop, Rng(7), pcfg, &trace);
    dev = std::make_unique<gfw::GfwDevice>("gfw-2", cfg, &rules, Rng(9));
    path->attach(5, dev.get());
    path->set_server_sink([](net::Packet) {});
    path->set_client_sink([](net::Packet) {});
  }

  void c2s(net::Packet pkt) {
    path->send_from_client(std::move(pkt));
    loop.run();
  }
  void s2c(net::Packet pkt) {
    path->send_from_server(std::move(pkt));
    loop.run();
  }
  void handshake() {
    c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(), cseq, 0));
    ++cseq;
    s2c(net::make_tcp_packet(kTuple.reversed(), net::TcpFlags::syn_ack(),
                             sseq, cseq));
    ++sseq;
    c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_ack(), cseq, sseq));
  }
};

const obs::TraceEvent* find_by_id(const std::vector<obs::TraceEvent>& evs,
                                  u64 id) {
  for (const auto& e : evs) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

const obs::TraceEvent* find_last_behavior(
    const std::vector<obs::TraceEvent>& evs, obs::GfwBehavior b) {
  const obs::TraceEvent* hit = nullptr;
  for (const auto& e : evs) {
    if (e.gfw.behavior == b) hit = &e;
  }
  return hit;
}

TEST(Golden, EvolvedModelCausality) {
  TraceRig rig;  // default config: evolved type-2

  // TCB on SYN: the state event must link back to the SYN's send event.
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(), rig.cseq, 0));
  auto evs = rig.trace.events();
  const obs::TraceEvent* created =
      find_last_behavior(evs, obs::GfwBehavior::kB1CreateOnSyn);
  ASSERT_NE(created, nullptr);
  EXPECT_EQ(created->gfw.from, obs::GfwState::kNone);
  EXPECT_EQ(created->gfw.to, obs::GfwState::kEstablished);
  ASSERT_NE(created->caused_by, 0u);
  const obs::TraceEvent* cause = find_by_id(evs, created->caused_by);
  ASSERT_NE(cause, nullptr);
  EXPECT_EQ(cause->kind, obs::TraceKind::kSend);
  EXPECT_NE(cause->packet.flags & 0x02, 0) << "cause must be the SYN";
  const u64 first_syn_send = cause->id;  // evs is reassigned below

  // Finish the handshake, then a second client SYN → Behavior 2a resync,
  // again linked to the specific SYN that forced it.
  ++rig.cseq;
  rig.s2c(net::make_tcp_packet(kTuple.reversed(), net::TcpFlags::syn_ack(),
                               rig.sseq, rig.cseq));
  ++rig.sseq;
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_ack(), rig.cseq,
                               rig.sseq));
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_syn(), rig.cseq, 0));
  evs = rig.trace.events();
  const obs::TraceEvent* resync =
      find_last_behavior(evs, obs::GfwBehavior::kB2aMultipleSyn);
  ASSERT_NE(resync, nullptr);
  EXPECT_EQ(resync->gfw.to, obs::GfwState::kResync);
  const obs::TraceEvent* resync_cause = find_by_id(evs, resync->caused_by);
  ASSERT_NE(resync_cause, nullptr);
  EXPECT_EQ(resync_cause->kind, obs::TraceKind::kSend);
  EXPECT_NE(resync_cause->packet.flags & 0x02, 0);
  EXPECT_GT(resync_cause->id, first_syn_send)
      << "must link to the *second* SYN";

  // Keyword data re-anchors the resync TCB and trips the detector; the
  // injected resets must link back to that data packet's send event.
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::psh_ack(), rig.cseq,
                               rig.sseq,
                               to_bytes("GET /?q=ultrasurf HTTP/1.1\r\n\r\n")));
  evs = rig.trace.events();
  const obs::TraceEvent* reanchor =
      find_last_behavior(evs, obs::GfwBehavior::kResyncReanchor);
  ASSERT_NE(reanchor, nullptr);
  const obs::TraceEvent* detection =
      find_last_behavior(evs, obs::GfwBehavior::kDetection);
  ASSERT_NE(detection, nullptr);

  u64 data_send = 0;
  for (const auto& e : evs) {
    if (e.kind == obs::TraceKind::kSend && e.packet.payload_len > 0) {
      data_send = e.id;
    }
  }
  ASSERT_NE(data_send, 0u);
  EXPECT_EQ(detection->caused_by, data_send);
  int injected = 0;
  for (const auto& e : evs) {
    if (e.kind != obs::TraceKind::kInject) continue;
    ++injected;
    EXPECT_EQ(e.caused_by, data_send)
        << "injected reset must trace to the trigger packet";
    EXPECT_NE(e.packet.flags & 0x04, 0) << "type-2 injects RSTs";
  }
  EXPECT_GE(injected, 1);

  // Every causal link in the whole trace resolves to a retained event.
  for (const auto& e : evs) {
    if (e.caused_by != 0) {
      EXPECT_NE(find_by_id(evs, e.caused_by), nullptr)
          << "dangling caused_by on event " << e.id;
    }
  }
}

TEST(Golden, PriorModelTeardownCausality) {
  gfw::GfwConfig cfg;
  cfg.evolved = false;
  TraceRig rig(cfg);
  rig.handshake();

  // Prior model: a client RST tears the TCB down, linked to that RST.
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::only_rst(), rig.cseq, 0));
  const auto evs = rig.trace.events();
  const obs::TraceEvent* teardown =
      find_last_behavior(evs, obs::GfwBehavior::kRstTeardown);
  ASSERT_NE(teardown, nullptr);
  EXPECT_EQ(teardown->gfw.to, obs::GfwState::kGone);
  const obs::TraceEvent* cause = find_by_id(evs, teardown->caused_by);
  ASSERT_NE(cause, nullptr);
  EXPECT_EQ(cause->kind, obs::TraceKind::kSend);
  EXPECT_NE(cause->packet.flags & 0x04, 0) << "cause must be the RST";

  // Keyword data after the teardown is invisible: no detection, no resets.
  rig.c2s(net::make_tcp_packet(kTuple, net::TcpFlags::psh_ack(), rig.cseq,
                               rig.sseq,
                               to_bytes("GET /?q=ultrasurf HTTP/1.1\r\n\r\n")));
  const auto after = rig.trace.events();
  EXPECT_EQ(find_last_behavior(after, obs::GfwBehavior::kDetection), nullptr);
}

// ----------------------------------------------------- verdict attribution

ScenarioOptions traced_options(u64 seed) {
  ScenarioOptions opt;
  opt.vp = china_vantage_points()[0];
  opt.server.host = "site-0.example";
  opt.server.ip = net::make_ip(93, 184, 216, 34);
  opt.cal = Calibration::standard();
  opt.cal.detection_miss = 0.0;
  opt.cal.per_link_loss = 0.0;
  opt.cal.ttl_estimate_error_prob = 0.0;
  opt.cal.old_model_fraction = 0.0;
  opt.seed = seed;
  opt.tracing = true;
  return opt;
}

TEST(Golden, AttributionNamesDetectionOnFailure2) {
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  Scenario sc(&rules, traced_options(11));
  HttpTrialOptions http;
  http.with_keyword = true;  // no evasion: the GFW wins
  const TrialResult result = run_http_trial(sc, http);
  ASSERT_EQ(result.outcome, Outcome::kFailure2);

  const Attribution attr =
      attribute_verdict(sc.trace(), result.outcome, sc.path_runs_old_model());
  EXPECT_EQ(attr.outcome, Outcome::kFailure2);
  EXPECT_NE(attr.decisive_event, 0u);
  EXPECT_TRUE(attr.behavior == obs::GfwBehavior::kDetection ||
              attr.behavior == obs::GfwBehavior::kBlockPeriod)
      << "got: " << to_string(attr.behavior);
  EXPECT_FALSE(attr.verdict.empty());
  EXPECT_NE(attr.verdict.find("failure-2"), std::string::npos)
      << attr.verdict;
}

TEST(Golden, AttributionReachesInsertionPacketOnSuccess) {
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  Scenario sc(&rules, traced_options(11));
  HttpTrialOptions http;
  http.with_keyword = true;
  http.strategy = strategy::StrategyId::kImprovedTeardown;
  const TrialResult result = run_http_trial(sc, http);
  ASSERT_EQ(result.outcome, Outcome::kSuccess);

  const Attribution attr =
      attribute_verdict(sc.trace(), result.outcome, sc.path_runs_old_model());
  EXPECT_NE(attr.decisive_event, 0u);
  EXPECT_NE(attr.causal_insertion_event, 0u)
      << "success must trace to a crafted insertion packet\n" << attr.verdict;
  EXPECT_NE(attr.strategy_decision_event, 0u);
  const auto evs = sc.trace().events();
  const obs::TraceEvent* insertion =
      find_by_id(evs, attr.causal_insertion_event);
  ASSERT_NE(insertion, nullptr);
  EXPECT_EQ(insertion->kind, obs::TraceKind::kSend);
  EXPECT_TRUE(insertion->packet.crafted);
  const obs::TraceEvent* decision =
      find_by_id(evs, attr.strategy_decision_event);
  ASSERT_NE(decision, nullptr);
  EXPECT_EQ(decision->kind, obs::TraceKind::kDecision);
}

// --------------------------------------------------------- export round-trip

TEST(Export, RoundTrip) {
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  Scenario sc(&rules, traced_options(3));
  HttpTrialOptions http;
  http.with_keyword = true;
  http.strategy = strategy::StrategyId::kCreationResyncDesync;
  run_http_trial(sc, http);
  ASSERT_GT(sc.trace().size(), 0u);

  const std::string doc = obs::to_chrome_trace(sc.trace());
  const auto parsed = json::parse(doc);
  ASSERT_TRUE(parsed.has_value()) << "export must be valid JSON";
  const json::Value* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array.empty());

  std::set<double> ids;
  std::set<double> flow_starts;
  std::set<double> flow_ends;
  std::map<double, double> last_ts;  // per tid, over ph:"X"
  for (const auto& ev : events->array) {
    ASSERT_TRUE(ev.is_object());
    const json::Value* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "X") {
      const json::Value* tid = ev.find("tid");
      const json::Value* ts = ev.find("ts");
      ASSERT_NE(tid, nullptr);
      ASSERT_NE(ts, nullptr);
      auto it = last_ts.find(tid->number);
      if (it != last_ts.end()) {
        EXPECT_GE(ts->number, it->second) << "ts not monotone on a track";
      }
      last_ts[tid->number] = ts->number;
      const json::Value* args = ev.find("args");
      ASSERT_NE(args, nullptr);
      const json::Value* id = args->find("id");
      ASSERT_NE(id, nullptr);
      ids.insert(id->number);
    } else if (ph->string == "s" || ph->string == "f") {
      const json::Value* id = ev.find("id");
      ASSERT_NE(id, nullptr);
      (ph->string == "s" ? flow_starts : flow_ends).insert(id->number);
    }
  }
  // Every caused_by resolves to some exported event id.
  for (const auto& ev : events->array) {
    const json::Value* args = ev.find("args");
    if (args == nullptr) continue;
    const json::Value* cb = args->find("caused_by");
    if (cb == nullptr) continue;
    EXPECT_EQ(ids.count(cb->number), 1u)
        << "unresolved caused_by " << cb->number;
  }
  // Flow arrows come in matched start/finish pairs.
  EXPECT_EQ(flow_starts, flow_ends);
  EXPECT_FALSE(flow_starts.empty()) << "causal links must produce flows";
}

// ------------------------------------------------------ replay determinism

/// One bench definition's replay check: the untraced --jobs=2 grid's slot
/// at a trial >= 1 coordinate, and a traced replay of that coordinate that
/// captures the client's wire to the given pcap path.
struct ReplayCase {
  Outcome grid_outcome = Outcome::kTrialError;
  /// Set where the grid records the strategy a trial used.
  std::optional<strategy::StrategyId> grid_strategy;
  std::function<Replay(const std::string& pcap)> replay;
};

/// Packet records in a little-endian pcap file; -1 when the file is not a
/// whole number of records after the 24-byte global header.
long pcap_records(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const auto u8 = [&bytes](std::size_t i) {
    return static_cast<std::size_t>(static_cast<unsigned char>(bytes[i]));
  };
  std::size_t pos = 24;
  long records = 0;
  while (pos + 16 <= bytes.size()) {
    const std::size_t incl_len = u8(pos + 8) | u8(pos + 9) << 8 |
                                 u8(pos + 10) << 16 | u8(pos + 11) << 24;
    pos += 16 + incl_len;
    ++records;
  }
  return pos == bytes.size() ? records : -1;
}

runner::PoolOptions two_jobs() {
  runner::PoolOptions pool;
  pool.jobs = 2;
  return pool;
}

BenchScale replay_scale(int servers) {
  BenchScale scale;
  scale.trials = 2;
  scale.servers = servers;
  scale.seed = 2017;
  return scale;
}

/// Slot `c` of a selector-chained grid run untraced at --jobs=2.
template <class Run>
auto chained_slot(const runner::TrialGrid& grid, const runner::GridCoord& c,
                  Run run) {
  std::vector<intang::StrategySelector> selectors(
      grid.chains(),
      intang::StrategySelector{intang::StrategySelector::Config{}});
  auto out = runner::collect_grid(
      grid, two_jobs(),
      [&](const runner::GridCoord& gc, runner::TaskContext&) {
        return run(gc, selectors[grid.chain(gc)]);
      });
  return out.slots[grid.index(c)];
}

ReplayCase make_replay_case(const std::string& bench) {
  if (bench == "table1") {
    auto b = std::make_shared<const Table1Bench>(replay_scale(1));
    const runner::GridCoord c{18, 1, 0, 1};  // teardown RST/TTL, keyword
    const runner::TrialGrid grid = b->grid();
    const TrialResult slot =
        runner::collect_grid(grid, two_jobs(),
                             [&](const runner::GridCoord& gc,
                                 runner::TaskContext&) {
                               return b->run_trial(gc);
                             })
            .slots[grid.index(c)];
    return {slot.outcome, slot.strategy_used,
            [b, c](const std::string& pcap) { return b->replay(c, {}, pcap); }};
  }
  if (bench == "table4-inside" || bench == "table4-outside") {
    auto b = std::make_shared<const Table4Bench>(
        replay_scale(2), bench == "table4-inside"
                             ? Table4Bench::Direction::kInside
                             : Table4Bench::Direction::kOutside);
    const runner::GridCoord c{2, 0, 1, 1};
    const runner::TrialGrid grid = b->fixed_grid();
    const TrialResult slot =
        runner::collect_grid(grid, two_jobs(),
                             [&](const runner::GridCoord& gc,
                                 runner::TaskContext&) {
                               return b->run_fixed(gc);
                             })
            .slots[grid.index(c)];
    return {slot.outcome, slot.strategy_used, [b, c](const std::string& pcap) {
              return b->replay_fixed(c, {}, pcap);
            }};
  }
  if (bench == "table4-intang") {
    auto b = std::make_shared<const Table4Bench>(replay_scale(2));
    const runner::GridCoord c{0, 1, 0, 1};
    const TrialResult slot = chained_slot(
        b->intang_grid(), c,
        [&](const runner::GridCoord& gc, intang::StrategySelector& sel) {
          return b->run_intang(gc, sel);
        });
    return {slot.outcome, slot.strategy_used, [b, c](const std::string& pcap) {
              return b->replay_intang(c, {}, pcap);
            }};
  }
  if (bench == "table6-dns") {
    auto b = std::make_shared<const Table6Dns>(replay_scale(1));
    const runner::GridCoord c{0, 0, 0, 1};  // Dyn 1: INTANG's forwarder
    const DnsTrialResult slot = chained_slot(
        b->grid(), c,
        [&](const runner::GridCoord& gc, intang::StrategySelector& sel) {
          return b->run_query(gc, sel);
        });
    EXPECT_NE(slot.strategy_used, strategy::StrategyId::kNone)
        << "the forwarder's connection runs under an INTANG strategy";
    return {slot.outcome, slot.strategy_used,
            [b, c](const std::string& pcap) { return b->replay(c, {}, pcap); }};
  }
  if (bench == "faults") {
    BenchScale scale = replay_scale(2);
    scale.faults = "loss-burst";
    auto b = std::make_shared<const FaultsBench>(scale);
    const runner::GridCoord c{1, 2, 1, 1};  // INTANG cell
    const TrialResult slot = chained_slot(
        b->grid(), c,
        [&](const runner::GridCoord& gc, intang::StrategySelector& sel) {
          return b->run_trial(gc, sel);
        });
    return {slot.outcome, slot.strategy_used,
            [b, c](const std::string& pcap) { return b->replay(c, {}, pcap); }};
  }
  if (bench == "fleet") {
    std::string error;
    auto fl = std::make_shared<const fleet::Fleet>(fleet::parse_fleet_config(
        "clients=6;flows=48;servers=3;vantages=2;arrival=20;churn=0.1;"
        "soak=500ms:rst-storm,1s:none",
        error));
    EXPECT_TRUE(error.empty()) << error;
    const runner::GridCoord c{0, 1, 0, fl->grid().trials - 1};
    const auto rec = fleet::Fleet::FlowRecord::decode(
        fl->sweep(two_jobs()).slots[fl->grid().index(c)]);
    return {rec.outcome, rec.strategy, [fl, c](const std::string& pcap) {
              return fl->replay_flow(c, {}, pcap);
            }};
  }
  // search: one program's evaluation grid, outcomes read back from the
  // engine's results store.
  search::SearchConfig cfg;
  cfg.seed = 7;
  cfg.servers = 2;
  cfg.clean_trials = 1;
  cfg.faulted_trials = 1;
  cfg.jobs = 2;
  auto engine = std::make_shared<const search::SearchEngine>(cfg);
  const search::CandidateProgram prog = engine->initial_population().front();
  const runner::GridCoord c{0, 1, 1, 1};  // variant 1, faulted trial
  const runner::TrialGrid grid{1, cfg.variants.size(), 2, 2};
  const std::string dir = "test_trace_search_replay.tmp";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  Outcome outcome = Outcome::kTrialError;
  {
    runner::ResultsStore store(dir, "replay", 1, grid.total());
    (void)engine->evaluate({prog}, &store, nullptr);
    outcome = static_cast<Outcome>(store.get(grid.index(c)).value_or(-1));
  }
  std::filesystem::remove_all(dir, ec);
  return {outcome, std::nullopt,
          [engine, prog, c](const std::string& pcap) {
            return engine->replay(prog, c.vantage, c.server, c.trial, {},
                                  pcap);
          }};
}

class TraceReplay : public ::testing::TestWithParam<std::string> {};

TEST_P(TraceReplay, EqualsGridSlotAndIsDeterministic) {
  const ReplayCase rc = make_replay_case(GetParam());
  const std::string pcap1 = "test_trace_replay_" + GetParam() + "_1.pcap";
  const std::string pcap2 = "test_trace_replay_" + GetParam() + "_2.pcap";

  obs::MetricsRegistry reg1;
  Replay r1;
  {
    obs::ScopedMetricsRegistry scope(&reg1);
    r1 = rc.replay(pcap1);
  }
  obs::MetricsRegistry reg2;
  Replay r2;
  {
    obs::ScopedMetricsRegistry scope(&reg2);
    r2 = rc.replay(pcap2);
  }

  // The replay reports exactly the packets its capture wrote.
  ASSERT_TRUE(r1.pcap_packets.has_value());
  EXPECT_GT(*r1.pcap_packets, 0u);
  EXPECT_EQ(static_cast<long>(*r1.pcap_packets), pcap_records(pcap1));
  EXPECT_EQ(r1.pcap_packets, r2.pcap_packets);
  std::filesystem::remove(pcap1);
  std::filesystem::remove(pcap2);

  // The replay reproduces the grid's trial (chain prefix included), and
  // tracing cannot perturb it.
  EXPECT_EQ(r1.result.outcome, rc.grid_outcome);
  if (rc.grid_strategy) {
    EXPECT_EQ(r1.result.strategy_used, *rc.grid_strategy);
  }
  EXPECT_EQ(r1.result.outcome, r2.result.outcome);
  EXPECT_EQ(r1.result.strategy_used, r2.result.strategy_used);
  EXPECT_EQ(r1.ladder, r2.ladder);
  EXPECT_EQ(r1.attribution.verdict, r2.attribution.verdict);
  EXPECT_EQ(r1.attribution.decisive_event, r2.attribution.decisive_event);
  EXPECT_EQ(reg1.snapshot().counters, reg2.snapshot().counters)
      << "replay must reproduce the metrics, not just the outcome";
  EXPECT_FALSE(r1.ladder.empty());
  EXPECT_FALSE(r1.attribution.verdict.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Trace, TraceReplay,
    ::testing::Values("table1", "table4-inside", "table4-outside",
                      "table4-intang", "table6-dns", "faults", "fleet",
                      "search"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(FlightRecorder, RecordLeavesCallerTelemetryUntouched) {
  const Table4Bench bench(replay_scale(2));
  const std::string dir = "test_trace_flight.tmp";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  runner::FlightRecorderOptions opt;
  opt.dir = dir;
  opt.bench = "table4-intang";
  runner::FlightRecorder recorder(
      opt, [&bench](const runner::GridCoord& c, const std::string& trace,
                    const std::string& pcap) {
        return bench.replay_intang(c, trace, pcap).attribution.verdict;
      });

  obs::MetricsRegistry reg;
  obs::Timeline timeline;
  obs::ScopedMetricsRegistry scope(&reg);
  obs::ScopedTimeline timeline_scope(&timeline);
  reg.counter("exp.trial_total").inc(7);  // the bench's own grid trials
  const std::map<std::string, u64> before = reg.snapshot().counters;

  // Trial 1 of a chained cell: the replay runs the chain prefix too.
  recorder.record({0, 1, 0, 1}, "anomaly");

  std::map<std::string, u64> after = reg.snapshot().counters;
  EXPECT_EQ(after["runner.flight_recorder.archived"], 1u);
  after.erase("runner.flight_recorder.archived");
  EXPECT_EQ(after, before);
  EXPECT_TRUE(timeline.empty());
  ASSERT_EQ(recorder.archives().size(), 1u);
  EXPECT_FALSE(recorder.archives()[0].summary.empty());
  EXPECT_TRUE(std::filesystem::exists(recorder.archives()[0].trace_path));
  std::filesystem::remove_all(dir, ec);
}

TEST(FlightRecorder, RecordLeavesPhasesAndNextTrialChurnUntouched) {
  // A bench archives anomalies between grid trials on its own thread: the
  // replay must not add to the phase profile, nor make the next grid trial
  // pay to rebind this thread's metric handles.
  const Table4Bench bench(replay_scale(2));
  const std::string dir = "test_trace_flight_phases.tmp";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  runner::FlightRecorderOptions opt;
  opt.dir = dir;
  opt.bench = "table4-inside";
  runner::FlightRecorder recorder(
      opt, [&bench](const runner::GridCoord& c, const std::string& trace,
                    const std::string& pcap) {
        return bench.replay_fixed(c, trace, pcap).attribution.verdict;
      });
  const runner::GridCoord coord{0, 1, 0, 1};
  const auto trial_allocs = [&] {
    const obs::perf::AllocCounters before = obs::perf::thread_alloc_counters();
    (void)bench.run_fixed(coord);
    return obs::perf::thread_alloc_counters().count - before.count;
  };

  obs::MetricsRegistry reg;
  obs::ScopedMetricsRegistry scope(&reg);
  (void)bench.run_fixed(coord);  // bind this thread's handles
  const u64 warm = trial_allocs();
  const auto phases_before = obs::perf::PhaseProfiler::snapshot();

  recorder.record(coord, "anomaly");

  const auto phases_after = obs::perf::PhaseProfiler::snapshot();
  EXPECT_EQ(phases_after.size(), phases_before.size());
  for (const auto& [name, agg] : phases_after) {
    const auto it = phases_before.find(name);
    ASSERT_NE(it, phases_before.end()) << name;
    EXPECT_EQ(agg.count, it->second.count) << name;
  }
  if (obs::perf::alloc_hook_available()) {
    EXPECT_EQ(trial_allocs(), warm);
  }
  ASSERT_EQ(recorder.archives().size(), 1u);
  EXPECT_TRUE(std::filesystem::exists(recorder.archives()[0].trace_path));
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace ys
