// Event loop and path semantics: deterministic ordering, TTL hop
// accounting, loss, FIFO non-reordering, injection, and route shifts.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "netsim/event_loop.h"
#include "netsim/path.h"
#include "obs/alloc_hook.h"

namespace ys::net {
namespace {

const FourTuple kTuple{make_ip(10, 0, 0, 1), 40000,
                       make_ip(93, 184, 216, 34), 80};

Packet probe(u8 ttl, u32 seq = 1) {
  Packet pkt = make_tcp_packet(kTuple, TcpFlags::only_ack(), seq, 0);
  pkt.ip.ttl = ttl;
  return pkt;
}

// -------------------------------------------------------------- EventLoop

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_after(SimTime::from_ms(30), [&] { order.push_back(3); });
  loop.schedule_after(SimTime::from_ms(10), [&] { order.push_back(1); });
  loop.schedule_after(SimTime::from_ms(20), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now().millis(), 30);
}

TEST(EventLoop, TiesRunInSchedulingOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(SimTime::from_ms(5), [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventLoop, NestedSchedulingWorks) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_after(SimTime::from_ms(1), [&] {
    ++fired;
    loop.schedule_after(SimTime::from_ms(1), [&] { ++fired; });
  });
  loop.run();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(loop.idle());
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_after(SimTime::from_ms(5), [&] { ++fired; });
  loop.schedule_after(SimTime::from_ms(15), [&] { ++fired; });
  loop.run_until(SimTime::from_ms(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now().millis(), 10);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, SameInstantEventsRunFifoAcrossTheHeap) {
  // Many events over a few instants, scheduled in shuffled time order, plus
  // events scheduled from inside events at the current instant: the run
  // order is (time, scheduling order), exactly a stable sort by time.
  EventLoop loop;
  Rng rng(11);
  std::vector<std::pair<i64, int>> expected;
  std::vector<int> order;
  int next_id = 0;
  for (int i = 0; i < 300; ++i) {
    const i64 at = static_cast<i64>(rng.uniform(7)) * 10;
    const int id = next_id++;
    expected.emplace_back(at, id);
    loop.schedule_at(SimTime::from_us(at), [&, id] {
      order.push_back(id);
      if (id % 5 == 0) {
        // Same-instant follow-up: runs after everything already queued
        // for this instant.
        const int child = 1000 + id;
        loop.schedule_after(SimTime::zero(),
                            [&order, child] { order.push_back(child); });
      }
    });
  }
  loop.run();
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<int> want;
  for (std::size_t i = 0; i < expected.size();) {
    std::size_t j = i;
    while (j < expected.size() && expected[j].first == expected[i].first) {
      want.push_back(expected[j++].second);
    }
    for (std::size_t k = i; k < j; ++k) {
      if (expected[k].second % 5 == 0) want.push_back(1000 + expected[k].second);
    }
    i = j;
  }
  EXPECT_EQ(order, want);
}

TEST(EventLoop, RunUntilDeadlineBoundaryIsInclusive) {
  EventLoop loop;
  std::vector<int> fired;
  loop.schedule_at(SimTime::from_us(99), [&] { fired.push_back(1); });
  loop.schedule_at(SimTime::from_us(100), [&] {
    fired.push_back(2);
    // Scheduled at the deadline from inside run_until: still runs.
    loop.schedule_after(SimTime::zero(), [&] { fired.push_back(3); });
    loop.schedule_after(SimTime::from_us(1), [&] { fired.push_back(4); });
  });
  loop.schedule_at(SimTime::from_us(101), [&] { fired.push_back(5); });
  const RunResult r = loop.run_until(SimTime::from_us(100));
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(r.executed, 3u);
  EXPECT_FALSE(r.hit_max_events);
  EXPECT_EQ(loop.now().us, 100);
  EXPECT_EQ(loop.pending(), 2u);
  // A max_events stop with more work due by the deadline reports it.
  const RunResult capped = loop.run_until(SimTime::from_us(200), 1);
  EXPECT_EQ(capped.executed, 1u);
  EXPECT_TRUE(capped.hit_max_events);
  EXPECT_EQ(loop.now().us, 200);
  loop.run();
  // Both remaining events sit at 101 us: scheduling order decides.
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 5, 4}));
}

TEST(EventLoop, MaxEventsBoundsRunawayLoops) {
  EventLoop loop;
  std::function<void()> rearm = [&] {
    loop.schedule_after(SimTime::from_us(1), rearm);
  };
  loop.schedule_after(SimTime::from_us(1), rearm);
  const std::size_t executed = loop.run(100);
  EXPECT_EQ(executed, 100u);
}

// ------------------------------------------------------------------- Path

struct PathFixture {
  EventLoop loop;
  obs::TraceRecorder trace;
  Path path;
  std::vector<Packet> at_server;
  std::vector<Packet> at_client;

  explicit PathFixture(PathConfig cfg = make_config())
      : path(loop, Rng(5), cfg, &trace) {
    path.set_server_sink([this](Packet p) { at_server.push_back(std::move(p)); });
    path.set_client_sink([this](Packet p) { at_client.push_back(std::move(p)); });
  }

  static PathConfig make_config() {
    PathConfig cfg;
    cfg.server_hops = 10;
    cfg.jitter_us = 0;
    cfg.per_link_loss = 0.0;
    return cfg;
  }
};

TEST(Path, DeliversEndToEndAndDecrementsTtl) {
  PathFixture fx;
  fx.path.send_from_client(probe(64));
  fx.loop.run();
  ASSERT_EQ(fx.at_server.size(), 1u);
  EXPECT_EQ(fx.at_server[0].ip.ttl, 64 - 10);
}

TEST(Path, TtlExactlyHopsReaches) {
  PathFixture fx;
  fx.path.send_from_client(probe(10));
  fx.loop.run();
  EXPECT_EQ(fx.at_server.size(), 1u);
  EXPECT_EQ(fx.at_server[0].ip.ttl, 0);
}

TEST(Path, TtlOneShortExpires) {
  PathFixture fx;
  fx.path.send_from_client(probe(9));
  fx.loop.run();
  EXPECT_TRUE(fx.at_server.empty());
  // The expiry is visible in the trace.
  bool expired = false;
  for (const auto& e : fx.trace.events()) {
    if (e.kind == obs::TraceKind::kExpire) expired = true;
  }
  EXPECT_TRUE(expired);
}

/// Tap element recording what it sees.
class TapElement final : public PathElement {
 public:
  explicit TapElement(std::string name) : name_(std::move(name)) {}
  std::string name() const override { return name_; }
  void process(Packet pkt, Dir dir, Forwarder& fwd) override {
    seen.push_back(pkt);
    (void)dir;
    fwd.forward(std::move(pkt));
  }
  std::vector<Packet> seen;

 private:
  std::string name_;
};

TEST(Path, ElementAtPositionSeesTtlLimitedPacket) {
  PathFixture fx;
  TapElement tap("tap");
  fx.path.attach(4, &tap);

  fx.path.send_from_client(probe(4, /*seq=*/1));  // reaches exactly the tap
  fx.path.send_from_client(probe(3, /*seq=*/2));  // dies one hop short
  fx.loop.run();

  ASSERT_EQ(tap.seen.size(), 1u);
  EXPECT_EQ(tap.seen[0].tcp->seq, 1u);
  EXPECT_TRUE(fx.at_server.empty());  // ttl 4 < 10 hops
}

TEST(Path, ServerToClientTraversesElementsInReverse) {
  PathFixture fx;
  TapElement near_client("near-client");
  TapElement near_server("near-server");
  fx.path.attach(2, &near_client);
  fx.path.attach(8, &near_server);

  fx.path.send_from_server(probe(64));
  fx.loop.run();
  ASSERT_EQ(fx.at_client.size(), 1u);
  EXPECT_EQ(near_server.seen.size(), 1u);
  EXPECT_EQ(near_client.seen.size(), 1u);
  EXPECT_EQ(fx.at_client[0].ip.ttl, 64 - 10);
}

/// Element that drops everything.
class BlackholeElement final : public PathElement {
 public:
  std::string name() const override { return "blackhole"; }
  void process(Packet pkt, Dir, Forwarder& fwd) override {
    fwd.drop(pkt, "policy");
  }
};

TEST(Path, DropsAreTerminalAndTraced) {
  PathFixture fx;
  BlackholeElement hole;
  fx.path.attach(5, &hole);
  fx.path.send_from_client(probe(64));
  fx.loop.run();
  EXPECT_TRUE(fx.at_server.empty());
  bool dropped = false;
  for (const auto& e : fx.trace.events()) {
    if (e.kind == obs::TraceKind::kDrop && e.actor == "blackhole") {
      dropped = true;
    }
  }
  EXPECT_TRUE(dropped);
}

/// Element injecting a reply toward the client for every packet.
class ReflectorElement final : public PathElement {
 public:
  std::string name() const override { return "reflector"; }
  void process(Packet pkt, Dir dir, Forwarder& fwd) override {
    Packet reply = make_tcp_packet(pkt.tuple().reversed(),
                                   TcpFlags::only_rst(), 999, 0);
    fwd.inject(std::move(reply), opposite(dir), SimTime::from_us(100));
    fwd.forward(std::move(pkt));
  }
};

TEST(Path, InjectionTravelsOppositeDirection) {
  PathFixture fx;
  ReflectorElement reflector;
  fx.path.attach(5, &reflector);
  fx.path.send_from_client(probe(64));
  fx.loop.run();
  ASSERT_EQ(fx.at_server.size(), 1u);
  ASSERT_EQ(fx.at_client.size(), 1u);
  EXPECT_TRUE(fx.at_client[0].tcp->flags.rst);
  // The injected packet crossed 5 hops back to the client.
  EXPECT_EQ(fx.at_client[0].ip.ttl, 64 - 5);
}

TEST(Path, FifoNoReorderingUnderJitter) {
  PathConfig cfg;
  cfg.server_hops = 12;
  cfg.jitter_us = 500;  // aggressive jitter
  cfg.per_link_loss = 0.0;
  PathFixture fx(cfg);
  for (u32 i = 0; i < 50; ++i) {
    fx.path.send_from_client(probe(64, i));
  }
  fx.loop.run();
  ASSERT_EQ(fx.at_server.size(), 50u);
  for (u32 i = 0; i < 50; ++i) {
    EXPECT_EQ(fx.at_server[i].tcp->seq, i) << "reordered at " << i;
  }
}

TEST(Path, LossIsApplied) {
  PathConfig cfg;
  cfg.server_hops = 10;
  cfg.jitter_us = 0;
  cfg.per_link_loss = 0.05;  // ~40% end-to-end over 10 hops
  PathFixture fx(cfg);
  for (u32 i = 0; i < 400; ++i) {
    fx.path.send_from_client(probe(64, i));
  }
  fx.loop.run();
  EXPECT_LT(fx.at_server.size(), 320u);
  EXPECT_GT(fx.at_server.size(), 150u);
}

TEST(Path, RouteShiftMovesServer) {
  PathFixture fx;
  EXPECT_EQ(fx.path.current_server_hops(), 10);
  fx.path.shift_route(+2);
  EXPECT_EQ(fx.path.current_server_hops(), 12);
  // A packet that used to just reach the server now expires.
  fx.path.send_from_client(probe(10));
  fx.loop.run();
  EXPECT_TRUE(fx.at_server.empty());
  fx.path.send_from_client(probe(12));
  fx.loop.run();
  EXPECT_EQ(fx.at_server.size(), 1u);
}

TEST(Path, FinalizesOutgoingPackets) {
  PathFixture fx;
  Packet pkt = make_tcp_packet(kTuple, TcpFlags::psh_ack(), 1, 2,
                               to_bytes("payload"));
  EXPECT_EQ(pkt.tcp->checksum, 0);
  fx.path.send_from_client(std::move(pkt));
  fx.loop.run();
  ASSERT_EQ(fx.at_server.size(), 1u);
  EXPECT_TRUE(transport_checksum_ok(fx.at_server[0]));
  EXPECT_NE(fx.at_server[0].ip.total_length, 0);
}

/// Element that forwards everything untouched.
class PassElement final : public PathElement {
 public:
  std::string name() const override { return "pass"; }
  void process(Packet pkt, Dir, Forwarder& fwd) override {
    fwd.forward(std::move(pkt));
  }
};

TEST(Path, WarmedHopAllocatesNothing) {
  if (!obs::perf::alloc_hook_available()) {
    GTEST_SKIP() << "allocation hook compiled out in this build";
  }
  PathConfig cfg = PathFixture::make_config();
  cfg.jitter_us = 300;
  EventLoop loop;
  Path path(loop, Rng(5), cfg);  // untraced, like a grid trial
  PassElement mid;
  path.attach(5, &mid);
  std::size_t delivered = 0;
  path.set_server_sink([&delivered](Packet) { ++delivered; });

  constexpr u32 kBurst = 8;
  const auto burst = [] {
    std::vector<Packet> pkts;
    for (u32 i = 0; i < kBurst; ++i) {
      pkts.push_back(make_tcp_packet(kTuple, TcpFlags::psh_ack(), i, 0,
                                     to_bytes("GET /?q=ultrasurf HTTP/1.1")));
    }
    return pkts;
  };
  // Warm the in-flight slab, the event heap and the metric handles.
  for (Packet& p : burst()) path.send_from_client(std::move(p));
  loop.run();

  std::vector<Packet> pkts = burst();
  const obs::perf::AllocCounters before = obs::perf::thread_alloc_counters();
  for (Packet& p : pkts) path.send_from_client(std::move(p));
  loop.run();
  const obs::perf::AllocCounters after = obs::perf::thread_alloc_counters();
  EXPECT_EQ(after.count - before.count, 0u);
  EXPECT_EQ(delivered, 2 * kBurst);
}

/// Fault hook with a fixed script keyed on the crossing count: duplicates,
/// FIFO bypasses and extra delays in overlapping patterns.
class ScriptedFaults final : public FaultHook {
 public:
  LinkAction on_segment(const Packet&, Dir, int, int, SimTime) override {
    const u32 n = crossings_++;
    LinkAction act;
    act.duplicate = n % 3 == 0;
    act.bypass_fifo = n % 4 == 1;
    act.extra_delay_us = act.bypass_fifo ? 0 : static_cast<i64>(n % 5) * 700;
    act.reason = "scripted";
    return act;
  }
  InjectAction on_inject(const std::string&, SimTime) override {
    InjectAction act;
    act.extra_delay_us = 50;
    return act;
  }

 private:
  u32 crossings_ = 0;
};

TEST(Path, FaultDuplicatesAndBypassKeepTheirDeliveryOrder) {
  // The delivery sequence below was recorded before packets in flight
  // moved into the path's slab; the order and the arrival instants of the
  // originals, their duplicates, FIFO-bypassing packets, injections and
  // delayed sends must not change.
  PathConfig cfg = PathFixture::make_config();
  cfg.jitter_us = 300;
  PathFixture fx(cfg);
  ScriptedFaults faults;
  fx.path.set_fault_hook(&faults);
  TapElement tap("tap");
  ReflectorElement reflector;
  fx.path.attach(3, &tap);
  fx.path.attach(6, &reflector);
  std::string log;
  fx.path.set_server_sink([&](Packet p) {
    log += "s" + std::to_string(p.tcp->seq) + "@" +
           std::to_string(fx.loop.now().us) + " ";
  });
  fx.path.set_client_sink([&](Packet p) {
    log += "c" + std::to_string(p.tcp->seq) + "@" +
           std::to_string(fx.loop.now().us) + " ";
  });
  for (u32 i = 0; i < 6; ++i) {
    fx.path.send_after(SimTime::from_us(150 * i), Dir::kC2S, probe(64, i));
  }
  fx.path.send_after(SimTime::from_us(400), Dir::kS2C, probe(64, 77));
  fx.loop.run();
  EXPECT_EQ(log,
            "s999@9288 s4@10347 s1@10881 s4@11147 c999@11478 s4@11585 "
            "s4@12385 s0@12385 s999@12917 s999@13717 s0@13717 s2@13717 "
            "c77@13730 c999@14304 c999@14394 s2@14517 s3@14517 s3@14517 "
            "s5@14517 c999@14859 c999@15146 c999@15194 s5@15317 c999@15946 "
            "c999@15946 c999@15946 s5@16735 c999@16746 c77@16746 c999@16746 "
            "c999@16746 c999@17546 c999@17546 c999@17546 c999@18346 "
            "c999@18346 c999@19464 ");
}

TEST(Path, CountsDeliveries) {
  PathFixture fx;
  fx.path.send_from_client(probe(64));
  fx.path.send_from_server(probe(64));
  fx.loop.run();
  EXPECT_EQ(fx.path.packets_delivered_to_server(), 1u);
  EXPECT_EQ(fx.path.packets_delivered_to_client(), 1u);
}

}  // namespace
}  // namespace ys::net
