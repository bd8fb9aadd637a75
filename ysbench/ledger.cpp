#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>

#include "exp/trial.h"
#include "gfw/gfw_device.h"
#include "netsim/event_loop.h"
#include "netsim/packet.h"
#include "netsim/path.h"
#include "netsim/wire.h"
#include "obs/alloc_hook.h"
#include "tcpstack/tcp_endpoint.h"

namespace ysbench {
namespace {

using namespace ys;
using Clock = std::chrono::steady_clock;

struct Captured {
  net::Packet pkt;
  SimTime at;
  bool c2s = false;
};

/// One sampled trial: its capture plus what rebuilds its layers.
struct Trace {
  std::size_t slot = 0;
  std::string label;
  std::vector<Captured> packets;
  exp::ScenarioOptions scenario;  ///< profile pointer set
};

/// exp::Scenario's configuration of the type-2 (block-period enforcing)
/// GFW device on this path, detecting every keyword.
gfw::GfwConfig type2_config(const exp::PathProfile& p) {
  gfw::GfwConfig cfg;
  cfg.device_type = gfw::DeviceType::kType2;
  cfg.enforce_block_period = true;
  cfg.evolved = !p.old_model;
  cfg.detection_miss_rate = 0.0;
  cfg.rst_reaction_handshake = p.rst_reaction_handshake;
  cfg.rst_reaction_established = p.rst_reaction_established;
  cfg.accepts_no_flag_data = p.accepts_no_flag_data;
  cfg.tcp_segment_overlap = p.tcp_segment_overlap;
  return cfg;
}

/// exp::Scenario's server stack for this server.
tcp::StackProfile server_stack(const exp::ServerSpec& server) {
  tcp::StackProfile p = tcp::StackProfile::for_version(server.version);
  if (server.lenient_ack_validation) p.validates_ack_field = false;
  return p;
}

u32 le32(const u8* p) {
  return static_cast<u32>(p[0]) | static_cast<u32>(p[1]) << 8 |
         static_cast<u32>(p[2]) << 16 | static_cast<u32>(p[3]) << 24;
}

/// Read a LINKTYPE_RAW pcap as written by net::PcapWriter. The client is
/// the source of the first packet (its SYN); direction follows from that.
std::vector<Captured> read_pcap(const std::string& path, std::string* err) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<u8> data((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  std::vector<Captured> out;
  if (data.size() < 24 || le32(data.data()) != 0xA1B2C3D4u) {
    *err = "not a pcap file: " + path;
    return out;
  }
  std::size_t off = 24;
  while (off + 16 <= data.size()) {
    const u32 sec = le32(&data[off]);
    const u32 usec = le32(&data[off + 4]);
    const u32 len = le32(&data[off + 8]);
    off += 16;
    if (off + len > data.size()) {
      *err = "truncated pcap record in " + path;
      return out;
    }
    auto pkt = net::parse(ByteView(&data[off], len));
    off += len;
    if (!pkt.ok()) {
      *err = "unparseable packet in " + path + ": " + pkt.error().message;
      return out;
    }
    Captured c;
    c.pkt = std::move(pkt.value());
    c.at = SimTime::from_us(static_cast<i64>(sec) * 1'000'000 + usec);
    c.c2s = out.empty() || c.pkt.ip.src == out.front().pkt.ip.src;
    out.push_back(std::move(c));
  }
  return out;
}

u64 counter(const obs::Snapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

u64 counter_sum(const obs::Snapshot& s, const std::string& prefix) {
  u64 sum = 0;
  for (auto it = s.counters.lower_bound(prefix);
       it != s.counters.end() && it->first.rfind(prefix, 0) == 0; ++it) {
    sum += it->second;
  }
  return sum;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// -------------------------------------------------------- replay self-check

/// What the client-side capture cannot see, for one trial: packets that
/// died or were duplicated on the path, and packets injected mid-path.
u64 invisible_packets(const obs::Snapshot& d) {
  return counter(d, "netsim.packet_ttl_expired") +
         counter(d, "netsim.packet_dropped_loss") +
         counter(d, "netsim.fault_drop") +
         counter(d, "netsim.packet_element_drop") +
         counter(d, "netsim.packet_injected") +
         counter(d, "netsim.fault_duplicate");
}

/// Compare the calls the ledger feeds each layer with the registry's count
/// of the same trial. Exact where the capture sees everything (deliveries
/// to the client); elsewhere the difference must be explained by what the
/// capture cannot see.
bool self_check(const Trace& t, const obs::Snapshot& d, int sweep_outcome,
                int replay_outcome) {
  std::size_t in = 0;
  std::size_t in_tcp = 0;
  std::size_t out_tcp = 0;
  for (const Captured& c : t.packets) {
    if (!c.c2s) {
      ++in;
      in_tcp += c.pkt.is_tcp();
    } else {
      out_tcp += c.pkt.is_tcp();
    }
  }
  const u64 invisible = invisible_packets(d);
  const auto within = [invisible](u64 registry, u64 fed) {
    const u64 diff = registry > fed ? registry - fed : fed - registry;
    return diff <= invisible;
  };
  const u64 delivered = counter(d, "netsim.packet_delivered_client");
  const u64 gfw1 = counter(d, "netsim.actor_events.gfw-1");
  const u64 gfw2 = counter(d, "netsim.actor_events.gfw-2");
  const u64 seg_in = counter(d, "tcpstack.segment_in");
  const u64 server_in = seg_in > in_tcp ? seg_in - in_tcp : 0;
  const u64 fed_gfw = t.packets.size();

  const bool ok_outcome = sweep_outcome == replay_outcome;
  const bool ok_net = delivered == in;
  const bool ok_gfw = within(gfw1, fed_gfw) && within(gfw2, fed_gfw);
  const bool ok_tcp = seg_in >= in_tcp && within(server_in, out_tcp);
  const bool ok = ok_outcome && ok_net && ok_gfw && ok_tcp;
  std::printf(
      "  %-22s %-4s outcome %s/%s  netsim %llu/%llu  gfw-1 %llu gfw-2 "
      "%llu/%llu  tcp-server %llu/%llu  invisible<=%llu\n",
      t.label.c_str(), ok ? "ok" : "FAIL",
      exp::to_string(static_cast<exp::Outcome>(sweep_outcome)),
      exp::to_string(static_cast<exp::Outcome>(replay_outcome)),
      static_cast<unsigned long long>(delivered),
      static_cast<unsigned long long>(in),
      static_cast<unsigned long long>(gfw1),
      static_cast<unsigned long long>(gfw2),
      static_cast<unsigned long long>(fed_gfw),
      static_cast<unsigned long long>(server_in),
      static_cast<unsigned long long>(out_tcp),
      static_cast<unsigned long long>(invisible));
  return ok;
}

// ------------------------------------------------------------ microbenches

struct Cost {
  double ns = 0.0;      ///< median host ns per call over repetitions
  double allocs = 0.0;  ///< heap allocations per call (deterministic)
  std::size_t calls = 0;  ///< calls per repetition
};

/// Time `run` (which returns the number of calls it made) over repeated
/// fresh states from `prepare`; preparation is untimed and its allocations
/// are not counted. Repeats until >= 9 repetitions and >= 60 ms measured.
template <typename State>
Cost measure(const std::function<std::unique_ptr<State>()>& prepare,
             const std::function<std::size_t(State&)>& run) {
  std::vector<double> per_call;
  double total_s = 0.0;
  Cost cost;
  while (per_call.size() < 9 || (total_s < 0.06 && per_call.size() < 5000)) {
    std::unique_ptr<State> state = prepare();
    const auto a0 = obs::perf::thread_alloc_counters();
    const auto t0 = Clock::now();
    const std::size_t calls = run(*state);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    const auto a1 = obs::perf::thread_alloc_counters();
    state.reset();  // teardown outside the window
    if (calls == 0) return cost;
    total_s += s;
    per_call.push_back(s * 1e9 / static_cast<double>(calls));
    cost.calls = calls;
    cost.allocs =
        static_cast<double>(a1.count - a0.count) / static_cast<double>(calls);
  }
  std::nth_element(per_call.begin(), per_call.begin() + per_call.size() / 2,
                   per_call.end());
  cost.ns = per_call[per_call.size() / 2];
  return cost;
}

/// Forwarder stub for a GFW device outside any path: discards every
/// packet the device forwards, injects or drops.
class StubForwarder final : public net::Forwarder {
 public:
  void forward(net::Packet) override {}
  void inject(net::Packet, net::Dir, SimTime) override {}
  void drop(const net::Packet&, std::string_view) override {}
  SimTime now() const override { return now_; }
  Rng& rng() override { return rng_; }

  SimTime now_ = SimTime::zero();

 private:
  Rng rng_{0x5eed};
};

/// Fresh packet copies, so each repetition consumes its own.
std::vector<net::Packet> copies(const Trace& t, bool c2s_tcp_only) {
  std::vector<net::Packet> out;
  for (const Captured& c : t.packets) {
    if (c2s_tcp_only && !(c.c2s && c.pkt.is_tcp())) continue;
    out.push_back(c.pkt);
  }
  return out;
}

Cost bench_gfw(const std::vector<Trace>& traces,
               const gfw::DetectionRules& rules) {
  struct State {
    std::vector<std::unique_ptr<gfw::GfwDevice>> devices;
    std::vector<std::vector<net::Packet>> packets;
    StubForwarder fwd;
  };
  return measure<State>(
      [&] {
        auto st = std::make_unique<State>();
        for (const Trace& t : traces) {
          st->devices.push_back(std::make_unique<gfw::GfwDevice>(
              "gfw-2", type2_config(*t.scenario.profile), &rules,
              Rng(t.scenario.seed)));
          st->packets.push_back(copies(t, false));
        }
        return st;
      },
      [&](State& st) {
        std::size_t calls = 0;
        for (std::size_t i = 0; i < traces.size(); ++i) {
          for (std::size_t p = 0; p < st.packets[i].size(); ++p) {
            const Captured& c = traces[i].packets[p];
            st.fwd.now_ = c.at;
            st.devices[i]->process(std::move(st.packets[i][p]),
                                   c.c2s ? net::Dir::kC2S : net::Dir::kS2C,
                                   st.fwd);
            ++calls;
          }
        }
        return calls;
      });
}

/// The client's segments, rewritten for a passive endpoint whose initial
/// sequence number differs from the captured server's: acknowledgment
/// numbers shift by the difference (checksums recomputed where they were
/// valid, kept wrong where the capture had them wrong on purpose).
struct TcpFeed {
  net::FourTuple local;
  tcp::StackProfile profile;
  u64 seed = 0;
  std::vector<net::Packet> in_order;
  std::vector<net::Packet> reordered;
};

/// A passive endpoint with its own (never run) event loop. The endpoint
/// holds a reference to the loop, so the pair never moves.
struct Endpoint {
  net::EventLoop loop;
  std::unique_ptr<tcp::TcpEndpoint> ep;

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;
  explicit Endpoint(const TcpFeed& f) {
    tcp::TcpEndpoint::Callbacks cb;
    cb.send = [](net::Packet) {};
    ep = std::make_unique<tcp::TcpEndpoint>(loop, Rng(f.seed), f.profile,
                                            f.local, std::move(cb));
    ep->open_passive();
  }
};

TcpFeed make_tcp_feed(const Trace& t) {
  TcpFeed f;
  f.profile = server_stack(t.scenario.server);
  f.seed = t.scenario.seed;
  std::vector<net::Packet> segs = copies(t, true);
  if (segs.empty()) return f;
  const net::FourTuple client = segs.front().tuple();
  f.local = net::FourTuple{client.dst_ip, client.dst_port, client.src_ip,
                           client.src_port};
  u32 captured_iss = 0;
  for (const Captured& c : t.packets) {
    if (!c.c2s && c.pkt.is_tcp() && c.pkt.tcp->flags.syn &&
        c.pkt.tcp->flags.ack) {
      captured_iss = c.pkt.tcp->seq;
      break;
    }
  }
  Endpoint probe(f);
  probe.ep->on_segment(segs.front());
  const u32 shift = probe.ep->iss() - captured_iss;
  for (net::Packet& p : segs) {
    if (!p.tcp->flags.ack) continue;
    const bool valid = net::transport_checksum_ok(p);
    p.tcp->ack += shift;
    if (valid) {
      p.tcp->checksum = 0;
      net::finalize(p);
    }
  }
  f.in_order = segs;
  // Out of order: the payload-bearing segments in reverse order, so later
  // bytes arrive before earlier ones and exercise reassembly.
  std::vector<std::size_t> data_idx;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    if (!segs[i].payload.empty()) data_idx.push_back(i);
  }
  f.reordered = segs;
  for (std::size_t k = 0; k < data_idx.size(); ++k) {
    f.reordered[data_idx[k]] = segs[data_idx[data_idx.size() - 1 - k]];
  }
  return f;
}

Cost bench_tcp(const std::vector<TcpFeed>& feeds, bool reordered) {
  using State = std::vector<std::unique_ptr<Endpoint>>;
  return measure<State>(
      [&] {
        auto st = std::make_unique<State>();
        for (const TcpFeed& f : feeds) {
          st->push_back(std::make_unique<Endpoint>(f));
        }
        return st;
      },
      [&](State& st) {
        std::size_t calls = 0;
        for (std::size_t i = 0; i < feeds.size(); ++i) {
          for (const net::Packet& p :
               reordered ? feeds[i].reordered : feeds[i].in_order) {
            st[i]->ep->on_segment(p);
            ++calls;
          }
        }
        return calls;
      });
}

Cost bench_transit(const std::vector<Trace>& traces) {
  // The path holds a reference to the loop, so the pair never moves.
  struct Bare {
    net::EventLoop loop;
    net::Path path;
    std::vector<net::Packet> packets;
    Bare(const Bare&) = delete;
    Bare& operator=(const Bare&) = delete;
    explicit Bare(const Trace& t)
        : path(loop, Rng(t.scenario.seed),
               net::PathConfig{t.scenario.profile->server_hops, 800, 300,
                               0.0}),
          packets(copies(t, false)) {
      path.set_client_sink([](net::Packet) {});
      path.set_server_sink([](net::Packet) {});
    }
  };
  using State = std::vector<std::unique_ptr<Bare>>;
  return measure<State>(
      [&] {
        auto st = std::make_unique<State>();
        for (const Trace& t : traces) st->push_back(std::make_unique<Bare>(t));
        return st;
      },
      [&](State& st) {
        std::size_t calls = 0;
        for (std::size_t i = 0; i < traces.size(); ++i) {
          Bare& b = *st[i];
          for (std::size_t p = 0; p < b.packets.size(); ++p) {
            if (traces[i].packets[p].c2s) {
              b.path.send_from_client(std::move(b.packets[p]));
            } else {
              b.path.send_from_server(std::move(b.packets[p]));
            }
            ++calls;
          }
          b.loop.run();
        }
        return calls;
      });
}

Cost bench_checksum(const std::vector<Trace>& traces) {
  using State = std::vector<net::Packet>;
  return measure<State>(
      [&] {
        auto st = std::make_unique<State>();
        for (const Trace& t : traces) {
          for (const Captured& c : t.packets) {
            net::Packet p = c.pkt;
            p.ip.total_length = 0;
            p.ip.header_checksum = 0;
            if (p.tcp) p.tcp->checksum = 0;
            if (p.udp) p.udp->checksum = 0;
            st->push_back(std::move(p));
          }
        }
        return st;
      },
      [&](State& st) {
        for (net::Packet& p : st) net::finalize(p);
        return st.size();
      });
}

Cost bench_scenario(const std::vector<Trace>& traces,
                    const gfw::DetectionRules& rules) {
  struct State {
    std::vector<exp::ScenarioOptions> options;
    std::vector<std::unique_ptr<exp::Scenario>> built;
  };
  return measure<State>(
      [&] {
        auto st = std::make_unique<State>();
        for (const Trace& t : traces) st->options.push_back(t.scenario);
        st->built.reserve(traces.size());
        return st;
      },
      [&](State& st) {
        for (exp::ScenarioOptions& o : st.options) {
          st.built.push_back(
              std::make_unique<exp::Scenario>(&rules, std::move(o)));
        }
        return st.built.size();
      });
}

}  // namespace

LedgerResult run_ledger(const Workload& w, u64 seed, const Sweep& untraced,
                        const std::string& scratch_dir) {
  LedgerResult res;
  std::map<std::string, double>& m = res.metrics;
  const obs::Snapshot& snap = untraced.snap;
  const double trials = static_cast<double>(untraced.trials);
  const auto per_trial = [&](u64 v) { return static_cast<double>(v) / trials; };

  // ---------------------------------------------- registry: per-trial work
  m["netsim.events_per_trial"] = per_trial(counter(snap, "loop.events_executed"));
  m["netsim.packets_per_trial"] =
      per_trial(counter(snap, "netsim.packet_delivered_client") +
                counter(snap, "netsim.packet_delivered_server") +
                counter(snap, "netsim.packet_ttl_expired") +
                counter(snap, "netsim.packet_dropped_loss") +
                counter(snap, "netsim.packet_element_drop") +
                counter(snap, "netsim.fault_drop"));
  m["netsim.ttl_expired_per_trial"] =
      per_trial(counter(snap, "netsim.packet_ttl_expired"));
  const auto hwm = snap.gauges.find("loop.queue_depth_hwm");
  m["netsim.queue_depth_hwm"] = hwm == snap.gauges.end() ? 0.0 : hwm->second;
  m["gfw.packets_per_trial"] = per_trial(counter(snap, "gfw.packets_seen"));
  m["gfw.tcb_ops_per_trial"] = per_trial(counter(snap, "gfw.tcb_create") +
                                         counter(snap, "gfw.tcb_resync") +
                                         counter(snap, "gfw.tcb_teardown"));
  const u64 seg_in = counter(snap, "tcpstack.segment_in");
  m["tcpstack.segments_per_trial"] = per_trial(seg_in);
  m["tcpstack.retransmits_per_trial"] =
      per_trial(counter(snap, "tcpstack.segment_retransmit"));
  m["tcpstack.ignored_ratio"] =
      ratio(static_cast<double>(counter(snap, "tcpstack.segment_ignored")),
            static_cast<double>(seg_in));
  m["middlebox.events_per_trial"] =
      per_trial(counter_sum(snap, "netsim.actor_events.mbox_"));
  m["middlebox.drops_per_trial"] =
      per_trial(counter(snap, "netsim.packet_element_drop"));
  const auto choose = snap.histograms.find("intang.choose_wall_us");
  m["intang.choose_us_p50"] =
      choose == snap.histograms.end() ? 0.0 : choose->second.percentile(0.5);
  const u64 kv_hit = counter(snap, "intang.kv_get_hit");
  const u64 kv_miss = counter(snap, "intang.kv_get_miss");
  m["intang.kv_ops_per_trial"] =
      per_trial(kv_hit + kv_miss + counter(snap, "intang.kv_set") +
                counter(snap, "intang.kv_incr"));
  m["intang.kv_hit_ratio"] = ratio(static_cast<double>(kv_hit),
                                   static_cast<double>(kv_hit + kv_miss));
  m["intang.cache_hit_ratio"] =
      ratio(static_cast<double>(counter(snap, "intang.pick_cache_hit") +
                                counter(snap, "intang.pick_store_hit")),
            static_cast<double>(counter(snap, "intang.strategy_pick")));
  m["faults.actions_per_trial"] = per_trial(counter_sum(snap, "faults."));

  // ------------------------------------------- phases: per-trial host time
  const auto phase = [&](const char* name) {
    const auto it = untraced.phases.find(name);
    return it == untraced.phases.end() ? obs::perf::PhaseAgg{} : it->second;
  };
  u64 driver_ns = 0;
  for (const u64 ns : untraced.trial_ns) driver_ns += ns;
  const obs::perf::PhaseAgg http = phase("exp.http_trial");
  const obs::perf::PhaseAgg flow = phase("fleet.flow");
  const obs::perf::PhaseAgg task = phase("runner.task");
  m["exp.trial_us"] = ratio(static_cast<double>(http.wall_ns) / 1e3,
                            static_cast<double>(http.count));
  // Fleet workloads: fleet.flow minus the exp.http_trial inside it. The
  // table4 grid has no fleet layer; there the same difference is taken
  // over the driver-timed run_fixed/run_intang calls, a control a
  // fleet-only change must leave unmoved.
  const u64 outer_ns = flow.count > 0 ? flow.wall_ns : driver_ns;
  m["fleet.overhead_us_per_flow"] =
      (static_cast<double>(outer_ns) - static_cast<double>(http.wall_ns)) /
      1e3 / trials;
  m["runner.overhead_us_per_task"] = ratio(
      (static_cast<double>(task.wall_ns) - static_cast<double>(outer_ns)) /
          1e3,
      static_cast<double>(task.count));
  double busy_weighted = 0.0;
  double wall_total = 0.0;
  u64 steals = 0;
  u64 tasks = 0;
  for (const runner::RunnerReport& r : untraced.reports) {
    double util = 0.0;
    for (std::size_t i = 0; i < r.workers.size(); ++i) util += r.utilization(i);
    if (!r.workers.empty()) util /= static_cast<double>(r.workers.size());
    busy_weighted += util * r.wall_seconds;
    wall_total += r.wall_seconds;
    steals += r.steals;
    tasks += r.tasks_executed;
  }
  m["runner.utilization"] = ratio(busy_weighted, wall_total);
  m["runner.steals_per_ktask"] =
      ratio(static_cast<double>(steals) * 1000.0, static_cast<double>(tasks));

  // ----------------------------------------------- replays of the sample
  const std::vector<std::size_t> sample = w.sample(seed);
  std::filesystem::create_directories(scratch_dir);
  std::vector<Trace> traces;
  std::vector<int> replay_outcomes;
  std::vector<std::size_t> replayed_per_slot;
  std::size_t replayed = 0;
  const auto t0 = Clock::now();
  {
    obs::MetricsRegistry scratch;  // replays must not touch the sweep's
    obs::ScopedMetricsRegistry scope(&scratch);
    for (const std::size_t slot : sample) {
      Trace t;
      t.slot = slot;
      t.label = w.slot_label(slot);
      const std::string pcap =
          scratch_dir + "/trace-" + std::to_string(slot) + ".pcap";
      int outcome = -1;
      replayed_per_slot.push_back(w.replay(slot, pcap, &outcome));
      replayed += replayed_per_slot.back();
      replay_outcomes.push_back(outcome);
      std::string err;
      t.packets = read_pcap(pcap, &err);
      std::filesystem::remove(pcap);
      if (!err.empty()) {
        std::printf("  %s: %s\n", t.label.c_str(), err.c_str());
        res.self_check_ok = false;
      }
      traces.push_back(std::move(t));
    }
  }
  const double traced_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  std::filesystem::remove(scratch_dir);
  // The same trials untraced: each replay executes its chain prefix and
  // target, which are contiguous slots ending at the target (trial is the
  // fastest-varying grid axis).
  u64 untraced_ns = 0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    for (std::size_t k = 0; k < replayed_per_slot[i]; ++k) {
      untraced_ns += untraced.trial_ns[sample[i] - k];
    }
  }
  m["trace.overhead_ratio"] = traced_s * 1e9 / static_cast<double>(untraced_ns);

  // ------------------------------------------------------------ self-check
  std::printf("replay self-check (registry/fed per layer; the client capture "
              "cannot see packets that expired, were lost or dropped, were "
              "duplicated on the path, or were injected mid-path):\n");
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const auto probe = untraced.probes.find(traces[i].slot);
    if (probe == untraced.probes.end()) {
      std::printf("  %s: no registry probe\n", traces[i].label.c_str());
      res.self_check_ok = false;
      continue;
    }
    res.self_check_ok &=
        self_check(traces[i], probe->second,
                   untraced.outcomes[traces[i].slot], replay_outcomes[i]);
  }
  std::printf("replay self-check: %s (%zu samples, %zu trials replayed)\n",
              res.self_check_ok ? "PASS" : "FAIL", traces.size(), replayed);

  // --------------------------------------------------------- microbenches
  for (Trace& t : traces) t.scenario = w.scenario_options(t.slot);
  const gfw::DetectionRules rules = gfw::DetectionRules::standard();
  std::vector<TcpFeed> feeds;
  for (const Trace& t : traces) feeds.push_back(make_tcp_feed(t));

  obs::MetricsRegistry scratch;  // layer calls publish somewhere harmless
  obs::ScopedMetricsRegistry scope(&scratch);
  const Cost gfw = bench_gfw(traces, rules);
  const Cost tcp_in = bench_tcp(feeds, false);
  const Cost tcp_ooo = bench_tcp(feeds, true);
  const Cost transit = bench_transit(traces);
  const Cost checksum = bench_checksum(traces);
  const Cost scenario = bench_scenario(traces, rules);
  m["gfw.process_ns"] = gfw.ns;
  m["gfw.process_allocs"] = gfw.allocs;
  m["tcpstack.on_segment_ns"] = tcp_in.ns;
  m["tcpstack.on_segment_ooo_ns"] = tcp_ooo.ns;
  m["tcpstack.on_segment_allocs"] = tcp_in.allocs;
  m["netsim.transit_ns"] = transit.ns;
  m["netsim.transit_allocs"] = transit.allocs;
  m["netsim.checksum_ns"] = checksum.ns;
  m["netsim.checksum_allocs"] = checksum.allocs;
  m["exp.scenario_build_us"] = scenario.ns / 1e3;
  m["exp.scenario_build_allocs"] = scenario.allocs;

  // ---------------------------------------------------------------- ledger
  struct Row {
    const char* layer;
    const char* entry;
    double calls;  // per trial, from the registry
    const Cost& cost;
  };
  const Row rows[] = {
      {"exp", "Scenario construction", 1.0, scenario},
      {"netsim", "Path send-to-delivery", m["netsim.packets_per_trial"],
       transit},
      {"netsim", "finalize (checksums)",
       per_trial(counter(snap, "tcpstack.segment_out")), checksum},
      {"gfw", "GfwDevice::process", m["gfw.packets_per_trial"], gfw},
      {"tcpstack", "TcpEndpoint::on_segment", m["tcpstack.segments_per_trial"],
       tcp_in},
  };
  std::printf("\nlayer ledger (calls/trial from the registry x cost/call "
              "from the replayed captures; fed = calls per repetition):\n");
  std::printf("  %-9s %-24s %6s %12s %10s %12s %12s %14s\n", "layer",
              "entry point", "fed", "calls/trial", "ns/call", "us/trial",
              "allocs/call", "allocs/trial");
  double est_us = 0.0;
  for (const Row& r : rows) {
    const double us = r.calls * r.cost.ns / 1e3;
    est_us += us;
    std::printf("  %-9s %-24s %6zu %12.2f %10.1f %12.2f %12.2f %14.1f\n",
                r.layer, r.entry, r.cost.calls, r.calls, r.cost.ns, us,
                r.cost.allocs, r.calls * r.cost.allocs);
  }
  std::printf("  sum of layer estimates %.2f us/trial; exp.http_trial phase "
              "%.2f us/trial; driver-timed trial %.2f us\n",
              est_us, m["exp.trial_us"], driver_ns / 1e3 / trials);
  return res;
}

}  // namespace ysbench
