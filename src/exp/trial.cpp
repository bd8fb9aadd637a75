#include "exp/trial.h"

#include <cstdlib>
#include <memory>
#include <unordered_set>

#include "app/http.h"
#include "app/tor.h"
#include "app/vpn.h"
#include "obs/metrics.h"
#include "obs/phase_profiler.h"
#include "obs/timeline.h"
#include "strategy/strategy.h"

namespace ys::exp {

namespace {

/// Every trial runner reports its §3.4 classification here, so the JSON
/// snapshot carries trial-level outcomes next to the packet-level counters
/// ("exp.trial_total", "exp.trial_success", "exp.http_trials", ...).
///
/// The cached refs resolve through current() via bind_per_thread: under
/// the runner each worker thread binds them to its private registry, so
/// the hot path never touches the unsynchronized global registry.
///
/// Beyond the counters, each trial lands in a per-strategy histogram of
/// virtual completion time, "exp.vtime.<outcome>.<strategy>" — bucketed
/// sim-milliseconds from connection start to verdict. `yourstate stats`
/// and the runner report surface these as success/failure time profiles.
struct TrialCounters {
  obs::Counter& total;
  obs::Counter& success;
  obs::Counter& failure1;
  obs::Counter& failure2;
  obs::Counter& trial_error;
};

void count_outcome(const char* kind, Outcome o, strategy::StrategyId used,
                   SimTime vtime, SimTime at) {
  // Timeline twin of the counters below (opt-in), bucketed at the trial's
  // absolute completion instant so trial density lines up with the fleet
  // and fault series on one axis.
  if (obs::Timeline* tl = obs::Timeline::current()) {
    const obs::TimelineLabels lbl{{"kind", kind}};
    tl->count("exp.trials", lbl, at);
    if (o == Outcome::kSuccess) tl->count("exp.trial_success", lbl, at);
  }
  auto& reg = obs::MetricsRegistry::current();
  TrialCounters& m =
      obs::bind_per_thread<TrialCounters>([](obs::MetricsRegistry& r) {
        return TrialCounters{r.counter("exp.trial_total"),
                             r.counter("exp.trial_success"),
                             r.counter("exp.trial_failure1"),
                             r.counter("exp.trial_failure2"),
                             r.counter("exp.trial_error")};
      });
  obs::Counter& total = m.total;
  obs::Counter& success = m.success;
  obs::Counter& failure1 = m.failure1;
  obs::Counter& failure2 = m.failure2;
  obs::Counter& trial_error = m.trial_error;
  total.inc();
  switch (o) {
    case Outcome::kSuccess: success.inc(); break;
    case Outcome::kFailure1: failure1.inc(); break;
    case Outcome::kFailure2: failure2.inc(); break;
    case Outcome::kTrialError: trial_error.inc(); break;
  }
  reg.counter(std::string("exp.") + kind + "_trials").inc();
  reg.histogram(std::string("exp.vtime.") + to_string(o) + "." +
                    strategy::to_string(used),
                obs::exponential_buckets(1.0, 2.0, 17))
      .observe(vtime.millis());
}

}  // namespace

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kSuccess: return "success";
    case Outcome::kFailure1: return "failure-1";
    case Outcome::kFailure2: return "failure-2";
    case Outcome::kTrialError: return "trial-error";
  }
  return "?";
}

bool looks_like_gfw_reset(const net::Packet& rst,
                          std::optional<u8> reference_ttl) {
  if (!rst.is_tcp() || !rst.tcp->flags.rst) return false;
  if (!reference_ttl) return true;  // no legit reference: assume censor
  const int delta = std::abs(static_cast<int>(rst.ip.ttl) -
                             static_cast<int>(*reference_ttl));
  return delta > 3;
}

ResetClassification classify_client_log(const std::vector<net::Packet>& log) {
  ResetClassification out;
  std::optional<u8> reference_ttl;
  for (const auto& pkt : log) {
    if (!pkt.is_tcp()) continue;
    const bool legit_looking =
        !pkt.tcp->flags.rst &&
        (!pkt.payload.empty() ||
         (pkt.tcp->flags.syn && pkt.tcp->flags.ack));
    if (legit_looking && !reference_ttl) reference_ttl = pkt.ip.ttl;
  }

  std::vector<const net::Packet*> resets;
  for (const auto& pkt : log) {
    if (pkt.is_tcp() && pkt.tcp->flags.rst) resets.push_back(&pkt);
  }
  for (const net::Packet* rst : resets) {
    bool gfw = looks_like_gfw_reset(*rst, reference_ttl);
    if (!gfw) {
      // Second fingerprint: part of a type-2 volley.
      for (const net::Packet* other : resets) {
        if (other == rst) continue;
        const u32 gap = other->tcp->seq - rst->tcp->seq;
        if (gap == 1460 || gap == 4380 || gap == 2920) {
          gfw = true;
          break;
        }
      }
    }
    (gfw ? out.gfw_reset_seen : out.other_reset_seen) = true;
  }
  return out;
}

namespace {

void classify_resets(const std::vector<net::Packet>& log, bool* gfw_seen,
                     bool* other_seen) {
  const ResetClassification c = classify_client_log(log);
  *gfw_seen = c.gfw_reset_seen;
  *other_seen = c.other_reset_seen;
}

/// Client-side evasion plumbing shared by all trial kinds.
struct Evasion {
  std::optional<strategy::StrategyEngine> engine;
  std::optional<intang::Intang> intang;
};

void setup_evasion(Scenario& sc, bool use_intang,
                   strategy::StrategyId strategy,
                   intang::StrategySelector* shared_selector,
                   net::IpAddr dns_resolver, Evasion& out,
                   const std::function<std::unique_ptr<strategy::Strategy>()>&
                       factory = {}) {
  if (use_intang) {
    intang::Intang::Config cfg;
    cfg.knowledge = sc.knowledge();
    cfg.tcp_dns_resolver = dns_resolver;
    if (strategy != strategy::StrategyId::kNone && shared_selector == nullptr) {
      cfg.selector.candidates = {strategy};
    }
    out.intang.emplace(sc.client(), cfg, sc.fork_rng(), shared_selector);
    return;
  }
  if (factory) {
    out.engine.emplace(sc.client(),
                       [factory](const net::FourTuple&) { return factory(); },
                       sc.knowledge(), sc.fork_rng());
    out.engine->install();
    return;
  }
  if (strategy == strategy::StrategyId::kNone) return;
  out.engine.emplace(
      sc.client(),
      [strategy](const net::FourTuple&) {
        return strategy::make_strategy(strategy);
      },
      sc.knowledge(), sc.fork_rng());
  out.engine->install();
}

/// Serve HTTP on port 80: reply 200 OK once a full request has arrived.
void serve_http(tcp::Host& server) {
  auto responded = std::make_shared<std::unordered_set<const void*>>();
  server.listen(80, [responded](tcp::TcpEndpoint& ep, ByteView) {
    if (!app::http_request_complete(ep.received_stream())) return;
    if (!responded->insert(&ep).second) return;
    ep.send_data(app::build_http_response(
        "<html><body>the quick brown fox jumps over the lazy dog"
        "</body></html>"));
  });
}

}  // namespace

TrialResult run_http_trial(Scenario& scenario, const HttpTrialOptions& opt) {
  obs::perf::ScopedPhase phase_timer("exp.http_trial");
  TrialResult result;
  result.strategy_used = opt.strategy;

  serve_http(scenario.server());

  Evasion evasion;
  setup_evasion(scenario, opt.use_intang, opt.strategy, opt.shared_selector,
                /*dns_resolver=*/0, evasion, opt.strategy_factory);

  const Bytes request = app::build_http_get(
      scenario.options().server.host,
      opt.with_keyword ? "/search?q=ultrasurf" : "/search?q=flowers");

  tcp::TcpEndpoint* conn = nullptr;
  tcp::TcpEndpoint::Callbacks cb;
  cb.on_established = [&conn, request] {
    if (conn != nullptr) conn->send_data(request);
  };
  conn = &scenario.client().connect(scenario.options().server.ip, 80,
                                    /*src_port=*/40001, std::move(cb));
  scenario.run();

  std::optional<strategy::StrategyId> intang_choice;
  if (opt.use_intang && evasion.intang) {
    if (auto choice = evasion.intang->choice_for(conn->tuple())) {
      intang_choice = choice->id;
      result.strategy_used = choice->id;
      result.pick_source = choice->source;
    }
  }

  result.response_received =
      app::http_response_complete(conn->received_stream());
  classify_resets(scenario.client().received_log(), &result.gfw_reset_seen,
                  &result.other_reset_seen);

  if (result.gfw_reset_seen) {
    result.outcome = Outcome::kFailure2;
  } else if (result.response_received) {
    result.outcome = Outcome::kSuccess;
  } else {
    result.outcome = Outcome::kFailure1;
  }
  // A cut-off simulation is not a verdict (and not strategy feedback).
  if (scenario.last_run().aborted()) result.outcome = Outcome::kTrialError;

  // INTANG also counts a timed-out connection against the strategy it
  // chose; without this it could never learn around Failure 1 paths.
  if (intang_choice && result.outcome != Outcome::kTrialError) {
    evasion.intang->selector().report(scenario.options().server.ip,
                                      *intang_choice,
                                      result.outcome == Outcome::kSuccess,
                                      scenario.loop().now());
  }
  count_outcome("http", result.outcome, result.strategy_used,
                scenario.loop().now() - scenario.options().start_time,
                scenario.loop().now());
  return result;
}

DnsTrialResult run_dns_trial(Scenario& scenario, const DnsTrialOptions& opt) {
  DnsTrialResult result;
  const net::IpAddr resolver =
      opt.resolver_ip != 0 ? opt.resolver_ip : scenario.options().server.ip;
  const net::IpAddr true_answer = net::make_ip(162, 125, 32, 13);

  // The scenario's server host doubles as the resolver: UDP and TCP DNS.
  tcp::Host& srv = scenario.server();
  srv.bind_udp(53, [&srv, true_answer](const net::FourTuple& from,
                                       ByteView payload) {
    auto query = app::dns_parse(payload);
    if (!query.ok() || query.value().is_response) return;
    srv.send_udp(from.reversed(),
                 app::dns_encode(app::make_response(query.value(),
                                                    true_answer)));
  });
  auto offsets = std::make_shared<
      std::unordered_map<const void*, std::size_t>>();
  srv.listen(53, [offsets, true_answer](tcp::TcpEndpoint& ep, ByteView) {
    std::size_t& off = (*offsets)[&ep];
    for (const auto& msg : app::dns_tcp_extract(ep.received_stream(), &off)) {
      if (msg.is_response) continue;
      ep.send_data(app::dns_tcp_frame(app::make_response(msg, true_answer)));
    }
  });

  Evasion evasion;
  setup_evasion(scenario, opt.use_intang, opt.strategy, opt.shared_selector,
                opt.use_intang ? resolver : 0, evasion);

  // The client application: plain UDP query, first answer wins.
  std::optional<net::IpAddr> first_answer;
  scenario.client().bind_udp(
      5353, [&first_answer](const net::FourTuple&, ByteView payload) {
        auto msg = app::dns_parse(payload);
        if (!msg.ok() || !msg.value().is_response) return;
        if (first_answer || msg.value().answers.empty()) return;
        first_answer = msg.value().answers.front().address;
      });

  const net::FourTuple query_tuple{scenario.options().vp.address, 5353,
                                   resolver, 53};
  scenario.client().send_udp(
      query_tuple, app::dns_encode(app::make_query(0x1234, opt.domain)));
  scenario.run();

  result.answered = first_answer.has_value();
  result.poisoned = first_answer && *first_answer != true_answer;
  if (result.answered && !result.poisoned) {
    bool gfw = false;
    bool other = false;
    classify_resets(scenario.client().received_log(), &gfw, &other);
    result.outcome = gfw ? Outcome::kFailure2 : Outcome::kSuccess;
    if (result.outcome == Outcome::kFailure2) result.answered = false;
  } else if (result.poisoned) {
    result.outcome = Outcome::kFailure2;
  } else {
    bool gfw = false;
    bool other = false;
    classify_resets(scenario.client().received_log(), &gfw, &other);
    result.outcome = gfw ? Outcome::kFailure2 : Outcome::kFailure1;
  }
  if (scenario.last_run().aborted()) {
    result.outcome = Outcome::kTrialError;
    result.answered = false;
  }
  if (evasion.intang) {
    const intang::DnsForwarder* fwd = evasion.intang->dns_forwarder();
    if (fwd != nullptr && fwd->connection() != nullptr) {
      if (auto id = evasion.intang->strategy_for(fwd->connection()->tuple())) {
        result.strategy_used = *id;
      }
    }
  }
  count_outcome("dns", result.outcome, opt.strategy,
                scenario.loop().now() - scenario.options().start_time,
                scenario.loop().now());
  return result;
}

TorTrialResult run_tor_trial(Scenario& scenario, const TorTrialOptions& opt) {
  TorTrialResult result;

  auto responded = std::make_shared<std::unordered_set<const void*>>();
  scenario.server().listen(443, [responded](tcp::TcpEndpoint& ep, ByteView) {
    if (!app::is_tor_client_hello(ep.received_stream())) return;
    if (!responded->insert(&ep).second) return;
    ep.send_data(app::build_tor_server_hello());
  });

  Evasion evasion;
  setup_evasion(scenario, opt.use_intang, opt.strategy, opt.shared_selector,
                /*dns_resolver=*/0, evasion);

  tcp::TcpEndpoint* conn = nullptr;
  tcp::TcpEndpoint::Callbacks cb;
  cb.on_established = [&conn] {
    if (conn != nullptr) conn->send_data(app::build_tor_client_hello());
  };
  conn = &scenario.client().connect(scenario.options().server.ip, 443,
                                    /*src_port=*/40002, std::move(cb));
  scenario.run();

  std::optional<strategy::StrategyId> intang_choice;
  if (opt.use_intang && evasion.intang) {
    if (auto choice = evasion.intang->choice_for(conn->tuple())) {
      intang_choice = choice->id;
      result.strategy_used = choice->id;
    }
  } else {
    result.strategy_used = opt.strategy;
  }

  // Under an active fault plan, single-byte corruption must degrade the
  // trial gracefully (Failure 1), not flip the matcher: accept a reply
  // whose fingerprint is off by at most one byte. Clean runs keep the
  // strict predicate, so fault-free results are unchanged bit for bit.
  const faults::FaultPlan* plan = scenario.options().faults;
  result.handshake_completed =
      (plan != nullptr && !plan->empty())
          ? app::is_tor_bridge_response_lenient(conn->received_stream())
          : app::is_tor_bridge_response(conn->received_stream());
  result.bridge_ip_blocked =
      scenario.gfw_type2().ip_blocked(scenario.options().server.ip);

  bool gfw = false;
  bool other = false;
  classify_resets(scenario.client().received_log(), &gfw, &other);
  if (gfw || result.bridge_ip_blocked) {
    result.outcome = Outcome::kFailure2;
  } else if (result.handshake_completed) {
    result.outcome = Outcome::kSuccess;
  } else {
    result.outcome = Outcome::kFailure1;
  }
  if (scenario.last_run().aborted()) result.outcome = Outcome::kTrialError;

  if (intang_choice && result.outcome != Outcome::kTrialError) {
    evasion.intang->selector().report(scenario.options().server.ip,
                                      *intang_choice,
                                      result.outcome == Outcome::kSuccess,
                                      scenario.loop().now());
  }
  count_outcome("tor", result.outcome, result.strategy_used,
                scenario.loop().now() - scenario.options().start_time,
                scenario.loop().now());
  return result;
}

TrialResult run_vpn_trial(Scenario& scenario, const VpnTrialOptions& opt) {
  TrialResult result;
  result.strategy_used = opt.strategy;

  auto responded = std::make_shared<std::unordered_set<const void*>>();
  scenario.server().listen(1194, [responded](tcp::TcpEndpoint& ep, ByteView) {
    if (!app::is_openvpn_client_reset(ep.received_stream())) return;
    if (!responded->insert(&ep).second) return;
    ep.send_data(app::build_openvpn_server_reset());
  });

  Evasion evasion;
  setup_evasion(scenario, opt.use_intang, opt.strategy, opt.shared_selector,
                /*dns_resolver=*/0, evasion);

  tcp::TcpEndpoint* conn = nullptr;
  tcp::TcpEndpoint::Callbacks cb;
  cb.on_established = [&conn] {
    if (conn != nullptr) conn->send_data(app::build_openvpn_client_reset());
  };
  conn = &scenario.client().connect(scenario.options().server.ip, 1194,
                                    /*src_port=*/40003, std::move(cb));
  scenario.run();

  std::optional<strategy::StrategyId> intang_choice;
  if (opt.use_intang && evasion.intang) {
    intang_choice = evasion.intang->strategy_for(conn->tuple());
    if (intang_choice) result.strategy_used = *intang_choice;
  }

  result.response_received = !conn->received_stream().empty();
  classify_resets(scenario.client().received_log(), &result.gfw_reset_seen,
                  &result.other_reset_seen);
  if (result.gfw_reset_seen) {
    result.outcome = Outcome::kFailure2;
  } else if (result.response_received) {
    result.outcome = Outcome::kSuccess;
  } else {
    result.outcome = Outcome::kFailure1;
  }
  if (scenario.last_run().aborted()) result.outcome = Outcome::kTrialError;
  if (intang_choice && result.outcome != Outcome::kTrialError) {
    evasion.intang->selector().report(scenario.options().server.ip,
                                      *intang_choice,
                                      result.outcome == Outcome::kSuccess,
                                      scenario.loop().now());
  }
  count_outcome("vpn", result.outcome, result.strategy_used,
                scenario.loop().now() - scenario.options().start_time,
                scenario.loop().now());
  return result;
}

}  // namespace ys::exp
