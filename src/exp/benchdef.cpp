#include "exp/benchdef.h"

#include <cstdio>
#include <cstdlib>


namespace ys::exp {

const std::array<Table1Bench::Row, 16>& Table1Bench::rows() {
  static const std::array<Row, 16> kRows = {{
      {strategy::StrategyId::kNone, "No Strategy", "N/A"},
      {strategy::StrategyId::kTcbCreationSynTtl, "TCB creation with SYN",
       "TTL"},
      {strategy::StrategyId::kTcbCreationSynBadChecksum,
       "TCB creation with SYN", "Bad checksum"},
      {strategy::StrategyId::kOutOfOrderIpFragments,
       "Reassembly out-of-order data", "IP fragments"},
      {strategy::StrategyId::kOutOfOrderTcpSegments,
       "Reassembly out-of-order data", "TCP segments"},
      {strategy::StrategyId::kInOrderTtl, "Reassembly in-order data", "TTL"},
      {strategy::StrategyId::kInOrderBadAck, "Reassembly in-order data",
       "Bad ACK number"},
      {strategy::StrategyId::kInOrderBadChecksum, "Reassembly in-order data",
       "Bad checksum"},
      {strategy::StrategyId::kInOrderNoFlags, "Reassembly in-order data",
       "No TCP flag"},
      {strategy::StrategyId::kTeardownRstTtl, "TCB teardown with RST", "TTL"},
      {strategy::StrategyId::kTeardownRstBadChecksum, "TCB teardown with RST",
       "Bad checksum"},
      {strategy::StrategyId::kTeardownRstAckTtl, "TCB teardown with RST/ACK",
       "TTL"},
      {strategy::StrategyId::kTeardownRstAckBadChecksum,
       "TCB teardown with RST/ACK", "Bad checksum"},
      {strategy::StrategyId::kTeardownFinTtl, "TCB teardown with FIN", "TTL"},
      {strategy::StrategyId::kTeardownFinBadChecksum, "TCB teardown with FIN",
       "Bad checksum"},
      // Extra row (not in Table 1): the West Chamber Project's tool, which
      // §1/§9 report as no longer effective.
      {strategy::StrategyId::kWestChamber, "West Chamber [25] (extra row)",
       "TTL"},
  }};
  return kRows;
}

const std::array<Table4Inside::Row, 4>& Table4Inside::rows() {
  static const std::array<Row, 4> kRows = {{
      {strategy::StrategyId::kImprovedTeardown, "Improved TCB Teardown",
       0.958},
      {strategy::StrategyId::kImprovedInOrder,
       "Improved In-order Data Overlapping", 0.945},
      {strategy::StrategyId::kCreationResyncDesync,
       "TCB Creation + Resync/Desync", 0.956},
      {strategy::StrategyId::kTeardownReversal,
       "TCB Teardown + TCB Reversal", 0.962},
  }};
  return kRows;
}

namespace {

/// Parse a BenchScale's fault spec; a bad spec is a usage error, not a
/// silent fault-free run.
faults::FaultPlan parse_scale_plan(const std::string& spec) {
  if (spec.empty()) return {};
  std::string error;
  faults::FaultPlan plan = faults::parse_fault_plan(spec, error);
  if (!error.empty()) {
    std::fprintf(stderr, "--faults: %s\n", error.c_str());
    std::exit(2);
  }
  return plan;
}

/// The probe fetch of every HTTP bench row: under INTANG against `selector`
/// when set, otherwise under the fixed `strategy`.
HttpTrialOptions fetch(bool keyword, strategy::StrategyId strategy,
                       intang::StrategySelector* selector) {
  HttpTrialOptions http;
  http.with_keyword = keyword;
  http.strategy = strategy;
  http.use_intang = selector != nullptr;
  http.shared_selector = selector;
  return http;
}

}  // namespace

// ----------------------------------------------------------- bench world

BenchWorld::BenchWorld(BenchScale scale)
    : BenchWorld(scale, make_server_population(scale.servers, scale.seed,
                                               Calibration::standard(),
                                               /*inside_china=*/true)) {}

BenchWorld::BenchWorld(BenchScale scale, std::vector<ServerSpec> servers)
    : scale_(std::move(scale)),
      cal_(Calibration::standard()),
      rules_(gfw::DetectionRules::standard()),
      vps_(china_vantage_points()),
      servers_(std::move(servers)),
      plan_(parse_scale_plan(scale_.faults)),
      profiles_(vps_, servers_, cal_) {}

ScenarioOptions BenchWorld::scenario_options(
    std::size_t vantage, std::size_t server, u64 seed, bool tracing,
    const faults::FaultPlan& plan) const {
  ScenarioOptions opt;
  opt.vp = vps_[vantage];
  opt.server = servers_[server];
  opt.cal = cal_;
  opt.seed = seed;
  opt.profile = profiles_.get(vantage, server);
  opt.tracing = tracing;
  if (!plan.empty()) opt.faults = &plan;
  return opt;
}

TrialResult BenchWorld::run_http(HttpTrial trial) const {
  Scenario sc(&rules_, std::move(trial.scenario));
  return run_http_trial(sc, trial.http);
}

Replay BenchWorld::replay_http(HttpTrial trial, const std::string& trace_path,
                               const std::string& pcap_path) const {
  Scenario sc(&rules_, std::move(trial.scenario));
  return run_traced(
      sc, [&trial](Scenario& s) { return run_http_trial(s, trial.http); },
      trace_path, pcap_path);
}

// ------------------------------------------------------------- Table 1

runner::TrialGrid Table1Bench::grid() const {
  runner::TrialGrid grid;
  grid.cells = rows().size() * 2;
  grid.vantages = vps_.size();
  grid.servers = servers_.size();
  grid.trials = static_cast<std::size_t>(scale_.trials);
  return grid;
}

BenchWorld::HttpTrial Table1Bench::trial_for(const runner::GridCoord& c,
                                             bool tracing) const {
  const strategy::StrategyId id = rows()[row_of(c.cell)].id;
  const u64 seed = Rng::mix_seed(
      {scale_.seed, static_cast<u64>(id), Rng::hash_label(vps_[c.vantage].name),
       servers_[c.server].ip, static_cast<u64>(c.trial),
       keyword_cell(c.cell) ? 1u : 0u});
  return {scenario_options(c.vantage, c.server, seed, tracing, plan_),
          fetch(keyword_cell(c.cell), id, nullptr)};
}

TrialResult Table1Bench::run_trial(const runner::GridCoord& c) const {
  return run_http(trial_for(c, /*tracing=*/false));
}

Replay Table1Bench::replay(const runner::GridCoord& c,
                           const std::string& trace_path,
                           const std::string& pcap_path) const {
  return replay_http(trial_for(c, /*tracing=*/true), trace_path, pcap_path);
}

// ------------------------------------------------------------- Table 4

runner::TrialGrid Table4Inside::fixed_grid() const {
  runner::TrialGrid grid;
  grid.cells = rows().size();
  grid.vantages = vps_.size();
  grid.servers = servers_.size();
  grid.trials = static_cast<std::size_t>(scale_.trials);
  return grid;
}

runner::TrialGrid Table4Inside::intang_grid() const {
  runner::TrialGrid grid;
  grid.vantages = vps_.size();
  grid.servers = servers_.size();
  grid.trials = static_cast<std::size_t>(scale_.trials);
  grid.chain_trials = true;
  return grid;
}

BenchWorld::HttpTrial Table4Inside::fixed_trial(const runner::GridCoord& c,
                                                bool tracing) const {
  const strategy::StrategyId id = rows()[c.cell].id;
  const u64 seed = Rng::mix_seed({scale_.seed, static_cast<u64>(id),
                                  Rng::hash_label(vps_[c.vantage].name),
                                  servers_[c.server].ip,
                                  static_cast<u64>(c.trial)});
  return {scenario_options(c.vantage, c.server, seed, tracing, plan_),
          fetch(/*keyword=*/true, id, nullptr)};
}

BenchWorld::HttpTrial Table4Inside::intang_trial(
    const runner::GridCoord& c, intang::StrategySelector& selector,
    bool tracing) const {
  const u64 seed = Rng::mix_seed({scale_.seed, 0x1474a6ULL,
                                  Rng::hash_label(vps_[c.vantage].name),
                                  servers_[c.server].ip,
                                  static_cast<u64>(c.trial)});
  return {scenario_options(c.vantage, c.server, seed, tracing, plan_),
          fetch(/*keyword=*/true, strategy::StrategyId::kNone, &selector)};
}

TrialResult Table4Inside::run_fixed(const runner::GridCoord& c) const {
  return run_http(fixed_trial(c, /*tracing=*/false));
}

TrialResult Table4Inside::run_intang(const runner::GridCoord& c,
                                     intang::StrategySelector& selector) const {
  return run_http(intang_trial(c, selector, /*tracing=*/false));
}

Replay Table4Inside::replay_fixed(const runner::GridCoord& c,
                                  const std::string& trace_path,
                                  const std::string& pcap_path) const {
  return replay_http(fixed_trial(c, /*tracing=*/true), trace_path, pcap_path);
}

Replay Table4Inside::replay_intang(const runner::GridCoord& c,
                                   const std::string& trace_path,
                                   const std::string& pcap_path) const {
  intang::StrategySelector selector{intang::StrategySelector::Config{}};
  replay_chain_prefix(c, selector, [this](const auto& p, auto& s) {
    return run_intang(p, s);
  });
  return replay_http(intang_trial(c, selector, /*tracing=*/true), trace_path,
                     pcap_path);
}

// -------------------------------------------------------------- Faults

FaultsBench::FaultsBench(BenchScale scale)
    : BenchWorld(std::move(scale)),
      plans_(scale_.faults.empty() ? faults::shipped_fault_plans()
                                   : std::vector<faults::FaultPlan>{plan_}) {}

runner::TrialGrid FaultsBench::grid() const {
  runner::TrialGrid grid;
  grid.cells = plans_.size() * 2;
  grid.vantages = vps_.size();
  grid.servers = servers_.size();
  grid.trials = static_cast<std::size_t>(scale_.trials);
  grid.chain_trials = true;
  return grid;
}

BenchWorld::HttpTrial FaultsBench::trial_for(
    const runner::GridCoord& c, intang::StrategySelector& selector,
    bool tracing) const {
  const u64 seed = Rng::mix_seed({scale_.seed, 0xFA0175ULL,
                                  static_cast<u64>(c.cell),
                                  Rng::hash_label(vps_[c.vantage].name),
                                  servers_[c.server].ip,
                                  static_cast<u64>(c.trial)});
  // Baseline cells never touch the selector.
  HttpTrial trial{scenario_options(c.vantage, c.server, seed, tracing,
                                   plans_[plan_of(c.cell)]),
                  fetch(/*keyword=*/true, strategy::StrategyId::kNone,
                        intang_cell(c.cell) ? &selector : nullptr)};
  // Generous virtual-time deadline: honest trials quiesce in simulated
  // seconds, so only a trial a fault plan wedged (e.g. a reorder loop that
  // keeps re-arming timers) hits this and becomes kTrialError.
  trial.scenario.deadline = SimTime::from_sec(120);
  return trial;
}

TrialResult FaultsBench::run_trial(const runner::GridCoord& c,
                                   intang::StrategySelector& selector) const {
  return run_http(trial_for(c, selector, /*tracing=*/false));
}

Replay FaultsBench::replay(const runner::GridCoord& c,
                           const std::string& trace_path,
                           const std::string& pcap_path) const {
  intang::StrategySelector selector{intang::StrategySelector::Config{}};
  replay_chain_prefix(c, selector, [this](const auto& p, auto& s) {
    return run_trial(p, s);
  });
  return replay_http(trial_for(c, selector, /*tracing=*/true), trace_path,
                     pcap_path);
}

// ------------------------------------------------------------- Table 6

const std::array<Table6Dns::Resolver, 3>& Table6Dns::resolvers() {
  static const std::array<Resolver, 3> kResolvers = {{
      {"Dyn 1 (216.146.35.35)", net::make_ip(216, 146, 35, 35), true},
      {"Dyn 2 (216.146.36.36)", net::make_ip(216, 146, 36, 36), true},
      {"OpenDNS (208.67.222.222, no INTANG)", net::make_ip(208, 67, 222, 222),
       false},
  }};
  return kResolvers;
}

Table6Dns::Table6Dns(BenchScale scale)
    : BenchWorld(std::move(scale), [] {
        std::vector<ServerSpec> specs;
        for (const Resolver& r : resolvers()) {
          ServerSpec spec;
          spec.host = r.label;
          spec.ip = r.ip;
          spec.version = tcp::LinuxVersion::k4_4;
          specs.push_back(spec);
        }
        return specs;
      }()),
      uncensored_(rules_) {
  uncensored_.dns_blacklist.clear();  // OpenDNS paths: no DNS censorship
}

runner::TrialGrid Table6Dns::grid() const {
  runner::TrialGrid grid;
  grid.cells = resolvers().size();
  grid.vantages = vps_.size();
  grid.trials = static_cast<std::size_t>(scale_.trials);
  grid.chain_trials = true;
  return grid;
}

Table6Dns::Query Table6Dns::query_for(const runner::GridCoord& c,
                                      intang::StrategySelector& selector,
                                      bool tracing) const {
  const Resolver& resolver = resolvers()[c.cell];
  const u64 seed =
      Rng::mix_seed({scale_.seed, resolver.ip,
                     Rng::hash_label(vps_[c.vantage].name),
                     static_cast<u64>(c.trial)});
  // The resolver is the cell axis (grids here have servers = 1), so the
  // pooled profile is indexed by (vantage, resolver).
  Query q{resolver.censored ? &rules_ : &uncensored_,
          scenario_options(c.vantage, c.cell, seed, tracing, plan_),
          {}};
  // Tianjin's resolver paths suffer stateful interference that blackholes
  // a large share of the TCP DNS flows (Table 6).
  Rng interference(Rng::mix_seed({seed, 0xd45ULL}));
  q.scenario.extra_stateful_client_box =
      q.scenario.vp.dns_path_interference &&
      interference.chance(cal_.tianjin_dns_interference);
  q.dns.domain = "www.dropbox.com";
  q.dns.resolver_ip = resolver.ip;
  // The OpenDNS row runs bare UDP and never touches the selector.
  q.dns.use_intang = resolver.censored;
  q.dns.strategy = strategy::StrategyId::kImprovedTeardown;
  q.dns.shared_selector = resolver.censored ? &selector : nullptr;
  return q;
}

DnsTrialResult Table6Dns::run_query(const runner::GridCoord& c,
                                    intang::StrategySelector& selector) const {
  Query q = query_for(c, selector, /*tracing=*/false);
  Scenario sc(q.rules, std::move(q.scenario));
  return run_dns_trial(sc, q.dns);
}

Replay Table6Dns::replay(const runner::GridCoord& c,
                         const std::string& trace_path,
                         const std::string& pcap_path) const {
  intang::StrategySelector selector{intang::StrategySelector::Config{}};
  replay_chain_prefix(c, selector, [this](const auto& p, auto& s) {
    return run_query(p, s);
  });
  Query q = query_for(c, selector, /*tracing=*/true);
  Scenario sc(q.rules, std::move(q.scenario));
  return run_traced(
      sc,
      [&q](Scenario& s) {
        const DnsTrialResult dns = run_dns_trial(s, q.dns);
        TrialResult result;
        result.outcome = dns.outcome;
        result.strategy_used = dns.strategy_used;
        return result;
      },
      trace_path, pcap_path);
}

const std::vector<std::string>& known_benches() {
  static const std::vector<std::string> kNames = {
      "table1", "table4-inside", "table4-intang", "table6-dns", "faults",
      "fleet"};
  return kNames;
}

}  // namespace ys::exp
