// Trial runners and the paper's Success / Failure 1 / Failure 2
// classification (§3.4).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "exp/scenario.h"
#include "intang/intang.h"

namespace ys::exp {

/// §3.4: Success = application response received and no GFW resets seen;
/// Failure 1 = no response, no GFW resets; Failure 2 = GFW resets seen.
/// kTrialError is not a §3.4 class: the simulation itself was cut off
/// (event-loop cap or virtual-time deadline), so the verdict would be read
/// off a partial run — surfaced distinctly so it can never pass as one.
enum class Outcome { kSuccess, kFailure1, kFailure2, kTrialError };

const char* to_string(Outcome o);

struct TrialResult {
  Outcome outcome = Outcome::kFailure1;
  bool response_received = false;
  bool gfw_reset_seen = false;
  bool other_reset_seen = false;  // e.g. a server RST (insertion side effect)
  strategy::StrategyId strategy_used = strategy::StrategyId::kNone;
  /// Where INTANG's pick came from (cache hit, store hit, cold, ...);
  /// absent for fixed-strategy trials. Fleet sweeps read this to credit
  /// the cache entry that supplied a flow's strategy.
  std::optional<intang::StrategySelector::Choice::Source> pick_source;
};

/// Classify the reset packets a client received: GFW-injected resets are
/// fingerprinted by their arrival TTL deviating from the reference TTL of
/// legitimate server packets (the devices inject from mid-path, so their
/// packets cross fewer hops) — the same heuristic the measurement
/// community uses.
bool looks_like_gfw_reset(const net::Packet& rst,
                          std::optional<u8> reference_ttl);

/// Full-log classification: split observed resets into censor-looking and
/// server-looking using both fingerprints — TTL deviation from legitimate
/// reference packets, and membership in a type-2 volley (sequence numbers
/// spaced by the X/X+1460/X+4380 pattern of §2.1).
struct ResetClassification {
  bool gfw_reset_seen = false;
  bool other_reset_seen = false;
};
ResetClassification classify_client_log(const std::vector<net::Packet>& log);

struct HttpTrialOptions {
  bool with_keyword = true;
  /// Fixed strategy, or INTANG-adaptive when `use_intang` is set.
  strategy::StrategyId strategy = strategy::StrategyId::kNone;
  bool use_intang = false;
  /// Persistent selector for INTANG mode (strategy knowledge across
  /// trials); optional.
  intang::StrategySelector* shared_selector = nullptr;
  /// Custom per-connection strategy builder (ys::search candidate
  /// programs run through this). When set it takes precedence over
  /// `strategy`; ignored in INTANG mode.
  std::function<std::unique_ptr<strategy::Strategy>()> strategy_factory;
};

/// One §3/§7.1 probe: HTTP GET whose query string carries the sensitive
/// keyword; the server answers 200 OK.
TrialResult run_http_trial(Scenario& scenario, const HttpTrialOptions& opt);

struct DnsTrialOptions {
  std::string domain = "www.dropbox.com";
  net::IpAddr resolver_ip = 0;  // defaults to the scenario server's address
  bool use_intang = true;       // UDP→TCP conversion + evasion
  strategy::StrategyId strategy = strategy::StrategyId::kImprovedTeardown;
  /// Persistent selector: lets INTANG converge on a working strategy for
  /// the resolver across repeated queries (full candidate set when set).
  intang::StrategySelector* shared_selector = nullptr;
};

struct DnsTrialResult {
  bool answered = false;
  bool poisoned = false;       // first answer was a forged/bogus address
  Outcome outcome = Outcome::kFailure1;
  /// The strategy INTANG armed for the forwarder's TCP connection; kNone
  /// for a bare UDP query.
  strategy::StrategyId strategy_used = strategy::StrategyId::kNone;
};

/// One §7.2 probe: resolve a censored domain. Without INTANG the UDP query
/// is poisoned; with INTANG it travels DNS-over-TCP under an evasion
/// strategy.
DnsTrialResult run_dns_trial(Scenario& scenario, const DnsTrialOptions& opt);

struct TorTrialOptions {
  bool use_intang = false;
  strategy::StrategyId strategy = strategy::StrategyId::kImprovedTeardown;
  /// Persistent selector (INTANG mode): knowledge accumulates across
  /// bridge connections.
  intang::StrategySelector* shared_selector = nullptr;
};

struct TorTrialResult {
  bool handshake_completed = false;
  bool bridge_ip_blocked = false;  // active probing aftermath
  Outcome outcome = Outcome::kFailure1;
  strategy::StrategyId strategy_used = strategy::StrategyId::kNone;
};

/// One §7.3 probe: connect to a hidden Tor bridge and complete the first
/// TLS exchange.
TorTrialResult run_tor_trial(Scenario& scenario, const TorTrialOptions& opt);

struct VpnTrialOptions {
  bool use_intang = false;
  strategy::StrategyId strategy = strategy::StrategyId::kImprovedTeardown;
  /// Persistent selector (INTANG mode).
  intang::StrategySelector* shared_selector = nullptr;
};

/// One §7.3 probe: OpenVPN-over-TCP handshake against VPN-DPI devices.
TrialResult run_vpn_trial(Scenario& scenario, const VpnTrialOptions& opt);

}  // namespace ys::exp
