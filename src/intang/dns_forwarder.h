// INTANG's DNS forwarder (§6): transparently converts the application's
// UDP DNS queries into DNS-over-TCP toward an unpolluted resolver, so the
// TCP-layer evasion strategies shield name resolution from both UDP
// poisoning and TCP resets. Responses are converted back to UDP and appear
// to come from the original resolver — fully transparent to applications.
#pragma once

#include <unordered_map>

#include "app/dns.h"
#include "tcpstack/host.h"

namespace ys::intang {

class DnsForwarder {
 public:
  struct Config {
    net::IpAddr resolver = 0;  // the unpolluted TCP resolver to use
    u16 resolver_port = 53;
  };

  DnsForwarder(tcp::Host& client, Config cfg)
      : client_(client), cfg_(cfg) {}

  /// Inspect one outgoing packet from INTANG's egress hook. UDP queries to
  /// port 53 are swallowed (kDrop) and re-issued over TCP; everything else
  /// passes.
  tcp::Host::Verdict intercept(const net::Packet& pkt);

  /// The forwarder's latest TCP connection to the resolver (nullptr
  /// before the first query).
  const tcp::TcpEndpoint* connection() const { return conn_; }

  int queries_converted() const { return converted_; }
  int responses_returned() const { return returned_; }

 private:
  void ensure_connection();
  void on_resolver_data(ByteView chunk);

  struct PendingQuery {
    /// Tuple of the original UDP query (client view) so the response can
    /// be forged back from the address the application queried.
    net::FourTuple original;
  };

  tcp::Host& client_;
  Config cfg_;
  tcp::TcpEndpoint* conn_ = nullptr;
  Bytes stream_;
  std::size_t parse_offset_ = 0;
  std::unordered_map<u16, PendingQuery> pending_;
  int converted_ = 0;
  int returned_ = 0;
};

}  // namespace ys::intang
