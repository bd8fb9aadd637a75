#include "gfw/dns_poisoner.h"

#include <array>

#include "app/dns.h"

namespace ys::gfw {

net::IpAddr DnsPoisoner::bogus_address(Rng& rng) {
  // A handful of well-documented poison targets observed in the wild.
  static constexpr std::array<net::IpAddr, 4> kPool = {
      net::make_ip(8, 7, 198, 45),
      net::make_ip(59, 24, 3, 173),
      net::make_ip(46, 82, 174, 68),
      net::make_ip(93, 46, 8, 89),
  };
  return kPool[rng.uniform(kPool.size())];
}

void DnsPoisoner::process(net::Packet pkt, net::Dir dir, net::Forwarder& fwd) {
  // Only client→resolver UDP queries on port 53 are interesting; the tap
  // reads what it needs before the packet passes on, so nothing is copied.
  if (!pkt.is_udp() || pkt.udp->dst_port != 53) {
    fwd.forward(std::move(pkt));
    return;
  }
  auto parsed = app::dns_parse(pkt.payload);
  const net::FourTuple reply = pkt.tuple().reversed();
  fwd.forward(std::move(pkt));
  if (!parsed.ok() || parsed.value().is_response) return;
  const app::DnsMessage& query = parsed.value();

  for (const auto& q : query.questions) {
    if (!rules_->dns_blacklist.contains(q.qname)) continue;
    app::DnsMessage forged = app::make_response(query, bogus_address(rng_));
    net::Packet response = net::make_udp_packet(reply, app::dns_encode(forged));
    ++poisoned_;
    fwd.inject(std::move(response), net::opposite(dir), reaction_delay_);
    return;
  }
}

}  // namespace ys::gfw
