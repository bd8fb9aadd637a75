#include "netsim/packet.h"

#include <cstdio>

#include "core/checksum.h"
#include "netsim/wire.h"

namespace ys::net {

std::string TcpFlags::to_string() const {
  if (!any()) return "[none]";
  std::string s = "[";
  if (syn) s += 'S';
  if (fin) s += 'F';
  if (rst) s += 'R';
  if (psh) s += 'P';
  if (urg) s += 'U';
  if (ack) s += '.';
  s += ']';
  return s;
}

std::size_t TcpOptions::wire_length() const {
  std::size_t len = 0;
  if (mss) len += 4;
  if (window_scale) len += 3;
  if (sack_permitted) len += 2;
  if (timestamps) len += 10;
  if (md5_signature) len += 18;
  return (len + 3) & ~std::size_t{3};  // pad with NOPs to 4-byte multiple
}

u32 Packet::tcp_seq_end() const {
  if (!tcp) return 0;
  u32 end = tcp->seq + static_cast<u32>(payload.size());
  if (tcp->flags.syn) ++end;
  if (tcp->flags.fin) ++end;
  return end;
}

std::string Packet::summary() const {
  char buf[256];
  if (is_trailing_fragment()) {
    std::snprintf(buf, sizeof(buf), "FRAG %s->%s off=%u%s len=%zu ttl=%u",
                  ip_to_string(ip.src).c_str(), ip_to_string(ip.dst).c_str(),
                  ip.fragment_offset * 8u, ip.more_fragments ? "+" : "",
                  payload.size(), ip.ttl);
    return buf;
  }
  if (tcp) {
    std::snprintf(buf, sizeof(buf),
                  "TCP %s:%u->%s:%u %s seq=%u ack=%u ttl=%u len=%zu%s%s%s%s",
                  ip_to_string(ip.src).c_str(), tcp->src_port,
                  ip_to_string(ip.dst).c_str(), tcp->dst_port,
                  tcp->flags.to_string().c_str(), tcp->seq, tcp->ack, ip.ttl,
                  payload.size(),
                  tcp->options.md5_signature ? " md5" : "",
                  tcp->options.timestamps ? " ts" : "",
                  ip.is_fragmented() ? " frag0" : "",
                  transport_checksum_ok(*this) ? "" : " badcsum");
    return buf;
  }
  if (udp) {
    std::snprintf(buf, sizeof(buf), "UDP %s:%u->%s:%u ttl=%u len=%zu",
                  ip_to_string(ip.src).c_str(), udp->src_port,
                  ip_to_string(ip.dst).c_str(), udp->dst_port, ip.ttl,
                  payload.size());
    return buf;
  }
  std::snprintf(buf, sizeof(buf), "IP %s->%s proto=%u ttl=%u len=%zu",
                ip_to_string(ip.src).c_str(), ip_to_string(ip.dst).c_str(),
                static_cast<unsigned>(ip.protocol), ip.ttl, payload.size());
  return buf;
}

std::size_t wire_size(const Packet& pkt) {
  std::size_t transport = 0;
  if (pkt.tcp) {
    transport = 20 + pkt.tcp->options.wire_length();
  } else if (pkt.udp) {
    transport = 8;
  }
  return static_cast<std::size_t>(pkt.ip.ihl_words) * 4 + transport +
         pkt.payload.size();
}

bool ip_length_consistent(const Packet& pkt) {
  return pkt.ip.total_length == wire_size(pkt);
}

u16 correct_transport_checksum(const Packet& pkt) {
  // Fold over the segment's wire image with the checksum field zeroed —
  // exactly what an endpoint NIC/stack does — header and payload in place.
  const HeaderImage hdr = encode_transport_header(pkt, /*zero_checksum=*/true);
  const u8 proto = static_cast<u8>(pkt.ip.protocol);
  u16 sum = transport_checksum(pkt.ip.src, pkt.ip.dst, proto, hdr.view(),
                               pkt.payload);
  // Per RFC 768 a computed UDP checksum of 0 is transmitted as 0xFFFF.
  if (pkt.ip.protocol == IpProto::kUdp && sum == 0) sum = 0xFFFF;
  return sum;
}

bool transport_checksum_ok(const Packet& pkt) {
  if (pkt.is_trailing_fragment()) return true;  // verified after reassembly
  if (pkt.tcp) return pkt.tcp->checksum == correct_transport_checksum(pkt);
  if (pkt.udp) {
    if (pkt.udp->checksum == 0) return true;  // UDP checksum optional
    return pkt.udp->checksum == correct_transport_checksum(pkt);
  }
  return true;
}

void finalize(Packet& pkt) {
  // Keep the data offset consistent with the encoded options, unless a
  // caller deliberately corrupted it (short-TCP-header insertion packets).
  if (pkt.tcp && pkt.tcp->data_offset_words == 5 &&
      !pkt.tcp->options.empty()) {
    pkt.tcp->data_offset_words =
        static_cast<u8>(5 + pkt.tcp->options.wire_length() / 4);
  }
  if (pkt.ip.total_length == 0) {
    pkt.ip.total_length = static_cast<u16>(wire_size(pkt));
  }
  if (pkt.udp && pkt.udp->length == 0) {
    pkt.udp->length = static_cast<u16>(8 + pkt.payload.size());
  }
  if (!pkt.is_trailing_fragment()) {
    if (pkt.tcp && pkt.tcp->checksum == 0) {
      pkt.tcp->checksum = correct_transport_checksum(pkt);
    }
    if (pkt.udp && pkt.udp->checksum == 0) {
      pkt.udp->checksum = correct_transport_checksum(pkt);
    }
  }
  if (pkt.ip.header_checksum == 0) {
    pkt.ip.header_checksum = internet_checksum(
        encode_ip_header(pkt.ip, /*zero_checksum=*/true).view());
  }
}

Packet make_tcp_packet(const FourTuple& tuple, TcpFlags flags, u32 seq,
                       u32 ack, Bytes payload) {
  Packet pkt;
  pkt.ip.src = tuple.src_ip;
  pkt.ip.dst = tuple.dst_ip;
  pkt.ip.protocol = IpProto::kTcp;
  TcpHeader tcp;
  tcp.src_port = tuple.src_port;
  tcp.dst_port = tuple.dst_port;
  tcp.flags = flags;
  tcp.seq = seq;
  tcp.ack = ack;
  pkt.tcp = tcp;
  pkt.payload = std::move(payload);
  return pkt;
}

Packet make_udp_packet(const FourTuple& tuple, Bytes payload) {
  Packet pkt;
  pkt.ip.src = tuple.src_ip;
  pkt.ip.dst = tuple.dst_ip;
  pkt.ip.protocol = IpProto::kUdp;
  UdpHeader udp;
  udp.src_port = tuple.src_port;
  udp.dst_port = tuple.dst_port;
  pkt.udp = udp;
  pkt.payload = std::move(payload);
  return pkt;
}

}  // namespace ys::net
