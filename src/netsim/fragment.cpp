#include "netsim/fragment.h"

#include <algorithm>
#include <cassert>

#include "netsim/wire.h"

namespace ys::net {

// Largest IPv4 datagram, header included (the 16-bit total-length field).
constexpr u32 kMaxDatagramBytes = 65535;

std::vector<Packet> fragment_packet(const Packet& pkt,
                                    std::size_t mtu_payload) {
  assert(!pkt.ip.is_fragmented());
  Bytes transport = serialize_transport(pkt);
  // Fragment offsets are expressed in 8-byte units, so every fragment except
  // the last must carry a multiple of 8 bytes.
  std::size_t chunk = std::max<std::size_t>(8, mtu_payload & ~std::size_t{7});
  if (transport.size() <= chunk) {
    // Fits without fragmentation: hand back the original datagram.
    return {pkt};
  }

  std::vector<Packet> out;
  for (std::size_t off = 0; off < transport.size(); off += chunk) {
    const std::size_t len = std::min(chunk, transport.size() - off);
    const bool more = off + len < transport.size();
    Bytes slice(transport.begin() + static_cast<long>(off),
                transport.begin() + static_cast<long>(off + len));
    out.push_back(make_raw_fragment(pkt, off, std::move(slice), more));
  }
  return out;
}

Packet make_raw_fragment(const Packet& whole, std::size_t offset_bytes,
                         Bytes bytes, bool more_fragments) {
  assert(offset_bytes % 8 == 0);
  Packet frag;
  frag.ip = whole.ip;
  frag.ip.total_length = 0;       // autofill for the slice
  frag.ip.header_checksum = 0;    // recompute
  frag.ip.fragment_offset = static_cast<u16>(offset_bytes / 8);
  frag.ip.more_fragments = more_fragments;
  frag.tcp.reset();
  frag.udp.reset();
  frag.payload = std::move(bytes);
  finalize(frag);
  return frag;
}

std::optional<Packet> FragmentReassembler::push(const Packet& pkt) {
  if (!pkt.ip.is_fragmented()) return pkt;

  const Key key{pkt.ip.src, pkt.ip.dst, pkt.ip.identification,
                static_cast<u8>(pkt.ip.protocol)};
  Partial& part = partial_[key];

  const std::size_t off = static_cast<std::size_t>(pkt.ip.fragment_offset) * 8;
  Bytes slice = serialize_transport(pkt);
  const std::size_t end = off + slice.size();
  part.bytes.insert(0, static_cast<u32>(off), slice, kMaxDatagramBytes,
                    policy_);

  if (pkt.ip.fragment_offset == 0) {
    part.first_header = pkt.ip;
    part.have_first = true;
  }
  if (!pkt.ip.more_fragments) {
    part.total_length = end;
  }

  if (!part.total_length || !part.have_first) return std::nullopt;
  const std::size_t header_bytes =
      static_cast<std::size_t>(part.first_header.ihl_words) * 4;
  if (header_bytes + *part.total_length > kMaxDatagramBytes) {
    partial_.erase(key);  // oversized: no valid datagram can come of it
    return std::nullopt;
  }
  if (part.bytes.ready(0) < *part.total_length) return std::nullopt;

  // Rebuild the whole datagram's wire image and parse it back.
  Ipv4Header hdr = part.first_header;
  hdr.more_fragments = false;
  hdr.fragment_offset = 0;
  hdr.total_length = static_cast<u16>(header_bytes + *part.total_length);
  hdr.header_checksum = 0;

  u32 next = 0;
  const Bytes transport = part.bytes.pop(next);
  Bytes image = serialize_ip_header(hdr);
  image.insert(image.end(), transport.begin(),
               transport.begin() + static_cast<long>(*part.total_length));
  partial_.erase(key);

  // Drop hopeless garbage silently, and likewise a datagram whose bytes the
  // packet model cannot carry (unknown or overrunning TCP options): its
  // total_length would not match what it serializes to.
  auto parsed = parse(image);
  if (!parsed.ok() || !ip_length_consistent(parsed.value())) {
    return std::nullopt;
  }
  Packet whole = std::move(parsed).take();
  finalize(whole);  // recompute the IP header checksum for the new header
  return whole;
}

}  // namespace ys::net
