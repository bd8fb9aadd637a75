// Wire-format serialization and parsing for the packet model.
//
// Round-tripping through real big-endian wire images keeps the model honest:
// option parsing and the malformed-field insertion packets operate on
// genuine byte layouts. Headers have one encoder, `encode_ip_header` /
// `encode_transport_header`, writing into a fixed stack buffer: the
// serializers copy its bytes out, and the checksums (packet.cpp) fold the
// RFC 1071 sum over it and the payload span without building an image.
#pragma once

#include <array>

#include "core/result.h"
#include "core/types.h"
#include "netsim/packet.h"

namespace ys::net {

/// Longest header the encoder writes: an IPv4 header of 15 words, or a TCP
/// header with every modeled option (37 bytes, padded to 40).
inline constexpr std::size_t kMaxHeaderBytes = 60;

/// One encoded header: the first `size` bytes of a fixed buffer.
struct HeaderImage {
  std::array<u8, kMaxHeaderBytes> bytes{};
  std::size_t size = 0;

  ByteView view() const { return ByteView(bytes.data(), size); }
};

/// Encode the IPv4 header exactly as serialize_ip_header does. Only the
/// low 4 bits of `ip.ihl_words` exist on the wire, so at most 15 words.
HeaderImage encode_ip_header(const Ipv4Header& ip, bool zero_checksum);

/// Encode the TCP or UDP header (options included, payload excluded)
/// exactly as serialize_transport does. Empty for trailing fragments and
/// packets without a transport header.
HeaderImage encode_transport_header(const Packet& pkt, bool zero_checksum);

/// Serialize the IPv4 header (ihl_words * 4 bytes; option area zero-filled
/// when ihl_words > 5). If `zero_checksum`, the checksum field is written as
/// zero (for checksum computation).
Bytes serialize_ip_header(const Ipv4Header& ip, bool zero_checksum = false);

/// Serialize the transport header + payload (no IP header). For trailing
/// fragments this is just the raw payload slice.
Bytes serialize_transport(const Packet& pkt, bool zero_checksum = false);

/// Full wire image: IP header + transport. Note the IP `total_length`
/// *field* is written as stored, which may disagree with the buffer size —
/// that mismatch is exactly the "IP length" insertion-packet discrepancy,
/// so callers must carry the actual size alongside the image.
Bytes serialize(const Packet& pkt);

/// Parse a wire image back into a structured packet. `data.size()` is the
/// actual received length (may be shorter than the claimed total_length).
/// Returns an error only for images too mangled to represent structurally;
/// semantically invalid packets (bad checksum, short TCP offset) parse fine
/// and carry their invalid fields, since endpoints must *see* them to
/// ignore them.
Result<Packet> parse(ByteView data);

}  // namespace ys::net
