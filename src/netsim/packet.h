// Structured IPv4 / TCP / UDP packet model.
//
// The structured form is authoritative inside the simulator; `wire.h`
// serializes it to real big-endian wire images and parses them back. The
// checksum helpers below compute real RFC 1071 checksums of that image
// without building it: they fold the sum over the pseudo-header, the
// header as `wire.h` encodes it (a fixed stack buffer) and the payload.
// Deliberately-malformed fields (wrong checksum, claimed IP total length
// larger than the actual packet, TCP data offset below 5, absent flags) are
// all representable, because the paper's insertion packets depend on them.
#pragma once

#include <array>
#include <optional>
#include <string>

#include "core/clock.h"
#include "core/types.h"
#include "netsim/addr.h"

namespace ys::net {

enum class IpProto : u8 {
  kTcp = 6,
  kUdp = 17,
};

// ---------------------------------------------------------------- TCP flags

struct TcpFlags {
  bool fin = false;
  bool syn = false;
  bool rst = false;
  bool psh = false;
  bool ack = false;
  bool urg = false;

  static constexpr TcpFlags none() { return {}; }
  static constexpr TcpFlags only_syn() { return {.syn = true}; }
  static constexpr TcpFlags syn_ack() { return {.syn = true, .ack = true}; }
  static constexpr TcpFlags only_ack() { return {.ack = true}; }
  static constexpr TcpFlags only_rst() { return {.rst = true}; }
  static constexpr TcpFlags rst_ack() { return {.rst = true, .ack = true}; }
  static constexpr TcpFlags only_fin() { return {.fin = true}; }
  static constexpr TcpFlags fin_ack() { return {.fin = true, .ack = true}; }
  static constexpr TcpFlags psh_ack() { return {.psh = true, .ack = true}; }

  constexpr bool any() const { return fin || syn || rst || psh || ack || urg; }

  constexpr u8 to_byte() const {
    return static_cast<u8>((fin ? 0x01 : 0) | (syn ? 0x02 : 0) |
                           (rst ? 0x04 : 0) | (psh ? 0x08 : 0) |
                           (ack ? 0x10 : 0) | (urg ? 0x20 : 0));
  }
  static constexpr TcpFlags from_byte(u8 b) {
    return TcpFlags{.fin = (b & 0x01) != 0, .syn = (b & 0x02) != 0,
                    .rst = (b & 0x04) != 0, .psh = (b & 0x08) != 0,
                    .ack = (b & 0x10) != 0, .urg = (b & 0x20) != 0};
  }

  friend bool operator==(const TcpFlags&, const TcpFlags&) = default;

  /// tcpdump-style rendering, e.g. "[S]", "[R.]", "[.]" — "[none]" when no
  /// flag is set (the paper's "no TCP flag" insertion packet).
  std::string to_string() const;
};

// -------------------------------------------------------------- TCP options

/// RFC 7323 timestamps.
struct TcpTimestamps {
  u32 ts_val = 0;
  u32 ts_ecr = 0;
  friend bool operator==(const TcpTimestamps&, const TcpTimestamps&) = default;
};

/// Parsed TCP options. Only the options the paper's strategies exercise are
/// modeled structurally; unknown options round-trip as raw bytes.
struct TcpOptions {
  std::optional<u16> mss;
  std::optional<u8> window_scale;
  bool sack_permitted = false;
  std::optional<TcpTimestamps> timestamps;
  /// RFC 2385 TCP MD5 signature option (kind 19). The paper uses an
  /// *unsolicited* MD5 option as an insertion-packet discrepancy; the digest
  /// contents are irrelevant to that behaviour, so we carry opaque bytes.
  std::optional<std::array<u8, 16>> md5_signature;

  bool empty() const {
    return !mss && !window_scale && !sack_permitted && !timestamps &&
           !md5_signature;
  }
  /// Encoded length in bytes, padded to a multiple of 4.
  std::size_t wire_length() const;

  friend bool operator==(const TcpOptions&, const TcpOptions&) = default;
};

// ------------------------------------------------------------------ headers

struct TcpHeader {
  u16 src_port = 0;
  u16 dst_port = 0;
  u32 seq = 0;
  u32 ack = 0;
  /// Data offset in 32-bit words. Normally 5 + options; the "TCP header
  /// length < 20" insertion packet sets this below 5.
  u8 data_offset_words = 5;
  TcpFlags flags;
  u16 window = 65535;
  /// Stored (on-wire) checksum. 0 means "fill in correct value at
  /// finalize()"; a corrupted value survives serialization untouched.
  u16 checksum = 0;
  u16 urgent_pointer = 0;
  TcpOptions options;
};

struct UdpHeader {
  u16 src_port = 0;
  u16 dst_port = 0;
  /// Stored length field (header + payload). 0 means autofill.
  u16 length = 0;
  u16 checksum = 0;
};

struct Ipv4Header {
  u8 ihl_words = 5;  // no IP options modeled; may be corrupted in tests
  u8 dscp_ecn = 0;
  /// Claimed total length. 0 means autofill from the actual size; the
  /// "IP total length > actual length" insertion packet sets it larger.
  u16 total_length = 0;
  u16 identification = 0;
  bool dont_fragment = false;
  bool more_fragments = false;
  /// Fragment offset in 8-byte units.
  u16 fragment_offset = 0;
  u8 ttl = 64;
  IpProto protocol = IpProto::kTcp;
  /// Stored header checksum; 0 means autofill at finalize().
  u16 header_checksum = 0;
  IpAddr src = 0;
  IpAddr dst = 0;

  bool is_fragmented() const { return more_fragments || fragment_offset != 0; }
};

// ------------------------------------------------------------------- packet

/// A simulated packet. Exactly one of `tcp` / `udp` is set for
/// non-fragment packets; trailing fragments (fragment_offset > 0) carry raw
/// transport bytes in `payload` and have neither header set.
struct Packet {
  Ipv4Header ip;
  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  /// Transport payload (TCP/UDP application data); for trailing IP
  /// fragments, the raw slice of the transport datagram.
  Bytes payload;

  /// Simulator-unique id for tracing; assigned by the path when sent.
  u64 trace_id = 0;

  /// Trace-event id of the decision that crafted this packet (strategy
  /// insertion packets); 0 for organic traffic. Carried so the path can
  /// link the packet's send event back to its strategy step.
  u64 cause_hint = 0;

  /// True for packets a strategy built and sent raw (insertion packets).
  bool crafted = false;

  bool is_tcp() const { return tcp.has_value(); }
  bool is_udp() const { return udp.has_value(); }
  bool is_trailing_fragment() const {
    return ip.fragment_offset != 0 && !tcp && !udp;
  }

  FourTuple tuple() const {
    u16 sp = tcp ? tcp->src_port : (udp ? udp->src_port : 0);
    u16 dp = tcp ? tcp->dst_port : (udp ? udp->dst_port : 0);
    return FourTuple{ip.src, sp, ip.dst, dp};
  }

  /// End sequence number of a TCP segment (seq + payload len + SYN + FIN).
  u32 tcp_seq_end() const;

  /// One-line human summary for traces:
  /// "TCP 10.0.0.1:4000->93.184.216.34:80 [S] seq=1000 ttl=64 len=0".
  std::string summary() const;
};

// -------------------------------------------------------------- finalizing

/// Fill in all autofill fields (lengths and checksums) with *correct*
/// values computed from the packet contents. Fields already set to nonzero
/// values are preserved, which is how deliberately-wrong values survive.
void finalize(Packet& pkt);

/// Correct transport checksum for the packet as currently laid out.
u16 correct_transport_checksum(const Packet& pkt);

/// True iff the stored transport checksum matches the recomputed one.
bool transport_checksum_ok(const Packet& pkt);

/// True iff the claimed IP total length matches the actual wire size.
bool ip_length_consistent(const Packet& pkt);

/// Actual wire size of the packet in bytes (headers + payload).
std::size_t wire_size(const Packet& pkt);

// --------------------------------------------------------------- factories

/// Convenience TCP packet factory used by stacks and strategies alike. The
/// result still needs finalize() before hitting the wire.
Packet make_tcp_packet(const FourTuple& tuple, TcpFlags flags, u32 seq,
                       u32 ack, Bytes payload = {});

/// Convenience UDP packet factory.
Packet make_udp_packet(const FourTuple& tuple, Bytes payload);

}  // namespace ys::net
