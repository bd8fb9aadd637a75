// Packet model and wire codec tests: round trips across flag and option
// combinations, checksum semantics, and the deliberately-malformed fields
// insertion packets rely on.
#include <gtest/gtest.h>

#include "core/checksum.h"
#include "core/rng.h"
#include "netsim/fragment.h"
#include "netsim/packet.h"
#include "netsim/wire.h"

namespace ys::net {
namespace {

const FourTuple kTuple{make_ip(10, 0, 0, 1), 40000,
                       make_ip(93, 184, 216, 34), 80};

Packet finalized_tcp(TcpFlags flags, Bytes payload = {}) {
  Packet pkt = make_tcp_packet(kTuple, flags, 1000, 2000, std::move(payload));
  finalize(pkt);
  return pkt;
}

/// RFC 1071 the slow way: 16-bit big-endian words over one buffer, odd
/// byte padded, carries folded at the end. Independent of core/checksum.
u16 reference_sum(const Bytes& data) {
  u64 acc = 0;
  for (std::size_t i = 0; i < data.size(); i += 2) {
    acc += static_cast<u64>(data[i]) << 8;
    if (i + 1 < data.size()) acc += data[i + 1];
  }
  while (acc >> 16) acc = (acc & 0xFFFF) + (acc >> 16);
  return static_cast<u16>(~acc & 0xFFFF);
}

/// The transport checksum the serializing way: build the segment's wire
/// image, prepend the pseudo-header, sum.
u16 reference_transport_checksum(const Packet& pkt) {
  const Bytes segment = serialize_transport(pkt, /*zero_checksum=*/true);
  Bytes image = {static_cast<u8>(pkt.ip.src >> 24), static_cast<u8>(pkt.ip.src >> 16),
                 static_cast<u8>(pkt.ip.src >> 8),  static_cast<u8>(pkt.ip.src),
                 static_cast<u8>(pkt.ip.dst >> 24), static_cast<u8>(pkt.ip.dst >> 16),
                 static_cast<u8>(pkt.ip.dst >> 8),  static_cast<u8>(pkt.ip.dst),
                 0, static_cast<u8>(pkt.ip.protocol),
                 static_cast<u8>(segment.size() >> 8),
                 static_cast<u8>(segment.size())};
  image.insert(image.end(), segment.begin(), segment.end());
  const u16 sum = reference_sum(image);
  EXPECT_EQ(sum, transport_checksum(pkt.ip.src, pkt.ip.dst,
                                    static_cast<u8>(pkt.ip.protocol), segment));
  return pkt.ip.protocol == IpProto::kUdp && sum == 0 ? 0xFFFF : sum;
}

/// A seeded random packet: TCP with any option subset (MD5 included) and
/// possibly a short or long data offset, UDP, or a trailing fragment; IP
/// options area (ihl_words > 5) and odd payload lengths included.
Packet random_packet(Rng& rng) {
  Bytes payload(rng.uniform(300));
  for (u8& b : payload) b = static_cast<u8>(rng.next_u32());
  const FourTuple tuple{rng.next_u32(), static_cast<u16>(rng.next_u32()),
                        rng.next_u32(), static_cast<u16>(rng.next_u32())};
  Packet pkt;
  const u64 kind = rng.uniform(4);
  if (kind == 0) {
    pkt = make_udp_packet(tuple, std::move(payload));
  } else {
    pkt = make_tcp_packet(tuple, TcpFlags::from_byte(static_cast<u8>(rng.uniform(64))),
                          rng.next_u32(), rng.next_u32(), std::move(payload));
    TcpOptions& o = pkt.tcp->options;
    if (rng.chance(0.5)) o.mss = static_cast<u16>(rng.next_u32());
    if (rng.chance(0.5)) o.window_scale = static_cast<u8>(rng.uniform(15));
    o.sack_permitted = rng.chance(0.5);
    if (rng.chance(0.5)) o.timestamps = TcpTimestamps{rng.next_u32(), rng.next_u32()};
    if (rng.chance(0.5)) {
      std::array<u8, 16> md5{};
      for (u8& b : md5) b = static_cast<u8>(rng.next_u32());
      o.md5_signature = md5;
    }
    if (rng.chance(0.2)) pkt.tcp->data_offset_words = static_cast<u8>(rng.uniform(16));
    pkt.tcp->window = static_cast<u16>(rng.next_u32());
    pkt.tcp->urgent_pointer = static_cast<u16>(rng.next_u32());
  }
  pkt.ip.ihl_words = static_cast<u8>(rng.chance(0.3) ? 5 + rng.uniform(11) : 5);
  pkt.ip.ttl = static_cast<u8>(rng.next_u32());
  pkt.ip.identification = static_cast<u16>(rng.next_u32());
  pkt.ip.dont_fragment = rng.chance(0.5);
  if (rng.chance(0.2)) pkt.ip.total_length = static_cast<u16>(rng.next_u32());
  finalize(pkt);
  if (kind == 3) {
    // A trailing fragment: the TCP segment's bytes past its first 8.
    const Bytes transport = serialize_transport(pkt);
    pkt = make_raw_fragment(pkt, 8, Bytes(transport.begin() + 8, transport.end()),
                            rng.chance(0.5));
  }
  return pkt;
}

// --------------------------------------------------------- checksum oracle

TEST(ChecksumOracle, FoldedSumsEqualSerializeThenSum) {
  Rng rng(20171101);
  int udp = 0, tcp = 0, frags = 0, wrong = 0, short_offset = 0, ip_opts = 0,
      odd = 0, md5 = 0;
  for (int i = 0; i < 3000; ++i) {
    Packet pkt = random_packet(rng);
    const u16 want = reference_transport_checksum(pkt);
    EXPECT_EQ(correct_transport_checksum(pkt), want) << pkt.summary();
    EXPECT_EQ(pkt.ip.header_checksum,
              reference_sum(serialize_ip_header(pkt.ip, /*zero_checksum=*/true)))
        << pkt.summary();
    EXPECT_EQ(internet_checksum(serialize_ip_header(pkt.ip)), 0) << pkt.summary();
    // The fixed header buffer holds every header; the image has the size
    // the packet model claims.
    EXPECT_LE(encode_transport_header(pkt, false).size, kMaxHeaderBytes);
    EXPECT_EQ(serialize(pkt).size(), wire_size(pkt)) << pkt.summary();

    // Stored sums: correct after finalize, or deliberately wrong.
    if (pkt.tcp && rng.chance(0.3)) {
      pkt.tcp->checksum = static_cast<u16>(want + 1 + rng.uniform(0xFFFE));
      ++wrong;
    }
    if (pkt.udp && rng.chance(0.3)) {
      pkt.udp->checksum = static_cast<u16>(want + 1 + rng.uniform(0xFFFE));
      ++wrong;
    }
    bool stored_ok = true;
    if (pkt.tcp) stored_ok = pkt.tcp->checksum == want;
    if (pkt.udp) stored_ok = pkt.udp->checksum == 0 || pkt.udp->checksum == want;
    EXPECT_EQ(transport_checksum_ok(pkt), stored_ok) << pkt.summary();

    udp += pkt.is_udp();
    tcp += pkt.is_tcp();
    frags += pkt.is_trailing_fragment();
    short_offset += pkt.tcp && pkt.tcp->data_offset_words < 5;
    ip_opts += pkt.ip.ihl_words > 5;
    odd += pkt.payload.size() % 2;
    md5 += pkt.tcp && pkt.tcp->options.md5_signature.has_value();
  }
  // The generator reached every case the fold must handle.
  for (int n : {udp, tcp, frags, wrong, short_offset, ip_opts, odd, md5}) {
    EXPECT_GT(n, 20);
  }
}

TEST(ChecksumOracle, UdpSumOfZeroIsSentAsAllOnes) {
  // Search the first payload word for the value that makes the computed
  // UDP sum 0; RFC 768 transmits that as 0xFFFF.
  Packet pkt = make_udp_packet(kTuple, to_bytes("ab-payload"));
  finalize(pkt);
  bool found = false;
  for (u32 w = 0; w <= 0xFFFF && !found; ++w) {
    pkt.payload[0] = static_cast<u8>(w >> 8);
    pkt.payload[1] = static_cast<u8>(w);
    const Bytes segment = serialize_transport(pkt, /*zero_checksum=*/true);
    if (transport_checksum(pkt.ip.src, pkt.ip.dst, 17, segment) != 0) continue;
    found = true;
    EXPECT_EQ(correct_transport_checksum(pkt), 0xFFFF);
    EXPECT_EQ(reference_transport_checksum(pkt), 0xFFFF);
    pkt.udp->checksum = 0;
    finalize(pkt);
    EXPECT_EQ(pkt.udp->checksum, 0xFFFF);
    EXPECT_TRUE(transport_checksum_ok(pkt));
  }
  EXPECT_TRUE(found);
}

// --------------------------------------------------------------- TcpFlags

TEST(TcpFlags, ByteRoundTrip) {
  for (int b = 0; b < 64; ++b) {
    const TcpFlags f = TcpFlags::from_byte(static_cast<u8>(b));
    EXPECT_EQ(f.to_byte(), b);
  }
}

TEST(TcpFlags, Rendering) {
  EXPECT_EQ(TcpFlags::only_syn().to_string(), "[S]");
  EXPECT_EQ(TcpFlags::syn_ack().to_string(), "[S.]");
  EXPECT_EQ(TcpFlags::rst_ack().to_string(), "[R.]");
  EXPECT_EQ(TcpFlags::none().to_string(), "[none]");
  EXPECT_FALSE(TcpFlags::none().any());
}

// --------------------------------------------------------------- finalize

TEST(Finalize, FillsLengthsAndChecksums) {
  Packet pkt = make_tcp_packet(kTuple, TcpFlags::psh_ack(), 1, 2,
                               to_bytes("hello"));
  EXPECT_EQ(pkt.ip.total_length, 0);
  finalize(pkt);
  EXPECT_EQ(pkt.ip.total_length, wire_size(pkt));
  EXPECT_NE(pkt.tcp->checksum, 0);
  EXPECT_TRUE(transport_checksum_ok(pkt));
  EXPECT_TRUE(ip_length_consistent(pkt));
}

TEST(Finalize, PreservesDeliberateCorruption) {
  Packet pkt = make_tcp_packet(kTuple, TcpFlags::psh_ack(), 1, 2,
                               to_bytes("hello"));
  pkt.tcp->checksum = 0xBEEF;        // pre-set: must survive
  pkt.ip.total_length = 9999;        // claimed length lie
  finalize(pkt);
  EXPECT_EQ(pkt.tcp->checksum, 0xBEEF);
  EXPECT_EQ(pkt.ip.total_length, 9999);
  EXPECT_FALSE(transport_checksum_ok(pkt));
  EXPECT_FALSE(ip_length_consistent(pkt));
}

TEST(Finalize, DataOffsetTracksOptions) {
  Packet plain = finalized_tcp(TcpFlags::only_ack());
  EXPECT_EQ(plain.tcp->data_offset_words, 5);

  Packet with_ts = make_tcp_packet(kTuple, TcpFlags::only_ack(), 1, 2);
  with_ts.tcp->options.timestamps = TcpTimestamps{1, 2};
  finalize(with_ts);
  EXPECT_EQ(with_ts.tcp->data_offset_words, 8);  // 20 + 12 option bytes

  Packet corrupted = make_tcp_packet(kTuple, TcpFlags::only_ack(), 1, 2);
  corrupted.tcp->data_offset_words = 4;  // deliberate short header
  finalize(corrupted);
  EXPECT_EQ(corrupted.tcp->data_offset_words, 4);
}

TEST(Finalize, OptionLengthsArePadded) {
  TcpOptions opts;
  opts.mss = 1460;
  EXPECT_EQ(opts.wire_length(), 4u);
  opts.window_scale = 7;
  EXPECT_EQ(opts.wire_length(), 8u);  // 4 + 3, padded
  opts.timestamps = TcpTimestamps{1, 2};
  EXPECT_EQ(opts.wire_length(), 20u);  // 4 + 3 + 10, padded
  opts.md5_signature.emplace();
  EXPECT_EQ(opts.wire_length(), 36u);  // + 18, padded
}

// ------------------------------------------------------------ round trips

struct FlagCase {
  TcpFlags flags;
  std::size_t payload;
};

class WireRoundTrip : public ::testing::TestWithParam<FlagCase> {};

TEST_P(WireRoundTrip, SerializeParsePreservesEverything) {
  const FlagCase& tc = GetParam();
  Bytes payload;
  for (std::size_t i = 0; i < tc.payload; ++i) {
    payload.push_back(static_cast<u8>(i));
  }
  Packet pkt = make_tcp_packet(kTuple, tc.flags, 0xCAFEBABE, 0x1BADB002,
                               payload);
  pkt.tcp->window = 4321;
  pkt.tcp->urgent_pointer = 7;
  pkt.tcp->options.mss = 1400;
  pkt.tcp->options.window_scale = 9;
  pkt.tcp->options.sack_permitted = true;
  pkt.tcp->options.timestamps = TcpTimestamps{111, 222};
  pkt.ip.ttl = 33;
  pkt.ip.identification = 0x4242;
  finalize(pkt);

  auto parsed = parse(serialize(pkt));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const Packet& out = parsed.value();
  EXPECT_EQ(out.ip.src, pkt.ip.src);
  EXPECT_EQ(out.ip.dst, pkt.ip.dst);
  EXPECT_EQ(out.ip.ttl, 33);
  EXPECT_EQ(out.ip.identification, 0x4242);
  ASSERT_TRUE(out.tcp.has_value());
  EXPECT_EQ(out.tcp->flags, tc.flags);
  EXPECT_EQ(out.tcp->seq, 0xCAFEBABEu);
  EXPECT_EQ(out.tcp->ack, 0x1BADB002u);
  EXPECT_EQ(out.tcp->window, 4321);
  EXPECT_EQ(out.tcp->urgent_pointer, 7);
  EXPECT_EQ(out.tcp->options, pkt.tcp->options);
  EXPECT_EQ(out.payload, payload);
  EXPECT_TRUE(transport_checksum_ok(out));
}

INSTANTIATE_TEST_SUITE_P(
    AllFlagShapes, WireRoundTrip,
    ::testing::Values(FlagCase{TcpFlags::only_syn(), 0},
                      FlagCase{TcpFlags::syn_ack(), 0},
                      FlagCase{TcpFlags::only_ack(), 0},
                      FlagCase{TcpFlags::psh_ack(), 64},
                      FlagCase{TcpFlags::only_rst(), 0},
                      FlagCase{TcpFlags::rst_ack(), 0},
                      FlagCase{TcpFlags::fin_ack(), 0},
                      FlagCase{TcpFlags::none(), 32},
                      FlagCase{TcpFlags::only_fin(), 16},
                      FlagCase{TcpFlags::psh_ack(), 1460}));

TEST(Wire, UdpRoundTrip) {
  Packet pkt = make_udp_packet(kTuple, to_bytes("dns query bytes"));
  finalize(pkt);
  EXPECT_TRUE(transport_checksum_ok(pkt));

  auto parsed = parse(serialize(pkt));
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.value().is_udp());
  EXPECT_EQ(parsed.value().udp->src_port, 40000);
  EXPECT_EQ(parsed.value().udp->dst_port, 80);
  EXPECT_EQ(parsed.value().udp->length, 8 + 15);
  EXPECT_EQ(to_string(parsed.value().payload), "dns query bytes");
}

TEST(Wire, Md5OptionRoundTrip) {
  Packet pkt = make_tcp_packet(kTuple, TcpFlags::psh_ack(), 1, 2,
                               to_bytes("x"));
  std::array<u8, 16> digest;
  for (std::size_t i = 0; i < 16; ++i) digest[i] = static_cast<u8>(i * 3);
  pkt.tcp->options.md5_signature = digest;
  finalize(pkt);

  auto parsed = parse(serialize(pkt));
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.value().tcp->options.md5_signature.has_value());
  EXPECT_EQ(*parsed.value().tcp->options.md5_signature, digest);
}

TEST(Wire, CorruptedChecksumSurvivesRoundTrip) {
  Packet pkt = finalized_tcp(TcpFlags::psh_ack(), to_bytes("junk"));
  pkt.tcp->checksum = static_cast<u16>(pkt.tcp->checksum + 1);
  auto parsed = parse(serialize(pkt));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(transport_checksum_ok(parsed.value()));
}

TEST(Wire, ShortDataOffsetSurvivesRoundTrip) {
  Packet pkt = finalized_tcp(TcpFlags::psh_ack(), to_bytes("junk"));
  pkt.tcp->data_offset_words = 4;
  auto parsed = parse(serialize(pkt));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().tcp->data_offset_words, 4);
}

TEST(Wire, ParseRejectsGarbage) {
  EXPECT_FALSE(parse(Bytes{}).ok());
  EXPECT_FALSE(parse(Bytes{0x45, 0x00}).ok());
  Bytes not_ipv4(40, 0);
  not_ipv4[0] = 0x60;  // version 6
  EXPECT_FALSE(parse(not_ipv4).ok());
}

TEST(Wire, ParseTruncatedTcpHeader) {
  Packet pkt = finalized_tcp(TcpFlags::only_syn());
  Bytes image = serialize(pkt);
  image.resize(24);  // IP header + 4 bytes of TCP
  EXPECT_FALSE(parse(image).ok());
}

// -------------------------------------------------------------- summaries

TEST(Summary, MentionsKeyFields) {
  Packet pkt = finalized_tcp(TcpFlags::only_syn());
  const std::string s = pkt.summary();
  EXPECT_NE(s.find("[S]"), std::string::npos);
  EXPECT_NE(s.find("10.0.0.1:40000"), std::string::npos);
  EXPECT_NE(s.find("93.184.216.34:80"), std::string::npos);
}

TEST(Summary, FlagsBadChecksum) {
  Packet pkt = finalized_tcp(TcpFlags::psh_ack(), to_bytes("x"));
  EXPECT_EQ(pkt.summary().find("badcsum"), std::string::npos);
  pkt.tcp->checksum = static_cast<u16>(pkt.tcp->checksum + 1);
  EXPECT_NE(pkt.summary().find("badcsum"), std::string::npos);
}

TEST(SeqEnd, CountsSynAndFin) {
  Packet pkt = make_tcp_packet(kTuple, TcpFlags::only_syn(), 100, 0);
  EXPECT_EQ(pkt.tcp_seq_end(), 101u);
  Packet fin = make_tcp_packet(kTuple, TcpFlags::fin_ack(), 100, 0,
                               to_bytes("abc"));
  EXPECT_EQ(fin.tcp_seq_end(), 104u);
}

// ------------------------------------------------------------ four tuples

TEST(FourTuple, ReversalAndCanonical) {
  EXPECT_EQ(kTuple.reversed().src_ip, kTuple.dst_ip);
  EXPECT_EQ(kTuple.reversed().reversed(), kTuple);
  EXPECT_EQ(kTuple.canonical(), kTuple.reversed().canonical());
}

TEST(FourTuple, HashConsistentWithEquality) {
  FourTupleHash hash;
  EXPECT_EQ(hash(kTuple), hash(FourTuple{kTuple}));
  EXPECT_NE(hash(kTuple), hash(kTuple.reversed()));
}

TEST(HostPair, OrderInsensitive) {
  const HostPair a = HostPair::of(1, 2);
  const HostPair b = HostPair::of(2, 1);
  EXPECT_EQ(a, b);
  EXPECT_EQ(HostPairHash{}(a), HostPairHash{}(b));
}

TEST(IpToString, DottedQuad) {
  EXPECT_EQ(ip_to_string(make_ip(93, 184, 216, 34)), "93.184.216.34");
  EXPECT_EQ(ip_to_string(0), "0.0.0.0");
  EXPECT_EQ(ip_to_string(0xFFFFFFFF), "255.255.255.255");
}

}  // namespace
}  // namespace ys::net
