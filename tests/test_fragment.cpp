// IP fragmentation and reassembly tests, including the overlap-policy
// differences the out-of-order evasion strategy exploits and
// order-independence property sweeps.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/rng.h"
#include "netsim/fragment.h"
#include "netsim/wire.h"

namespace ys::net {
namespace {

const FourTuple kTuple{make_ip(10, 0, 0, 1), 40000,
                       make_ip(93, 184, 216, 34), 80};

Packet sample_packet(std::size_t payload_size, u16 ident = 7) {
  Bytes payload;
  for (std::size_t i = 0; i < payload_size; ++i) {
    payload.push_back(static_cast<u8>('a' + i % 26));
  }
  Packet pkt = make_tcp_packet(kTuple, TcpFlags::psh_ack(), 1000, 2000,
                               std::move(payload));
  pkt.ip.identification = ident;
  finalize(pkt);
  return pkt;
}

TEST(Fragmentation, ProducesAlignedSlices) {
  const Packet whole = sample_packet(100);
  const auto frags = fragment_packet(whole, 32);
  ASSERT_GE(frags.size(), 3u);
  for (std::size_t i = 0; i < frags.size(); ++i) {
    EXPECT_TRUE(frags[i].ip.is_fragmented());
    EXPECT_EQ(frags[i].ip.identification, whole.ip.identification);
    if (i + 1 < frags.size()) {
      EXPECT_TRUE(frags[i].ip.more_fragments);
      EXPECT_EQ(frags[i].payload.size() % 8, 0u);
    } else {
      EXPECT_FALSE(frags[i].ip.more_fragments);
    }
  }
  // Offsets are contiguous.
  u16 expected_offset = 0;
  for (const auto& frag : frags) {
    EXPECT_EQ(frag.ip.fragment_offset, expected_offset);
    expected_offset = static_cast<u16>(expected_offset +
                                       frag.payload.size() / 8);
  }
}

TEST(Reassembly, InOrderRoundTrip) {
  const Packet whole = sample_packet(100);
  FragmentReassembler reasm(OverlapPolicy::kPreferLast);
  std::optional<Packet> out;
  for (const auto& frag : fragment_packet(whole, 32)) {
    EXPECT_FALSE(out.has_value());
    out = reasm.push(frag);
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload, whole.payload);
  EXPECT_EQ(out->tcp->seq, whole.tcp->seq);
  EXPECT_EQ(out->tcp->checksum, whole.tcp->checksum);
  EXPECT_TRUE(transport_checksum_ok(*out));
  EXPECT_FALSE(out->ip.is_fragmented());
  EXPECT_EQ(reasm.pending_datagrams(), 0u);
}

TEST(Reassembly, NonFragmentPassesThrough) {
  const Packet whole = sample_packet(20);
  FragmentReassembler reasm(OverlapPolicy::kPreferLast);
  auto out = reasm.push(whole);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload, whole.payload);
}

TEST(Reassembly, IncompleteStaysPending) {
  const Packet whole = sample_packet(100);
  auto frags = fragment_packet(whole, 32);
  FragmentReassembler reasm(OverlapPolicy::kPreferLast);
  // Withhold the second fragment.
  for (std::size_t i = 0; i < frags.size(); ++i) {
    if (i == 1) continue;
    EXPECT_FALSE(reasm.push(frags[i]).has_value());
  }
  EXPECT_EQ(reasm.pending_datagrams(), 1u);
  // Delivering the missing piece completes it.
  auto out = reasm.push(frags[1]);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload, whole.payload);
}

TEST(Reassembly, InterleavedDatagramsByIdentification) {
  const Packet a = sample_packet(64, 100);
  const Packet b = sample_packet(64, 200);
  auto fa = fragment_packet(a, 24);
  auto fb = fragment_packet(b, 24);
  FragmentReassembler reasm(OverlapPolicy::kPreferLast);
  int completed = 0;
  for (std::size_t i = 0; i < std::max(fa.size(), fb.size()); ++i) {
    if (i < fa.size() && reasm.push(fa[i])) ++completed;
    if (i < fb.size() && reasm.push(fb[i])) ++completed;
  }
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(reasm.pending_datagrams(), 0u);
}

// The §3.2 exploit: two fragments covering the same range with different
// contents. kPreferFirst (GFW) keeps the first copy; kPreferLast (hosts)
// keeps the second.
TEST(OverlapPolicy, FirstVsLastOnConflictingRange) {
  const Packet whole = sample_packet(64);
  Bytes transport = serialize_transport(whole);
  const std::size_t split = 24;
  Bytes head(transport.begin(), transport.begin() + split);
  Bytes real_tail(transport.begin() + split, transport.end());
  Bytes junk_tail(real_tail.size(), 'Z');

  auto run = [&](OverlapPolicy policy) {
    FragmentReassembler reasm(policy);
    EXPECT_FALSE(
        reasm.push(make_raw_fragment(whole, split, junk_tail, false)));
    EXPECT_FALSE(
        reasm.push(make_raw_fragment(whole, split, real_tail, false)));
    auto out = reasm.push(make_raw_fragment(whole, 0, head, true));
    EXPECT_TRUE(out.has_value());
    return *out;
  };

  const Packet first_wins = run(OverlapPolicy::kPreferFirst);
  const Packet last_wins = run(OverlapPolicy::kPreferLast);

  // The conflicting range starts 4 bytes into the TCP payload (24 - 20
  // header bytes); kPreferFirst must hold junk there, kPreferLast the
  // original bytes.
  ASSERT_GE(first_wins.payload.size(), 10u);
  EXPECT_EQ(first_wins.payload[5], 'Z');
  EXPECT_EQ(last_wins.payload, whole.payload);
}

// Property: reassembly result is independent of fragment arrival order
// when fragments do not overlap.
class ReassemblyPermutation : public ::testing::TestWithParam<int> {};

TEST_P(ReassemblyPermutation, OrderIndependentWithoutOverlap) {
  const Packet whole = sample_packet(120);
  auto frags = fragment_packet(whole, 32);
  Rng rng(static_cast<u64>(GetParam()));
  // Fisher-Yates shuffle driven by the seeded RNG.
  for (std::size_t i = frags.size(); i > 1; --i) {
    std::swap(frags[i - 1], frags[rng.uniform(i)]);
  }
  FragmentReassembler reasm(OverlapPolicy::kPreferFirst);
  std::optional<Packet> out;
  for (const auto& frag : frags) {
    auto result = reasm.push(frag);
    if (result) {
      EXPECT_FALSE(out.has_value());
      out = result;
    }
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload, whole.payload);
  EXPECT_TRUE(transport_checksum_ok(*out));
}

INSTANTIATE_TEST_SUITE_P(Shuffles, ReassemblyPermutation,
                         ::testing::Range(1, 17));

// Property: fragmenting at any MTU and reassembling yields the original.
class MtuSweep : public ::testing::TestWithParam<int> {};

TEST_P(MtuSweep, RoundTripAtEveryMtu) {
  const Packet whole = sample_packet(333);
  FragmentReassembler reasm(OverlapPolicy::kPreferLast);
  std::optional<Packet> out;
  for (const auto& frag :
       fragment_packet(whole, static_cast<std::size_t>(GetParam()))) {
    out = reasm.push(frag);
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload, whole.payload);
  EXPECT_EQ(out->tcp->options, whole.tcp->options);
}

INSTANTIATE_TEST_SUITE_P(Mtus, MtuSweep,
                         ::testing::Values(8, 16, 24, 40, 64, 128, 256, 512));

TEST(Reassembly, ClearDropsPartialState) {
  const Packet whole = sample_packet(100);
  auto frags = fragment_packet(whole, 32);
  FragmentReassembler reasm(OverlapPolicy::kPreferLast);
  reasm.push(frags[0]);
  EXPECT_EQ(reasm.pending_datagrams(), 1u);
  reasm.clear();
  EXPECT_EQ(reasm.pending_datagrams(), 0u);
}

// A datagram may not grow past the IPv4 total-length field: fragments that
// reach beyond 65,535 bytes of header plus payload are dropped with their
// datagram instead of coming out with a truncated total_length.
TEST(Reassembly, OversizedDatagramIsDropped) {
  // 20 IP + 20 TCP header bytes + 65,495 payload bytes: exactly 65,535.
  const Packet whole = sample_packet(65535 - 40);
  ASSERT_EQ(whole.ip.total_length, 65535);
  auto frags = fragment_packet(whole, 1480);

  FragmentReassembler reasm(OverlapPolicy::kPreferFirst);
  std::optional<Packet> out;
  for (const auto& frag : frags) out = reasm.push(frag);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->ip.total_length, 65535);
  EXPECT_EQ(serialize(*out).size(), 65535u);

  // Same datagram, but the last fragment carries 8 more bytes.
  Packet& last = frags.back();
  Bytes longer = last.payload;
  longer.resize(longer.size() + 8, 'x');
  last = make_raw_fragment(whole, last.ip.fragment_offset * 8u,
                           std::move(longer), false);
  for (const auto& frag : frags) {
    EXPECT_FALSE(reasm.push(frag).has_value());
  }
  EXPECT_EQ(reasm.pending_datagrams(), 0u);
}

}  // namespace
}  // namespace ys::net
