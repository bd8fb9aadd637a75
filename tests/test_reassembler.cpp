// net::Reassembler: direct cases for the semantics its three users rely
// on, plus a differential test against a per-byte std::map oracle fed the
// same seeded segment streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/rng.h"
#include "netsim/reassembler.h"

namespace ys::net {
namespace {

constexpr OverlapPolicy kPolicies[] = {OverlapPolicy::kPreferFirst,
                                       OverlapPolicy::kPreferLast};

bool before(u32 a, u32 b) { return static_cast<i32>(a - b) < 0; }

/// Reference model: one map node per byte, keyed by absolute sequence
/// number, merged and drained a byte at a time.
class MapOracle {
 public:
  void insert(u32 next, u32 seq, ByteView data, u32 window,
              OverlapPolicy policy) {
    for (u32 off = 0; off < data.size(); ++off) {
      const u32 pos = seq + off;
      if (before(pos, next)) continue;
      if (!before(pos, next + window)) break;
      auto [it, fresh] = bytes_.emplace(pos, data[off]);
      if (!fresh && policy == OverlapPolicy::kPreferLast) {
        it->second = data[off];
      }
    }
  }
  std::size_t ready(u32 next) const {
    std::size_t n = 0;
    while (bytes_.count(next + static_cast<u32>(n)) != 0) ++n;
    return n;
  }
  Bytes pop(u32& next) {
    Bytes out;
    for (auto it = bytes_.find(next); it != bytes_.end();
         it = bytes_.find(next)) {
      out.push_back(it->second);
      bytes_.erase(it);
      ++next;
    }
    return out;
  }
  void clear() { bytes_.clear(); }

 private:
  std::map<u32, u8> bytes_;
};

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<u8>('a' + rng.uniform(26));
  return out;
}

struct StreamShape {
  u32 window;
  bool anchors_near_wrap;  // every anchor within a few hundred bytes of 2^32
};

u32 random_anchor(Rng& rng, const StreamShape& shape) {
  if (!shape.anchors_near_wrap) return rng.next_u32();
  return static_cast<u32>(0u - 300u + rng.uniform(600));
}

/// Feed one seeded stream of inserts, pops, FIN-style anchor bumps and
/// clear()-plus-new-anchor to both sides; compare after every call.
void run_differential(u64 seed, OverlapPolicy policy,
                      const StreamShape& shape) {
  SCOPED_TRACE(::testing::Message()
               << "seed " << seed << " policy "
               << (policy == OverlapPolicy::kPreferFirst ? "first" : "last")
               << " window " << shape.window);
  Rng rng(seed);
  Reassembler reasm;
  MapOracle oracle;
  u32 next = random_anchor(rng, shape);
  u32 oracle_next = next;

  for (int step = 0; step < 4000; ++step) {
    const u64 op = rng.uniform(100);
    if (op < 60) {
      // Segments start up to 80 bytes below the anchor and mostly near it,
      // so bytes deliver often; some start anywhere up to 80 bytes past the
      // window, so both clipping edges get exercised.
      const i64 reach = rng.chance(0.9) ? std::min<i64>(shape.window, 400)
                                        : shape.window;
      const i64 rel = rng.uniform_range(-80, reach + 80);
      const u32 seq = next + static_cast<u32>(rel);
      const Bytes data = random_bytes(rng, rng.uniform(96));
      reasm.insert(next, seq, data, shape.window, policy);
      oracle.insert(oracle_next, seq, data, shape.window, policy);
    } else if (op < 90) {
      const Bytes got = reasm.pop(next);
      const Bytes want = oracle.pop(oracle_next);
      ASSERT_EQ(got, want) << "step " << step;
    } else if (op < 97) {
      // The anchor moves outside the reassembler, as a FIN's slot does.
      ++next;
      ++oracle_next;
    } else {
      reasm.clear();
      oracle.clear();
      next = oracle_next = random_anchor(rng, shape);
    }
    ASSERT_EQ(next, oracle_next) << "step " << step;
    ASSERT_EQ(reasm.ready(next), oracle.ready(oracle_next)) << "step " << step;
  }
}

TEST(Reassembler, MatchesPerByteMapOnRandomStreams) {
  for (OverlapPolicy policy : kPolicies) {
    for (u64 seed : {1, 2, 3}) {
      run_differential(seed, policy, {65535, false});
    }
  }
}

TEST(Reassembler, MatchesPerByteMapAcrossSequenceWrap) {
  for (OverlapPolicy policy : kPolicies) {
    for (u64 seed : {4, 5, 6}) {
      run_differential(seed, policy, {65535, true});
    }
  }
}

TEST(Reassembler, MatchesPerByteMapUnderNarrowWindows) {
  for (OverlapPolicy policy : kPolicies) {
    for (u32 window : {1u, 7u, 64u, 257u}) {
      run_differential(7 + window, policy, {window, window == 64u});
    }
  }
}

TEST(Reassembler, OutOfOrderBytesDeliverOnceTheGapFills) {
  Reassembler reasm;
  u32 next = 1000;
  reasm.insert(next, 1003, to_bytes("def"), 65535, OverlapPolicy::kPreferFirst);
  EXPECT_EQ(reasm.ready(next), 0u);
  EXPECT_TRUE(reasm.pop(next).empty());
  EXPECT_EQ(next, 1000u);
  reasm.insert(next, 1000, to_bytes("abc"), 65535, OverlapPolicy::kPreferFirst);
  EXPECT_EQ(reasm.ready(next), 6u);
  EXPECT_EQ(to_string(reasm.pop(next)), "abcdef");
  EXPECT_EQ(next, 1006u);
}

TEST(Reassembler, PolicyDecidesOverlappedBytes) {
  for (OverlapPolicy policy : kPolicies) {
    Reassembler reasm;
    u32 next = 10;
    reasm.insert(next, 12, to_bytes("XYZ"), 65535, policy);
    reasm.insert(next, 10, to_bytes("abcde"), 65535, policy);
    EXPECT_EQ(to_string(reasm.pop(next)),
              policy == OverlapPolicy::kPreferFirst ? "abXYZ" : "abcde");
  }
}

TEST(Reassembler, PreferLastOverwritesContiguousUnpoppedBytes) {
  Reassembler reasm;
  u32 next = 0;
  reasm.insert(next, 0, to_bytes("hello"), 65535, OverlapPolicy::kPreferLast);
  reasm.insert(next, 1, to_bytes("ELL"), 65535, OverlapPolicy::kPreferLast);
  EXPECT_EQ(to_string(reasm.pop(next)), "hELLo");
}

TEST(Reassembler, BytesBelowTheAnchorAreNeverDelivered) {
  Reassembler reasm;
  u32 next = 100;
  reasm.insert(next, 95, to_bytes("0123456789"), 65535,
               OverlapPolicy::kPreferLast);
  EXPECT_EQ(to_string(reasm.pop(next)), "56789");
  EXPECT_EQ(next, 105u);
}

TEST(Reassembler, ClipsToTheWindow) {
  Reassembler reasm;
  u32 next = 0;
  reasm.insert(next, 0, to_bytes("abcdefgh"), 4, OverlapPolicy::kPreferFirst);
  reasm.insert(next, 6, to_bytes("zz"), 4, OverlapPolicy::kPreferFirst);
  EXPECT_EQ(to_string(reasm.pop(next)), "abcd");
  // The window moves with the anchor.
  reasm.insert(next, 4, to_bytes("efgh"), 4, OverlapPolicy::kPreferFirst);
  EXPECT_EQ(to_string(reasm.pop(next)), "efgh");
}

TEST(Reassembler, DeliversAcrossTheSequenceWrap) {
  Reassembler reasm;
  u32 next = 0xFFFFFFFEu;
  reasm.insert(next, 1, to_bytes("cd"), 65535, OverlapPolicy::kPreferFirst);
  reasm.insert(next, 0xFFFFFFFEu, to_bytes("ab!"), 65535,
               OverlapPolicy::kPreferFirst);
  EXPECT_EQ(to_string(reasm.pop(next)), "ab!cd");
  EXPECT_EQ(next, 3u);
}

TEST(Reassembler, PendingBytesDeliverAtAnAnchorMovedOutside) {
  // A FIN consumes one sequence slot in the endpoint, not in the buffer.
  Reassembler reasm;
  u32 next = 50;
  reasm.insert(next, 51, to_bytes("xyz"), 65535, OverlapPolicy::kPreferFirst);
  EXPECT_TRUE(reasm.pop(next).empty());
  ++next;
  EXPECT_EQ(reasm.ready(next), 3u);
  EXPECT_EQ(to_string(reasm.pop(next)), "xyz");
  EXPECT_EQ(next, 54u);
}

TEST(Reassembler, ClearThenReanchorForgetsPendingBytes) {
  Reassembler reasm;
  u32 next = 7;
  reasm.insert(next, 9, to_bytes("old"), 65535, OverlapPolicy::kPreferFirst);
  reasm.clear();
  next = 8;
  reasm.insert(next, 8, to_bytes("n"), 65535, OverlapPolicy::kPreferFirst);
  EXPECT_EQ(to_string(reasm.pop(next)), "n");
  EXPECT_EQ(reasm.ready(next), 0u);
}

}  // namespace
}  // namespace ys::net
