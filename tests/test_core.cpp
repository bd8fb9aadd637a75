// Unit tests for the core utilities: checksums, byte I/O, RNG, virtual
// time, results, hexdump, the trace recorder, and the JSON writers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/byte_io.h"
#include "core/checksum.h"
#include "core/clock.h"
#include "core/hexdump.h"
#include "core/json.h"
#include "core/log.h"
#include "core/result.h"
#include "core/rng.h"
#include "obs/trace.h"

namespace ys {
namespace {

// ------------------------------------------------------------- checksum

TEST(Checksum, Rfc1071ReferenceVector) {
  // Classic example from RFC 1071 §3: words 0001 f203 f4f5 f6f7.
  const Bytes data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  // Sum = 0x2ddf0 -> folded 0xddf2 -> complement 0x220d.
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, ZeroLengthIsAllOnes) {
  EXPECT_EQ(internet_checksum(Bytes{}), 0xFFFF);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const Bytes odd = {0x12, 0x34, 0x56};
  const Bytes padded = {0x12, 0x34, 0x56, 0x00};
  EXPECT_EQ(internet_checksum(odd), internet_checksum(padded));
}

TEST(Checksum, IncrementalMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 1001; ++i) data.push_back(static_cast<u8>(i * 7));
  // Split at an even offset: accumulation is word-based.
  const ByteView all(data);
  u32 acc = checksum_accumulate(all.subspan(0, 500), 0);
  acc = checksum_accumulate(all.subspan(500), acc);
  EXPECT_EQ(checksum_finish(acc), internet_checksum(data));
}

TEST(Checksum, ValidatedPacketSumsToZero) {
  // A buffer with its correct checksum embedded verifies to zero when
  // summed (the receiver-side check).
  Bytes data = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x00, 0x12, 0x34};
  const u16 sum = internet_checksum(data);
  data[4] = static_cast<u8>(sum >> 8);
  data[5] = static_cast<u8>(sum);
  EXPECT_EQ(internet_checksum(data), 0);
}

TEST(Checksum, TransportChecksumCoversPseudoHeader) {
  const Bytes segment = {0x01, 0x02, 0x03, 0x04};
  const u16 a = transport_checksum(0x0A000001, 0x0A000002, 6, segment);
  const u16 b = transport_checksum(0x0A000001, 0x0A000003, 6, segment);
  const u16 c = transport_checksum(0x0A000001, 0x0A000002, 17, segment);
  EXPECT_NE(a, b);  // destination address participates
  EXPECT_NE(a, c);  // protocol participates
}

// -------------------------------------------------------------- byte I/O

TEST(ByteIo, RoundTripScalars) {
  Bytes buf;
  BufWriter w(buf);
  w.u8_(0xAB);
  w.u16_(0x1234);
  w.u32_(0xDEADBEEF);
  w.str("hi");
  EXPECT_EQ(buf.size(), 9u);

  BufReader r(buf);
  EXPECT_EQ(r.u8_().value(), 0xAB);
  EXPECT_EQ(r.u16_().value(), 0x1234);
  EXPECT_EQ(r.u32_().value(), 0xDEADBEEFu);
  EXPECT_EQ(to_string(r.bytes(2).value()), "hi");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteIo, BigEndianLayout) {
  Bytes buf;
  BufWriter w(buf);
  w.u16_(0x0102);
  w.u32_(0x03040506);
  const Bytes expected = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06};
  EXPECT_EQ(buf, expected);
}

TEST(ByteIo, UnderrunReturnsError) {
  Bytes buf = {0x01};
  BufReader r(buf);
  EXPECT_TRUE(r.u8_().ok());
  EXPECT_FALSE(r.u8_().ok());
  EXPECT_FALSE(r.u16_().ok());
  EXPECT_FALSE(r.u32_().ok());
  EXPECT_FALSE(r.bytes(1).ok());
  EXPECT_FALSE(r.skip(1).ok());
}

TEST(ByteIo, PatchBackfillsLengthFields) {
  Bytes buf;
  BufWriter w(buf);
  w.u16_(0);  // placeholder
  w.str("abcd");
  w.patch_u16(0, static_cast<u16>(buf.size() - 2));
  BufReader r(buf);
  EXPECT_EQ(r.u16_().value(), 4);
}

// ------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformRangeIsInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const i64 v = rng.uniform_range(3, 5);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  const double rate = static_cast<double>(hits) / n;
  EXPECT_NEAR(rate, 0.25, 0.01);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(13);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.fork();
  // The child must not replay the parent's stream.
  Rng parent_copy(21);
  parent_copy.fork();  // advance identically
  EXPECT_EQ(parent.next_u64(), parent_copy.next_u64());
  EXPECT_NE(child.next_u64(), parent.next_u64());
}

TEST(Rng, MixSeedOrderSensitive) {
  EXPECT_NE(Rng::mix_seed({1, 2}), Rng::mix_seed({2, 1}));
  EXPECT_NE(Rng::mix_seed({1}), Rng::mix_seed({1, 0}));
}

TEST(Rng, HashLabelStableAndDistinct) {
  EXPECT_EQ(Rng::hash_label("aliyun-bj"), Rng::hash_label("aliyun-bj"));
  EXPECT_NE(Rng::hash_label("aliyun-bj"), Rng::hash_label("aliyun-sh"));
}

// --------------------------------------------------------------- SimTime

TEST(SimTime, ConversionsAndArithmetic) {
  EXPECT_EQ(SimTime::from_ms(3).us, 3000);
  EXPECT_EQ(SimTime::from_sec(2).us, 2'000'000);
  EXPECT_EQ((SimTime::from_ms(5) + SimTime::from_ms(7)).millis(), 12);
  EXPECT_EQ((SimTime::from_sec(1) - SimTime::from_ms(250)).us, 750'000);
  EXPECT_DOUBLE_EQ(SimTime::from_ms(1500).seconds(), 1.5);
  EXPECT_LT(SimTime::from_us(1), SimTime::from_us(2));
  EXPECT_GE(SimTime::from_ms(1), SimTime::from_us(1000));
}

TEST(VirtualClock, MonotonicAdvance) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), SimTime::zero());
  clock.advance_to(SimTime::from_ms(10));
  EXPECT_EQ(clock.now().millis(), 10);
  clock.advance_to(SimTime::from_ms(5));  // backwards: ignored
  EXPECT_EQ(clock.now().millis(), 10);
}

// ---------------------------------------------------------------- Result

TEST(Result, ValueAndErrorPaths) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(ok.value_or(0), 42);

  Result<int> err = Error::make("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error().message, "boom");
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(Result, TakeMovesValue) {
  Result<std::string> r = std::string("payload");
  std::string taken = std::move(r).take();
  EXPECT_EQ(taken, "payload");
}

TEST(Status, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  Status bad = Error::make("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "nope");
}

// --------------------------------------------------------------- hexdump

TEST(Hexdump, FormatsAsciiGutter) {
  const Bytes data = to_bytes("GET /index HTTP/1.1");
  const std::string dump = hexdump(data);
  EXPECT_NE(dump.find("47 45 54"), std::string::npos);  // "GET"
  EXPECT_NE(dump.find("|GET /index HTTP"), std::string::npos);
}

TEST(Hexdump, NonPrintableAsDots) {
  const Bytes data = {0x00, 0x1F, 'A'};
  EXPECT_NE(hexdump(data).find("|..A|"), std::string::npos);
}

TEST(HexLine, CompactFormat) {
  const Bytes data = {0xde, 0xad};
  EXPECT_EQ(hex_line(data), "de ad");
  EXPECT_EQ(hex_line(Bytes{}), "");
}

// ------------------------------------------------------------- trace/log

TEST(TraceRecorder, RecordsAndRenders) {
  obs::TraceRecorder trace;
  trace.note(SimTime::from_ms(1), "client", obs::TraceKind::kSend, "SYN");
  trace.note(SimTime::from_ms(2), "gfw", obs::TraceKind::kInject, "RST");
  ASSERT_EQ(trace.events().size(), 2u);
  const std::string rendered = trace.render();
  EXPECT_NE(rendered.find("client"), std::string::npos);
  EXPECT_NE(rendered.find("inject"), std::string::npos);
  trace.clear();
  EXPECT_TRUE(trace.events().empty());
}

TEST(Log, SinkReceivesMessagesAboveLevel) {
  std::vector<std::string> captured;
  Log::set_sink([&captured](LogLevel, const std::string& msg) {
    captured.push_back(msg);
  });
  Log::set_level(LogLevel::kWarn);
  YS_LOG(LogLevel::kDebug, "hidden");
  YS_LOG(LogLevel::kError, "visible");
  EXPECT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "visible");
  Log::set_sink(nullptr);
  Log::set_level(LogLevel::kWarn);
}

// ----------------------------------------------------------------- json

TEST(Json, EveryAsciiByteEscapesAndRoundTrips) {
  for (int b = 0x01; b <= 0x7f; ++b) {
    const std::string raw = std::string("a") + static_cast<char>(b) + "z";
    const std::string escaped = json::escape(raw);
    for (char c : escaped) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "byte " << b;
    }
    const auto doc = json::parse("\"" + escaped + "\"");
    ASSERT_TRUE(doc.has_value()) << "byte " << b << ": " << escaped;
    ASSERT_TRUE(doc->is_string());
    EXPECT_EQ(doc->string, raw) << "byte " << b;
  }
  EXPECT_EQ(json::escape("\r\t\x01"), "\\r\\t\\u0001");
}

TEST(Json, NumberIsValidJson) {
  EXPECT_EQ(json::number(42.0), "42");
  EXPECT_EQ(json::number(-3.0), "-3");
  EXPECT_EQ(json::number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json::number(std::nan("")), "null");
  const auto doc = json::parse(json::number(0.1));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->number, 0.1);
}

}  // namespace
}  // namespace ys
