// Unit tests for src/util: Status/Result, the little-endian codec, CRC-32
// (against known vectors), the deterministic RNG, histograms, and tables.

#include <gtest/gtest.h>

#include "src/util/codec.h"
#include "src/util/crc32.h"
#include "src/util/histogram.h"
#include "src/util/result.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/table.h"

namespace lfs {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status st = NotFoundError("no such file '/a'");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: no such file '/a'");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); c++) {
    EXPECT_FALSE(StatusCodeName(static_cast<StatusCode>(c)).empty());
  }
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> bad = NoSpaceError("full");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNoSpace);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) {
      return InvalidArgumentError("nope");
    }
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    LFS_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(*outer(false), 8);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kInvalidArgument);
}

TEST(CodecTest, RoundTripsAllWidths) {
  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  enc.PutU8(0xAB);
  enc.PutU16(0xBEEF);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(0x0123456789ABCDEFull);
  enc.PutLengthPrefixedString("hello");
  enc.PadTo(64);
  ASSERT_EQ(buf.size(), 64u);

  Decoder dec(buf);
  EXPECT_EQ(dec.GetU8(), 0xAB);
  EXPECT_EQ(dec.GetU16(), 0xBEEF);
  EXPECT_EQ(dec.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(dec.GetLengthPrefixedString(), "hello");
  EXPECT_TRUE(dec.ok());
}

TEST(CodecTest, LittleEndianOnDisk) {
  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  enc.PutU32(0x01020304);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(CodecTest, OverreadSetsStickyError) {
  std::vector<uint8_t> buf = {1, 2};
  Decoder dec(buf);
  EXPECT_EQ(dec.GetU32(), 0u);
  EXPECT_FALSE(dec.ok());
  EXPECT_EQ(dec.GetU64(), 0u);  // still failed, no UB
}

TEST(Crc32Test, KnownVectors) {
  // CRC-32/ISO-HDLC of "123456789" is 0xCBF43926.
  const char* s = "123456789";
  std::span<const uint8_t> data(reinterpret_cast<const uint8_t*>(s), 9);
  EXPECT_EQ(Crc32(data), 0xCBF43926u);
  // Empty input.
  EXPECT_EQ(Crc32({}), 0x00000000u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  std::vector<uint8_t> data(1000);
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  uint32_t state = Crc32Init();
  state = Crc32Update(state, std::span<const uint8_t>(data).subspan(0, 400));
  state = Crc32Update(state, std::span<const uint8_t>(data).subspan(400));
  EXPECT_EQ(Crc32Finish(state), Crc32(data));
}

// Bit-at-a-time CRC-32 straight from the polynomial: the reference the
// table-driven implementation must match bit for bit.
uint32_t BitwiseCrc32(std::span<const uint8_t> data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; bit++) {
      crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtAnyLengthOffsetAndSplit) {
  Rng rng(2024);
  std::vector<uint8_t> buf(9000 + 16);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  for (int trial = 0; trial < 300; trial++) {
    size_t len = rng.NextBelow(9001);
    size_t start = rng.NextBelow(16);  // unaligned starts
    std::span<const uint8_t> data(buf.data() + start, len);
    uint32_t want = BitwiseCrc32(data);
    ASSERT_EQ(Crc32(data), want) << "len " << len << " start " << start;
    size_t split = len == 0 ? 0 : rng.NextBelow(len + 1);
    uint32_t state = Crc32Update(Crc32Init(), data.subspan(0, split));
    state = Crc32Update(state, data.subspan(split));
    ASSERT_EQ(Crc32Finish(state), want) << "len " << len << " split " << split;
  }
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  for (int i = 0; i < 1000; i++) {
    uint64_t v = rng.NextInRange(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
  }
}

TEST(RngTest, NextDoubleUniformish) {
  Rng rng(9);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; i++) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; i++) {
    sum += rng.NextExponential(100.0);
  }
  EXPECT_NEAR(sum / n, 100.0, 2.0);
}

TEST(RngTest, FileSizeBoundedAndPositive) {
  Rng rng(13);
  for (int i = 0; i < 10000; i++) {
    uint64_t s = rng.NextFileSize(8192, 65536);
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, 65536u);
  }
}

TEST(HistogramTest, BucketsAndFractions) {
  Histogram h(10);
  h.Add(0.05);
  h.Add(0.05);
  h.Add(0.95);
  h.Add(1.0);   // clamps into the last bucket
  h.Add(-0.5);  // clamps into the first bucket
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 3u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_DOUBLE_EQ(h.Fraction(0), 0.6);
  EXPECT_NEAR(h.BucketMid(0), 0.05, 1e-9);
}

TEST(HistogramTest, RendersAsciiAndCsv) {
  Histogram h(4);
  h.Add(0.1);
  h.Add(0.9);
  std::string ascii = h.ToAscii("test");
  EXPECT_NE(ascii.find("test (n=2)"), std::string::npos);
  std::string csv = h.ToCsv();
  EXPECT_NE(csv.find("utilization,fraction"), std::string::npos);
}

TEST(TableTest, AlignsColumns) {
  Table t({"a", "long header"});
  t.AddRow({"xxxxxxx", "1"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("| a       | long header |"), std::string::npos);
  EXPECT_NE(out.find("| xxxxxxx | 1           |"), std::string::npos);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(Table::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::FmtPercent(0.656), "66%");
  EXPECT_EQ(Table::FmtPercent(0.5, 1), "50.0%");
}

}  // namespace
}  // namespace lfs
