#include "common/int_width.h"

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <vector>

namespace hetex {

static void PrintTo(const IntCode& code, std::ostream* os) {
  *os << "{" << code.width << " B, base " << code.base << "}";
}

namespace {

/// True when `code` stores every value of [lo, hi] in range of its width.
bool Fits(IntCode code, int64_t lo, int64_t hi) {
  if (code.width == 8) return true;
  const int64_t half = int64_t{1} << (8 * code.width - 1);
  return EncodeInt(lo, code.base) >= -half && EncodeInt(hi, code.base) < half;
}

TEST(IntCode, BaseZeroWhereABaseDoesNotNarrow) {
  struct Case {
    int64_t lo, hi;
    uint32_t width;
  };
  const Case cases[] = {
      {1, 50, 1},                  // lo_quantity
      {0, 10, 1},                  // lo_discount
      {-128, 127, 1},
      {1, 30'000, 2},              // lo_suppkey
      {-32768, 32767, 2},
      {1, 120'000, 4},             // lo_custkey
      {1, 80'000, 4},              // lo_partkey
      {INT32_MIN, INT32_MAX, 4},
      {0, int64_t{1} << 40, 8},
      {INT64_MIN, INT64_MAX, 8},
      {INT64_MIN, 0, 8},
      {-1, INT64_MAX, 8},
  };
  for (const Case& c : cases) {
    const IntCode code = NarrowestIntCode(c.lo, c.hi);
    EXPECT_EQ(code.width, NarrowestIntWidth(c.lo, c.hi)) << c.lo << ".." << c.hi;
    EXPECT_EQ(code.width, c.width) << c.lo << ".." << c.hi;
    EXPECT_EQ(code.base, 0) << c.lo << ".." << c.hi;
  }
}

// The width is the narrowest whose 2^(8w) values cover hi - lo: 255 fits a
// byte and 256 does not, 65,535 fits two bytes and 65,536 does not.
TEST(IntCode, SpanBoundaries) {
  const int64_t lo = 100'000;  // plain width 4
  EXPECT_EQ(NarrowestIntCode(lo, lo + 255), (IntCode{1, lo + 128}));
  EXPECT_EQ(NarrowestIntCode(lo, lo + 256), (IntCode{2, lo + 128}));
  EXPECT_EQ(NarrowestIntCode(lo, lo + 65'535), (IntCode{2, lo + 32'768}));
  EXPECT_EQ(NarrowestIntCode(lo, lo + 65'536), (IntCode{4, 0}));  // no gain
  const int64_t far = int64_t{1} << 40;  // plain width 8
  EXPECT_EQ(NarrowestIntCode(far, far + 65'536), (IntCode{4, far + 32'768}));
  EXPECT_EQ(NarrowestIntCode(far, far + UINT32_MAX),
            (IntCode{4, far + (int64_t{1} << 31)}));
  EXPECT_EQ(NarrowestIntCode(far, far + UINT32_MAX + 1).width, 8u);
  // A single value takes one byte at any distance from zero.
  EXPECT_EQ(NarrowestIntCode(far, far), (IntCode{1, far}));
  for (const int64_t span : {255, 256, 65'535, 65'536}) {
    const IntCode code = NarrowestIntCode(lo, lo + span);
    EXPECT_TRUE(Fits(code, lo, lo + span)) << span;
  }
}

TEST(IntCode, AllNegativeRanges) {
  EXPECT_EQ(NarrowestIntCode(-1'000'255, -1'000'000), (IntCode{1, -1'000'127}));
  EXPECT_EQ(NarrowestIntCode(-200, -1), (IntCode{1, -100}));
  EXPECT_EQ(NarrowestIntCode(-40'000, -39'000), (IntCode{2, -39'500}));
  EXPECT_EQ(NarrowestIntCode(-100, -50), (IntCode{1, 0}));  // plain 1 byte
  for (const auto& [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {-1'000'255, -1'000'000}, {-200, -1}, {-40'000, -39'000},
           {-3'000'000'000, -2'999'990'000}}) {
    const IntCode code = NarrowestIntCode(lo, hi);
    EXPECT_LT(code.base, 0) << lo << ".." << hi;
    EXPECT_TRUE(Fits(code, lo, hi)) << lo << ".." << hi;
  }
}

// The span is taken in unsigned arithmetic: ranges at the int64 extremes
// neither overflow nor pick a width that cannot hold them.
TEST(IntCode, Int64Extremes) {
  EXPECT_EQ(NarrowestIntCode(INT64_MIN, INT64_MIN + 255),
            (IntCode{1, INT64_MIN + 128}));
  EXPECT_EQ(NarrowestIntCode(INT64_MAX - 65'535, INT64_MAX),
            (IntCode{2, INT64_MAX - 32'767}));
  EXPECT_EQ(NarrowestIntCode(INT64_MIN, INT64_MIN), (IntCode{1, INT64_MIN}));
  EXPECT_EQ(NarrowestIntCode(INT64_MAX, INT64_MAX), (IntCode{1, INT64_MAX}));
  EXPECT_EQ(NarrowestIntCode(INT64_MIN, INT64_MIN + UINT32_MAX),
            (IntCode{4, INT64_MIN + (int64_t{1} << 31)}));
  EXPECT_EQ(NarrowestIntCode(INT64_MIN, INT64_MAX), (IntCode{8, 0}));
  EXPECT_TRUE(Fits(NarrowestIntCode(INT64_MIN, INT64_MIN + 255), INT64_MIN,
                   INT64_MIN + 255));
  EXPECT_TRUE(Fits(NarrowestIntCode(INT64_MAX - 65'535, INT64_MAX),
                   INT64_MAX - 65'535, INT64_MAX));
}

// Every value of a range stores in its code and loads back exactly, at every
// width, the stored integer being v - base sign-extended.
TEST(IntCode, EncodeDecodeRoundTripsAtEveryWidth) {
  const std::vector<std::pair<int64_t, int64_t>> ranges = {
      {19'920'101, 19'920'101 + 200},        // 1 byte
      {19'920'101, 19'981'231},              // 2 bytes (lo_orderdate)
      {-5'000'000'000, -4'000'000'000},      // 4 bytes
      {INT64_MIN + 7, INT64_MAX - 3},        // 8 bytes
      {INT64_MIN, INT64_MIN + 255},
      {INT64_MAX - 65'535, INT64_MAX},
  };
  const uint32_t widths[] = {1, 2, 4, 8, 1, 2};
  for (size_t i = 0; i < ranges.size(); ++i) {
    const auto [lo, hi] = ranges[i];
    const IntCode code = NarrowestIntCode(lo, hi);
    EXPECT_EQ(code.width, widths[i]) << lo << ".." << hi;
    const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    for (const uint64_t step : {uint64_t{0}, span / 3, span / 2, span - 1, span}) {
      const int64_t v = static_cast<int64_t>(static_cast<uint64_t>(lo) + step);
      unsigned char buf[8];
      std::memset(buf, 0xAB, sizeof(buf));
      StoreInt(buf, code, v);
      EXPECT_EQ(LoadInt(buf, code), v) << lo << ".." << hi << " @" << step;
      EXPECT_EQ(LoadInt(buf, code.width), EncodeInt(v, code.base));
      EXPECT_EQ(DecodeInt(EncodeInt(v, code.base), code.base), v);
      if (code.width < 8) {
        EXPECT_EQ(buf[code.width], 0xAB);  // the store stays in its width
      }
    }
  }
}

}  // namespace
}  // namespace hetex
