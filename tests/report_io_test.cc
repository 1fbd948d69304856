// The bit-exact record dialect (src/lab/report_io): hexfloat doubles, the
// FNV-1a checksum, validated histogram state import and reader error
// positions — the bit-exactness that makes a resumed fleet merge identical
// to a fresh one.

#include "src/lab/report_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>

#include "src/sim/time.h"
#include "src/stats/histogram.h"

namespace wdmlat::lab {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(ReportIoTest, HexDoubleRoundTripsExactly) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           1.5,
                           -1.0 / 3.0,
                           3.141592653589793,
                           1e-300,
                           4.9406564584124654e-324,  // smallest denormal
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::min(),
                           123456789.123456789};
  for (const double value : values) {
    double parsed = 0.0;
    ASSERT_TRUE(ParseHexDouble(HexDouble(value), &parsed)) << HexDouble(value);
    EXPECT_TRUE(SameBits(value, parsed)) << HexDouble(value);
  }
}

TEST(ReportIoTest, ParseHexDoubleRejectsPartialAndEmpty) {
  double out = 0.0;
  EXPECT_FALSE(ParseHexDouble("", &out));
  EXPECT_FALSE(ParseHexDouble("zzz", &out));
  EXPECT_FALSE(ParseHexDouble("0x1.8p+1 trailing", &out));
  EXPECT_TRUE(ParseHexDouble("0x1.8p+1", &out));
  EXPECT_EQ(out, 3.0);
}

TEST(ReportIoTest, Fnv1a64KnownVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
  EXPECT_NE(Fnv1a64("journal"), Fnv1a64("journa l"));
}

TEST(ReportIoTest, ReaderErrorsPointAtTheValueNotTheWhitespaceBeforeIt) {
  std::string_view key;
  obs::JsonCursor u64(R"({"n":   "12x"})");
  ASSERT_TRUE(u64.BeginObject());
  ASSERT_TRUE(u64.NextMember(&key));
  std::uint64_t count = 0;
  EXPECT_FALSE(report_json::ReadU64(u64, "n", &count));
  std::size_t line = 0;
  std::size_t column = 0;
  u64.ErrorLineColumn(&line, &column);
  EXPECT_EQ(line, 1u);
  EXPECT_EQ(column, 9u) << u64.error();  // the opening quote of "12x"
  EXPECT_EQ(u64.error(), "field \"n\" is not a decimal u64: 12x");

  obs::JsonCursor hex("{\"h\":\n    \"1.5\"}");
  ASSERT_TRUE(hex.BeginObject());
  ASSERT_TRUE(hex.NextMember(&key));
  double value = 0.0;
  EXPECT_FALSE(report_json::ReadHexDouble(hex, "h", &value));
  hex.ErrorLineColumn(&line, &column);
  EXPECT_EQ(line, 2u);
  EXPECT_EQ(column, 5u) << hex.error();
  EXPECT_EQ(hex.error(), "field \"h\" is not a hexfloat: 1.5");
}

TEST(ReportIoTest, HistogramStateImportValidates) {
  stats::LatencyHistogram hist;
  hist.Record(sim::UsToCycles(100.0));
  hist.Record(sim::UsToCycles(250.0));
  const stats::LatencyHistogram::State good = hist.ExportState();

  stats::LatencyHistogram restored;
  ASSERT_TRUE(restored.ImportState(good));
  EXPECT_EQ(restored.ToCsv(), hist.ToCsv());

  stats::LatencyHistogram::State bad = good;
  bad.count += 1;  // counts no longer conserve
  stats::LatencyHistogram reject;
  EXPECT_FALSE(reject.ImportState(bad));
  EXPECT_EQ(reject.count(), 0u);  // failed import leaves a reset histogram

  stats::LatencyHistogram::State out_of_range = good;
  out_of_range.buckets.emplace_back(100000, 1);
  EXPECT_FALSE(reject.ImportState(out_of_range));
}

}  // namespace
}  // namespace wdmlat::lab
