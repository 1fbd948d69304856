// The record codec: byte identity and exact number spellings.
//
// - FNV-1a goldens of a fleet record line and a small fleet's fleet.json,
//   pinned from the snprintf/strtod + DOM codec these writers replaced: any
//   change in a single output byte fails here. The record line's golden
//   was re-pinned when records gained the spec fingerprint member; the
//   test also checks the line without that member against the old bytes.
// - The hexfloat writer against printf("%a") and the reader against strtod
//   over 10M SplitMix64 bit patterns, and the reader's canonical-only rule
//   against libc over mutated spellings.
// - Strict u64/hexfloat spellings and exact string escapes, directed.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/lab/fleet.h"
#include "src/lab/lab.h"
#include "src/lab/report_io.h"
#include "src/obs/json.h"
#include "src/sim/rng.h"
#include "tests/temp_dir.h"

namespace wdmlat::lab {
namespace {

constexpr std::uint64_t kSeededFingerprint = 0xfedcba9876543210ull;

// A record whose sketch holds a full top-K tail (more samples than
// QuantileSketch::kTailCapacity), several compactor levels, both
// histograms and non-zero anatomy totals.
FleetCellRecord SeededRecord() {
  FleetCellRecord record;
  record.index = 1234567;
  record.cohort = 3;
  record.seed = 0x9e3779b97f4a7c15ull;
  record.fingerprint = kSeededFingerprint;
  record.fault_activations = 17;
  record.anatomy_episodes = 5;
  for (std::size_t s = 0; s < record.anatomy_stage_cycles.size(); ++s) {
    record.anatomy_stage_cycles[s] = 1000003ull * (s + 1) * (s + 7);
  }
  sim::Rng rng(20240601);
  const int samples = 40000;
  for (int i = 0; i < samples; ++i) {
    const double ms = 0.01 * std::exp(6.0 * rng.NextDouble());
    record.thread.RecordMs(ms);
    record.thread_sketch.RecordMs(ms);
    record.dpc_interrupt.RecordMs(0.25 * ms);
  }
  record.samples = samples;
  record.stress_hours = samples / 3.6e6;
  record.speed_mhz = 233.33;
  return record;
}

FleetSpec GoldenPopulation() {
  FleetSpec spec;
  spec.name = "codec \"golden\"";
  spec.master_seed = 4242;
  FleetCohort nt;
  nt.name = "nt\toffice caf\xc3\xa9";
  nt.os = "nt4";
  nt.workloads = {"office", "web"};
  nt.count = 3;
  nt.stress_minutes = 0.002;
  nt.warmup_seconds = 0.1;
  nt.speed_mhz_lo = 150.0;
  nt.speed_mhz_hi = 450.0;
  nt.episode_threshold_us = 150.0;
  FleetCohort w98;
  w98.name = "98\\games";
  w98.os = "win98";
  w98.workloads = {"games"};
  w98.count = 3;
  w98.stress_minutes = 0.004;
  w98.warmup_seconds = 0.1;
  w98.fault_plan = "irq_storm";
  w98.fault_prob = 0.5;
  w98.sketch = true;
  spec.cohorts = {nt, w98};
  return spec;
}

TEST(RecordCodecGolden, FleetRecordLine) {
  const std::string line = FleetRecordToLine(SeededRecord());
  EXPECT_EQ(line.size(), 449966u);
  EXPECT_EQ(Fnv1a64(line), 0x91ee5a68b5fc50bdull) << std::hex << Fnv1a64(line);
  // Without its spec fingerprint member the line is the golden pinned before
  // records carried one, byte for byte: the member is the only difference.
  const std::string member =
      ", \"fingerprint\": \"" + std::to_string(kSeededFingerprint) + "\"";
  std::string without = line;
  const std::size_t at = without.find(member);
  ASSERT_NE(at, std::string::npos);
  without.erase(at, member.size());
  EXPECT_EQ(without.size(), 449927u);
  EXPECT_EQ(Fnv1a64(without), 0xf135e486d0a5bd97ull) << std::hex << Fnv1a64(without);
}

TEST(RecordCodecGolden, SmallFleetReport) {
  const Fleet fleet(GoldenPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  const std::string dir = test::TempDirFor("golden");
  FleetShardOptions options;
  options.out_path = FleetShardPath(dir, 0, 1);
  const FleetShardResult result = RunFleetShard(fleet, options);
  ASSERT_TRUE(result.ok()) << result.error;
  FleetReport report;
  std::string error;
  ASSERT_TRUE(MergeFleetShards(fleet, {options.out_path}, &report, &error)) << error;
  const std::string json = FleetReportToJson(report);
  EXPECT_EQ(json.size(), 14819u);
  EXPECT_EQ(Fnv1a64(json), 0x147031f341da73c5ull) << std::hex << Fnv1a64(json);
}

// --- Hexfloat writer and reader against libc --------------------------------

// SplitMix64 bit patterns, reshaped in turn toward the awkward corners:
// subnormals, few fraction bits (trailing-zero trimming), exponents near
// zero and at both ends of the range, and the special values.
std::uint64_t AwkwardBits(std::uint64_t& state, std::uint64_t i) {
  std::uint64_t bits = sim::SplitMix64(state);
  const std::uint64_t sign = bits & (std::uint64_t{1} << 63);
  const std::uint64_t fraction = bits & ((std::uint64_t{1} << 52) - 1);
  switch (i % 8) {
    case 1:  // subnormal (or zero)
      return sign | (fraction >> (bits >> 58));
    case 2: {  // only the leading 0-12 hex digits of the fraction set
      const int digits = static_cast<int>((bits >> 58) % 13);
      return bits & ~((std::uint64_t{1} << (52 - 4 * digits)) - 1);
    }
    case 3:  // exponent within 2^-20 .. 2^20
      return sign | static_cast<std::uint64_t>(1003 + (bits >> 53) % 41) << 52 | fraction;
    case 4:  // the extreme exponents
      return sign | static_cast<std::uint64_t>((bits >> 62 & 1) != 0 ? 0x7fe : 0x001) << 52 |
             fraction;
    case 5: {  // zeros, infinities, NaNs, the smallest and largest magnitudes
      const std::uint64_t specials[] = {0, 0x7ffull << 52, (0x7ffull << 52) | fraction | 1, 1,
                                        (0x7feull << 52) | ((std::uint64_t{1} << 52) - 1),
                                        std::uint64_t{1} << 52};
      return sign | specials[(bits >> 40) % 6];
    }
    default:
      return bits;
  }
}

TEST(RecordCodecDifferential, HexDoubleMatchesPrintfAndStrtod) {
  std::uint64_t state = 0x5eedf00dull;
  char expected[64];
  std::uint64_t mismatches = 0;
  for (std::uint64_t i = 0; i < 10'000'000; ++i) {
    const std::uint64_t bits = AwkwardBits(state, i);
    const double value = std::bit_cast<double>(bits);
    const int length = std::snprintf(expected, sizeof(expected), "%a", value);
    const std::string written = HexDouble(value);
    if (written != std::string_view(expected, static_cast<std::size_t>(length))) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "HexDouble(" << expected << ") wrote " << written;
      }
      continue;
    }
    double parsed = 0.0;
    const bool accepted = ParseHexDouble(written, &parsed);
    if (!std::isfinite(value)) {
      if (accepted && ++mismatches <= 5) {
        ADD_FAILURE() << "non-finite " << expected << " accepted";
      }
      continue;
    }
    const double reference = std::strtod(expected, nullptr);
    if (!accepted || std::bit_cast<std::uint64_t>(parsed) != bits ||
        std::bit_cast<std::uint64_t>(reference) != bits) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "ParseHexDouble(" << expected << ") disagrees with strtod";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// A string is canonical when strtod reads all of it as a finite value that
// printf("%a") spells the same way.
bool IsCanonicalHexDouble(const std::string& text, double* value) {
  if (text.empty() || text[0] == ' ') {
    return false;
  }
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(*value)) {
    return false;
  }
  char spelled[64];
  std::snprintf(spelled, sizeof(spelled), "%a", *value);
  return text == spelled;
}

TEST(RecordCodecDifferential, HexDoubleReaderAcceptsOnlyCanonicalSpellings) {
  constexpr std::string_view kAlphabet = "0123456789abcdefABCDEFxXpP+-. n";
  std::uint64_t state = 0xca11ab1eull;
  sim::Rng rng(77);
  std::uint64_t accepted_mutants = 0;
  for (std::uint64_t i = 0; i < 300'000; ++i) {
    std::string text = HexDouble(std::bit_cast<double>(AwkwardBits(state, i)));
    const int edits = 1 + static_cast<int>(rng.UniformInt(0, 2));
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = rng.UniformInt(0, text.size());
      const char c = kAlphabet[rng.UniformInt(0, kAlphabet.size() - 1)];
      switch (rng.UniformInt(0, 2)) {
        case 0:
          if (at < text.size()) text[at] = c;
          break;
        case 1:
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), c);
          break;
        default:
          if (at < text.size()) text.erase(at, 1);
      }
    }
    double expected = 0.0;
    double parsed = 0.0;
    const bool canonical = IsCanonicalHexDouble(text, &expected);
    const bool accepted = ParseHexDouble(text, &parsed);
    ASSERT_EQ(accepted, canonical) << "\"" << text << "\"";
    if (accepted) {
      ++accepted_mutants;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(parsed), std::bit_cast<std::uint64_t>(expected))
          << text;
    }
  }
  // Some edits land on another canonical spelling (a changed digit); the
  // rule must accept those too.
  EXPECT_GT(accepted_mutants, 1000u);
}

// --- Strict spellings ---------------------------------------------------------

TEST(RecordCodecStrict, ParseHexDoubleRejectsEveryNonCanonicalSpelling) {
  const char* rejected[] = {"inf",
                            "-inf",
                            "nan",
                            "-nan",
                            "1.5",
                            " 0x1p+0",
                            "0x1p+0 ",
                            "0X1P+0",
                            "0x1P+0",
                            "0x1.8P+1",
                            "0x1.A8p+1",
                            "+0x1p0",
                            "+0x1p+0",
                            "0x1p0",
                            "0x1p-0",
                            "0x1p+00",
                            "0x1.00000000000001p+0",
                            "0x1.0000000000000p+0",
                            "0x1.80p+1",
                            "0x1.p+1",
                            "0x1p+1024",
                            "0x1p-1023",
                            "0x2p+0",
                            "0x0.8p-1021",
                            "0x0.0p+0",
                            "0x0p-0",
                            "0x0p+1",
                            "0x1",
                            "0x",
                            "",
                            "-"};
  for (const char* text : rejected) {
    double out = 42.0;
    EXPECT_FALSE(ParseHexDouble(text, &out)) << "\"" << text << "\"";
    EXPECT_EQ(out, 42.0) << text;
  }
  const std::pair<const char*, double> accepted[] = {
      {"0x1p+0", 1.0},   {"-0x1.8p+1", -3.0}, {"0x0p+0", 0.0},
      {"0x1p-1022", 2.2250738585072014e-308}, {"0x0.0000000000001p-1022", 4.9406564584124654e-324},
      {"0x1.fffffffffffffp+1023", 1.7976931348623157e308}};
  for (const auto& [text, value] : accepted) {
    double out = 0.0;
    EXPECT_TRUE(ParseHexDouble(text, &out)) << text;
    EXPECT_EQ(out, value) << text;
  }
  double negative_zero = 0.0;
  ASSERT_TRUE(ParseHexDouble("-0x0p+0", &negative_zero));
  EXPECT_TRUE(std::signbit(negative_zero));
}

TEST(RecordCodecStrict, ParseU64AcceptsDigitsOnly) {
  const char* rejected[] = {"-1", " 5", "5 ", "+5", "", "0x10", "18446744073709551616", "1e3",
                            "5\n", "\t5"};
  for (const char* text : rejected) {
    std::uint64_t out = 42;
    EXPECT_FALSE(report_json::ParseU64(text, &out)) << "\"" << text << "\"";
    EXPECT_EQ(out, 42u) << text;
  }
  std::uint64_t out = 0;
  EXPECT_TRUE(report_json::ParseU64("18446744073709551615", &out));
  EXPECT_EQ(out, 18446744073709551615ull);
  EXPECT_TRUE(report_json::ParseU64("0", &out));
  EXPECT_EQ(out, 0u);
}

// A shard line around `payload`, with its checksum recomputed: what a
// corrupting or crafted writer could produce.
std::string LineAround(std::string_view payload) {
  std::string line = "{\"cell\": \"0\", \"seed\": \"1\", \"fingerprint\": \"0\", \"checksum\": \"";
  report_json::AppendU64(line, Fnv1a64(payload));
  line += "\", \"payload\": \"";
  report_json::AppendEscaped(line, payload);
  line += "\"}";
  return line;
}

// The record payload of `line`, as the writer made it.
std::string PayloadOf(const std::string& line) {
  const obs::JsonParseResult parsed = obs::ParseJson(line);
  EXPECT_TRUE(parsed.valid) << parsed.error;
  return parsed.value.StringOr("payload", "");
}

std::string Replace(std::string text, std::string_view from, std::string_view to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return at == std::string::npos ? text : text.replace(at, from.size(), to);
}

TEST(RecordCodecStrict, RecomputedChecksumCannotCarryBadNumbersIntoTheMerge) {
  FleetCellRecord record;
  record.seed = 1;
  record.samples = 5;
  record.stress_hours = 0.25;
  record.thread.RecordMs(0.5);
  const std::string payload = PayloadOf(FleetRecordToLine(record));
  FleetCellRecord decoded;
  std::string error;
  ASSERT_TRUE(FleetRecordFromLine(LineAround(payload), &decoded, &error)) << error;
  EXPECT_EQ(FleetRecordToLine(decoded), FleetRecordToLine(record));

  const std::pair<std::string_view, std::string_view> respellings[] = {
      {"\"samples\": \"5\"", "\"samples\": \"-1\""},
      {"\"samples\": \"5\"", "\"samples\": \"+5\""},
      {"\"samples\": \"5\"", "\"samples\": \" 5\""},
      {"\"stress_hours\": \"0x1p-2\"", "\"stress_hours\": \"nan\""},
      {"\"stress_hours\": \"0x1p-2\"", "\"stress_hours\": \"inf\""},
      {"\"stress_hours\": \"0x1p-2\"", "\"stress_hours\": \"0.25\""},
      {"\"stress_hours\": \"0x1p-2\"", "\"stress_hours\": \"0x1.0p-2\""},
      {"\"version\": 1", "\"version\": 1.5"},
      {"\"cohort\": 0", "\"cohort\": 0.5"},
      {"\"cohort\": 0", "\"cohort\": -1"},
      {"\"cohort\": 0, ", ""},
  };
  for (const auto& [from, to] : respellings) {
    EXPECT_FALSE(FleetRecordFromLine(LineAround(Replace(payload, from, to)), &decoded, &error))
        << to;
  }
  // Equal values in another JSON number spelling are still the same value.
  EXPECT_TRUE(FleetRecordFromLine(LineAround(Replace(payload, "\"version\": 1", "\"version\": 1.0")),
                                  &decoded, &error))
      << error;
}

TEST(RecordCodecStrict, DecoderTakesAnyKeyOrderIgnoresUnknownKeysRejectsDuplicates) {
  FleetCellRecord record;
  record.index = 9;
  record.seed = 77;
  record.fingerprint = 5;
  record.samples = 1;
  record.thread.RecordMs(0.5);
  const std::string line = FleetRecordToLine(record);
  const std::string payload = PayloadOf(line);
  FleetCellRecord decoded;
  std::string error;
  std::string reordered = "{\"payload\": \"";
  report_json::AppendEscaped(reordered, payload);
  reordered += "\", \"future\": [1, {\"x\": null}], \"checksum\": \"";
  report_json::AppendU64(reordered, Fnv1a64(payload));
  reordered += "\", \"seed\": \"77\", \"cell\": \"9\", \"fingerprint\": \"5\"}";
  ASSERT_TRUE(FleetRecordFromLine(reordered, &decoded, &error)) << error;
  EXPECT_EQ(FleetRecordToLine(decoded), line);

  EXPECT_FALSE(FleetRecordFromLine(Replace(line, "{\"cell\": \"9\",", "{\"cell\": \"9\", \"cell\": \"9\","),
                                   &decoded, &error));
  EXPECT_NE(error.find("duplicate object key"), std::string::npos) << error;
  EXPECT_FALSE(FleetRecordFromLine(
      LineAround(Replace(payload, "\"samples\": \"1\"", "\"samples\": \"1\", \"samples\": \"1\"")),
      &decoded, &error));
  EXPECT_FALSE(FleetRecordFromLine(
      LineAround(Replace(payload, "{\"format\"", "{\"x\": 1, \"x\": 2, \"format\"")), &decoded,
      &error));
  EXPECT_FALSE(FleetRecordFromLine(Replace(line, "\"seed\": \"77\", ", ""), &decoded, &error));
  EXPECT_FALSE(
      FleetRecordFromLine(Replace(line, "\"fingerprint\": \"5\", ", ""), &decoded, &error));
}

// --- String escapes -----------------------------------------------------------

std::string AsciiAndUtf8() {
  std::string text;
  for (int c = 0x01; c <= 0x7f; ++c) {
    text += static_cast<char>(c);
  }
  return text + "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80";  // é, €, 😀
}

TEST(RecordCodecEscapes, EscapeSpellsControlBytesAsJsonEscapes) {
  EXPECT_EQ(report_json::Escape("a\x01\tb\"\\\n\r\x1f c"),
            "a\\u0001\\tb\\\"\\\\\\n\\r\\u001f c");
  // Past the first eight bytes, where the scan goes a word at a time.
  EXPECT_EQ(report_json::Escape("0123456789abcdef\x02xyz"), "0123456789abcdef\\u0002xyz");
}

TEST(RecordCodecEscapes, EscapeRoundTripsThroughTheGrammar) {
  std::vector<std::string> texts = {AsciiAndUtf8(), "tab\there", "caf\xc3\xa9",
                                    std::string("nul\0byte", 8)};
  for (int c = 0x01; c <= 0x7f; ++c) {
    texts.emplace_back(1, static_cast<char>(c));
  }
  for (const std::string& text : texts) {
    const obs::JsonParseResult parsed =
        obs::ParseJson("{\"s\": \"" + report_json::Escape(text) + "\"}");
    ASSERT_TRUE(parsed.valid) << parsed.error;
    EXPECT_EQ(parsed.value.StringOr("s", "?"), text);

    std::string escaped = "\"";
    report_json::AppendEscaped(escaped, text);
    escaped += '"';
    obs::JsonCursor cursor(escaped);
    std::string_view read;
    ASSERT_TRUE(cursor.ReadString(&read)) << cursor.error();
    EXPECT_TRUE(cursor.Finish());
    EXPECT_EQ(read, text);
  }
}

TEST(RecordCodecEscapes, CohortNamesWithEscapesSurviveTheFleetSpec) {
  FleetSpec spec;
  std::string error;
  ASSERT_TRUE(FleetSpecFromJson(
      "{\"cohorts\": [{\"name\": \"" + report_json::Escape("tab\there caf\xc3\xa9") + "\"}]}",
      &spec, &error))
      << error;
  EXPECT_EQ(spec.cohorts[0].name, "tab\there caf\xc3\xa9");
}

}  // namespace
}  // namespace wdmlat::lab
