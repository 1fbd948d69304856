// Seeded mutation fuzz of FleetRecordFromLine against the DOM decoder it
// replaced.
//
// The oracle is a copy of that decoder (obs::ParseJson, then field lookups
// on the tree), run in two spellings: as it was, with strtoull/strtod
// number readers and truncating integer casts, and with the strict
// readers. The two differ only in which number spellings they take, so:
//   - the streaming decoder must agree with the strict oracle exactly:
//     accept/reject, and the decoded record when both accept;
//   - it may reject a line the original decoder accepted (a documented
//     tightening: non-canonical hexfloats, signed or padded u64s,
//     fractional or missing integer fields), never the reverse;
//   - an accepted line's record re-encodes to a line that decodes to the
//     same record.
// Mutations: byte flips, truncation, escape injection, and — on the line
// and, with the checksum recomputed, on the payload — key reorder,
// duplicate and unknown keys, dropped keys and number respellings. The
// Rng seed fixes every input, so a failure replays.

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/lab/fleet.h"
#include "src/lab/report_io.h"
#include "src/obs/json.h"
#include "src/sim/rng.h"
#include "tests/json_mutator.h"

namespace wdmlat::lab {
namespace {

// --- The replaced DOM decoder -------------------------------------------------

class ReferenceDecoder {
 public:
  explicit ReferenceDecoder(bool strict) : strict_(strict) {}

  bool Decode(std::string_view line, FleetCellRecord* record) const {
    *record = FleetCellRecord{};
    const obs::JsonParseResult parsed = obs::ParseJson(line);
    if (!parsed.valid || !parsed.value.is_object()) {
      return false;
    }
    const obs::JsonValue& root = parsed.value;
    FleetCellRecord result;
    std::uint64_t checksum = 0;
    std::string payload;
    if (!U64Field(root, "cell", &result.index) || !U64Field(root, "seed", &result.seed) ||
        !U64Field(root, "fingerprint", &result.fingerprint) ||
        !U64Field(root, "checksum", &checksum) || !StringField(root, "payload", &payload)) {
      return false;
    }
    if (Fnv1a64(payload) != checksum) {
      return false;
    }
    const obs::JsonParseResult body = obs::ParseJson(payload);
    if (!body.valid || !body.value.is_object()) {
      return false;
    }
    const obs::JsonValue& doc = body.value;
    if (doc.StringOr("format", "") != "wdmlat-fleet-cell" || !Version(doc) ||
        !Cohort(doc, &result.cohort)) {
      return false;
    }
    if (!U64Field(doc, "samples", &result.samples) ||
        !HexField(doc, "stress_hours", &result.stress_hours) ||
        !HexField(doc, "speed_mhz", &result.speed_mhz) ||
        !U64Field(doc, "fault_activations", &result.fault_activations) ||
        !U64Field(doc, "anatomy_episodes", &result.anatomy_episodes)) {
      return false;
    }
    const obs::JsonValue* stages = doc.Find("anatomy_stage_cycles");
    if (stages == nullptr || !stages->is_array() ||
        stages->items().size() != obs::kAnatomyStageCount) {
      return false;
    }
    for (std::size_t s = 0; s < obs::kAnatomyStageCount; ++s) {
      const obs::JsonValue& item = stages->items()[s];
      if (!item.is_string() || !U64(item.as_string(), &result.anatomy_stage_cycles[s])) {
        return false;
      }
    }
    const obs::JsonValue* histograms = doc.Find("histograms");
    if (histograms == nullptr || !histograms->is_object() ||
        !Histogram(*histograms, "thread", &result.thread) ||
        !Histogram(*histograms, "dpc_interrupt", &result.dpc_interrupt) ||
        !Sketch(doc, "thread_sketch", &result.thread_sketch)) {
      return false;
    }
    *record = std::move(result);
    return true;
  }

 private:
  bool U64(std::string_view text, std::uint64_t* out) const {
    if (strict_) {
      return report_json::ParseU64(text, out);
    }
    if (text.empty()) {
      return false;
    }
    const std::string copy(text);
    char* end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(copy.c_str(), &end, 10);
    if (errno != 0 || end != copy.c_str() + copy.size()) {
      return false;
    }
    *out = value;
    return true;
  }

  bool Hex(std::string_view text, double* out) const {
    if (strict_) {
      return ParseHexDouble(text, out);
    }
    if (text.empty()) {
      return false;
    }
    const std::string copy(text);
    char* end = nullptr;
    const double value = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size()) {
      return false;
    }
    *out = value;
    return true;
  }

  // Integer-valued JSON numbers. The original cast the double (after
  // NumberOr's fallback); the cases where that cast is undefined are
  // modelled as a value the later checks reject.
  static bool ExactIndex(const obs::JsonValue* value, double limit) {
    return value != nullptr && value->is_number() && value->as_number() >= 0.0 &&
           value->as_number() < limit && value->as_number() == std::floor(value->as_number());
  }

  bool Version(const obs::JsonValue& doc) const {
    const obs::JsonValue* value = doc.Find("version");
    if (strict_) {
      return value != nullptr && value->is_number() && value->as_number() == 1.0;
    }
    const double v = doc.NumberOr("version", 0.0);
    return v >= 1.0 && v < 2.0;  // static_cast<int>(v) == 1
  }

  bool Cohort(const obs::JsonValue& doc, std::size_t* out) const {
    const obs::JsonValue* value = doc.Find("cohort");
    if (strict_) {
      if (!ExactIndex(value, 9007199254740992.0)) {
        return false;
      }
      *out = static_cast<std::size_t>(value->as_number());
      return true;
    }
    const double v = doc.NumberOr("cohort", 0.0);
    *out = v > -1.0 && v < 18446744073709551616.0 ? static_cast<std::size_t>(v) : SIZE_MAX;
    return true;
  }

  bool BucketIndex(const obs::JsonValue& value, int* out) const {
    if (strict_) {
      if (!ExactIndex(&value, stats::LatencyHistogram::kBucketCount)) {
        return false;
      }
      *out = static_cast<int>(value.as_number());
      return true;
    }
    if (!value.is_number()) {
      return false;
    }
    const double v = value.as_number();
    *out = v > -2147483649.0 && v < 2147483648.0 ? static_cast<int>(v) : -1;
    return true;
  }

  bool Parity(const obs::JsonValue& value, std::uint8_t* out) const {
    if (strict_) {
      if (!ExactIndex(&value, 2.0)) {
        return false;
      }
      *out = static_cast<std::uint8_t>(value.as_number());
      return true;
    }
    if (!value.is_number()) {
      return false;
    }
    const double v = value.as_number();
    *out = v > -1.0 && v < 256.0 ? static_cast<std::uint8_t>(v) : 2;
    return true;
  }

  static bool StringField(const obs::JsonValue& object, const char* key, std::string* out) {
    const obs::JsonValue* value = object.Find(key);
    if (value == nullptr || !value->is_string()) {
      return false;
    }
    *out = value->as_string();
    return true;
  }

  bool U64Field(const obs::JsonValue& object, const char* key, std::uint64_t* out) const {
    std::string text;
    return StringField(object, key, &text) && U64(text, out);
  }

  bool HexField(const obs::JsonValue& object, const char* key, double* out) const {
    std::string text;
    return StringField(object, key, &text) && Hex(text, out);
  }

  bool Histogram(const obs::JsonValue& histograms, const char* name,
                 stats::LatencyHistogram* out) const {
    const obs::JsonValue* object = histograms.Find(name);
    if (object == nullptr || !object->is_object()) {
      return false;
    }
    stats::LatencyHistogram::State state;
    const obs::JsonValue* buckets = object->Find("buckets");
    if (buckets == nullptr || !buckets->is_array()) {
      return false;
    }
    for (const obs::JsonValue& entry : buckets->items()) {
      int index = 0;
      std::uint64_t count = 0;
      if (!entry.is_array() || entry.items().size() != 2 ||
          !BucketIndex(entry.items()[0], &index) || !entry.items()[1].is_string() ||
          !U64(entry.items()[1].as_string(), &count)) {
        return false;
      }
      state.buckets.emplace_back(index, count);
    }
    return U64Field(*object, "count", &state.count) &&
           U64Field(*object, "underflow", &state.underflow) &&
           HexField(*object, "sum_us", &state.sum_us) &&
           HexField(*object, "min_us", &state.min_us) &&
           HexField(*object, "max_us", &state.max_us) && out->ImportState(state);
  }

  bool Sketch(const obs::JsonValue& object, const char* name, stats::QuantileSketch* out) const {
    const obs::JsonValue* sketch = object.Find(name);
    if (sketch == nullptr) {
      return true;
    }
    if (!sketch->is_object()) {
      return false;
    }
    stats::QuantileSketch::State state;
    const obs::JsonValue* levels = sketch->Find("levels");
    const obs::JsonValue* parities = sketch->Find("parities");
    const obs::JsonValue* tail = sketch->Find("tail");
    if (levels == nullptr || !levels->is_array() || parities == nullptr ||
        !parities->is_array() || tail == nullptr || !tail->is_array()) {
      return false;
    }
    const auto values = [&](const obs::JsonValue& array, std::vector<double>* out_values) {
      for (const obs::JsonValue& item : array.items()) {
        double value = 0.0;
        if (!item.is_string() || !Hex(item.as_string(), &value)) {
          return false;
        }
        out_values->push_back(value);
      }
      return true;
    };
    for (const obs::JsonValue& level : levels->items()) {
      state.levels.emplace_back();
      if (!level.is_array() || !values(level, &state.levels.back())) {
        return false;
      }
    }
    for (const obs::JsonValue& parity : parities->items()) {
      std::uint8_t bit = 0;
      if (!Parity(parity, &bit)) {
        return false;
      }
      state.parities.push_back(bit);
    }
    return values(*tail, &state.tail) && U64Field(*sketch, "count", &state.count) &&
           HexField(*sketch, "sum_ms", &state.sum_ms) &&
           HexField(*sketch, "min_ms", &state.min_ms) &&
           HexField(*sketch, "max_ms", &state.max_ms) && out->ImportState(state);
  }

  bool strict_;
};

// --- Record-line mutations (the engine is tests/json_mutator.h) -------------

// The engine's text mutations on the line, its tree mutations on the line
// and, with the checksum recomputed, on the payload, and an escape inside a
// payload string.
enum Mutation {
  kByteFlip,
  kTruncate,
  kEscapeInjection,
  kLineReorder,
  kLineDuplicate,
  kLineUnknown,
  kLineDrop,
  kPayloadReorder,
  kPayloadDuplicate,
  kPayloadUnknown,
  kPayloadDrop,
  kPayloadRespell,
  kPayloadEscape,
  kMutationCount
};

const char* const kMutationNames[kMutationCount] = {
    "byte flip",        "truncate",          "escape injection", "line reorder",
    "line duplicate",   "line unknown key",  "line drop",        "payload reorder",
    "payload duplicate", "payload unknown key", "payload drop",  "payload respell",
    "payload escape"};

// The engine mutation each kind applies (kPayloadEscape is this file's).
constexpr testutil::JsonMutation kEngineMutation[kMutationCount] = {
    testutil::kByteFlip, testutil::kTruncate,   testutil::kEscapeInjection, testutil::kReorder,
    testutil::kDuplicate, testutil::kUnknownKey, testutil::kDrop,           testutil::kReorder,
    testutil::kDuplicate, testutil::kUnknownKey, testutil::kDrop,           testutil::kRespell,
    testutil::kEscapeInjection};

// A line whose payload is `payload`, checksum recomputed; `line_root` keeps
// the original cell, seed and fingerprint.
std::string WithPayload(const obs::JsonValue& line_root, const std::string& payload) {
  std::string line = "{\"cell\": \"" + line_root.StringOr("cell", "") + "\", \"seed\": \"" +
                     line_root.StringOr("seed", "") + "\", \"fingerprint\": \"" +
                     line_root.StringOr("fingerprint", "") + "\", \"checksum\": \"";
  report_json::AppendU64(line, Fnv1a64(payload));
  line += "\", \"payload\": \"";
  report_json::AppendEscaped(line, payload);
  return line + "\"}";
}

std::string Mutate(const std::string& line, Mutation kind, sim::Rng& rng) {
  if (kind <= kLineDrop) {
    return testutil::Mutate(line, kEngineMutation[kind], rng);
  }
  const obs::JsonParseResult parsed = obs::ParseJson(line);
  std::string payload = parsed.value.StringOr("payload", "");
  if (kind == kPayloadEscape) {
    // An escape inside some payload string (a JSON escape in the payload,
    // written with its backslash escaped on the line).
    std::size_t quote = payload.find('"', testutil::Pick(rng, payload.size()));
    if (quote == std::string::npos) quote = payload.find('"');
    payload.insert(quote + 1,
                   testutil::kJsonEscapes[testutil::Pick(rng, std::size(testutil::kJsonEscapes))]);
    return WithPayload(parsed.value, payload);
  }
  testutil::JsonNode body = testutil::JsonNodeFrom(obs::ParseJson(payload).value);
  testutil::MutateTree(&body, kEngineMutation[kind], rng);
  return WithPayload(parsed.value, testutil::SerializeJson(body));
}

std::vector<std::string> Corpus() {
  std::vector<std::string> lines;
  for (int variant = 0; variant < 3; ++variant) {
    FleetCellRecord record;
    record.index = 40 + variant;
    record.cohort = static_cast<std::size_t>(variant);
    record.seed = 0x1234567890abcdefull + variant;
    record.fingerprint = 0xfeedfacecafebeefull >> variant;
    record.fault_activations = variant;
    record.anatomy_episodes = 2;
    record.anatomy_stage_cycles[1] = 12345;
    sim::Rng rng(900 + variant);
    const int samples = variant == 2 ? 0 : 400;
    for (int i = 0; i < samples; ++i) {
      const double ms = 0.02 * std::exp(5.0 * rng.NextDouble());
      record.thread.RecordMs(ms);
      record.dpc_interrupt.RecordMs(0.5 * ms);
      if (variant == 0) {
        record.thread_sketch.RecordMs(ms);
      }
    }
    record.samples = static_cast<std::uint64_t>(samples);
    record.stress_hours = samples / 3.6e6;
    record.speed_mhz = 150.0 + 37.5 * variant;
    lines.push_back(FleetRecordToLine(record));
  }
  return lines;
}

TEST(RecordFuzz, CanonicalLinesRoundTripThroughTheHarness) {
  for (const std::string& line : Corpus()) {
    const obs::JsonParseResult parsed = obs::ParseJson(line);
    ASSERT_TRUE(parsed.valid);
    EXPECT_EQ(testutil::SerializeJson(testutil::JsonNodeFrom(parsed.value)), line);
    const std::string payload = parsed.value.StringOr("payload", "");
    EXPECT_EQ(testutil::SerializeJson(testutil::JsonNodeFrom(obs::ParseJson(payload).value)),
              payload);
    EXPECT_EQ(WithPayload(parsed.value, payload), line);
    FleetCellRecord record;
    std::string error;
    ASSERT_TRUE(FleetRecordFromLine(line, &record, &error)) << error;
    EXPECT_EQ(FleetRecordToLine(record), line);
  }
}

TEST(RecordFuzz, StreamingDecoderMatchesTheDomDecoder) {
  const std::vector<std::string> corpus = Corpus();
  const ReferenceDecoder original(/*strict=*/false);
  const ReferenceDecoder strict(/*strict=*/true);
  sim::Rng rng(20260101);
  std::uint64_t accepted[kMutationCount] = {};
  std::uint64_t tightened[kMutationCount] = {};
  constexpr int kIterations = 6000;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    const Mutation kind = static_cast<Mutation>(iteration % kMutationCount);
    const std::string line = Mutate(corpus[testutil::Pick(rng, corpus.size())], kind, rng);
    FleetCellRecord got;
    FleetCellRecord expected;
    FleetCellRecord before;
    std::string error;
    const bool got_ok = FleetRecordFromLine(line, &got, &error);
    const bool strict_ok = strict.Decode(line, &expected);
    const bool original_ok = original.Decode(line, &before);
    const std::string where = std::string(kMutationNames[kind]) + " #" +
                              std::to_string(iteration) + ": " + line.substr(0, 400);
    ASSERT_EQ(got_ok, strict_ok) << where << "\n" << error;
    if (!got_ok) {
      tightened[kind] += original_ok ? 1 : 0;
      continue;
    }
    ++accepted[kind];
    ASSERT_TRUE(original_ok) << "accepted a line the DOM decoder rejected: " << where;
    const std::string encoded = FleetRecordToLine(got);
    ASSERT_EQ(encoded, FleetRecordToLine(expected)) << where;
    ASSERT_EQ(encoded, FleetRecordToLine(before)) << where;
    FleetCellRecord again;
    ASSERT_TRUE(FleetRecordFromLine(encoded, &again, &error)) << where << "\n" << error;
    ASSERT_EQ(FleetRecordToLine(again), encoded) << where;
  }
  // The fuzz reaches both sides of every decision it is meant to test.
  for (const Mutation kind : {kLineReorder, kLineUnknown, kPayloadReorder, kPayloadUnknown,
                              kPayloadEscape, kPayloadRespell}) {
    EXPECT_GT(accepted[kind], 0u) << kMutationNames[kind];
  }
  EXPECT_GT(tightened[kPayloadRespell], 0u);
  for (int kind = 0; kind < kMutationCount; ++kind) {
    RecordProperty(std::string("accepted ") + kMutationNames[kind],
                   std::to_string(accepted[kind]));
    RecordProperty(std::string("tightened ") + kMutationNames[kind],
                   std::to_string(tightened[kind]));
  }
}

}  // namespace
}  // namespace wdmlat::lab
