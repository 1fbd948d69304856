// Seeded mutation fuzz of the fleet's other strict readers: the population
// spec (FleetSpecFromJson) and the quarantine manifest
// (LoadFleetQuarantine). Every mutant (tests/json_mutator.h) must either be
// rejected with an error that points at a line and column, or parse to a
// valid result:
//   - a spec the Fleet accepts as is (its validation agrees with the
//     parser's), whose fingerprint is the same on a second parse;
//   - quarantine entries with in-range integers and a non-empty taxonomy
//     that save and load back unchanged.
// The Rng seed fixes every input, so a failure replays.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <regex>
#include <string>
#include <vector>

#include "src/lab/fleet.h"
#include "src/sim/rng.h"
#include "tests/json_mutator.h"
#include "tests/temp_dir.h"

namespace wdmlat::lab {
namespace {

using testutil::JsonMutation;

// "... line L, column C: ..." — where the reader stopped.
bool PointsAtLineAndColumn(const std::string& error) {
  static const std::regex kPosition("line [1-9][0-9]*, column [1-9][0-9]*: ");
  return std::regex_search(error, kPosition);
}

// Publish how many mutants of each kind were accepted and rejected in the
// test's XML report.
void RecordOutcomes(const int* accepted, const int* rejected) {
  for (int kind = 0; kind < testutil::kJsonMutationCount; ++kind) {
    ::testing::Test::RecordProperty(
        std::string("accepted ") + testutil::kJsonMutationNames[kind], accepted[kind]);
    ::testing::Test::RecordProperty(
        std::string("rejected ") + testutil::kJsonMutationNames[kind], rejected[kind]);
  }
}

std::vector<std::string> SpecCorpus() {
  return {
      R"({"name": "pop", "master_seed": 11, "cohorts": [{"name": "x", "os": "nt4", )"
      R"("workloads": ["office", "games"], "workload_weights": [3, 1], "count": 10, )"
      R"("speed_mhz": [100, 400], "pit_hz": 4000, "fault_plan": "irq_storm", )"
      R"("fault_prob": 0.25, "sketch": true}]})",
      R"({"name": "grid", "master_seed": 1999, "cohorts": [{"name": "nt4-games-28", )"
      R"("os": "nt4", "workloads": ["games"], "priority": 28, "count": 2, )"
      R"("stress_minutes": 10.0, "warmup_seconds": 5.0}, {"name": "98-web-24", "os": "win98", )"
      R"("workloads": ["web"], "priority": 24, "count": 3, "stress_minutes": 0.5, )"
      R"("episode_threshold_us": 2000, "virus_scanner": true}]})",
      R"({"master_seed": 7, "cohorts": [{"os": "nt_smp2_migrate", "workloads": ["idle"], )"
      R"("speed_mhz": 300, "count": 1}]})",
  };
}

TEST(FleetInputFuzz, SpecMutantsFailAtAPositionOrParseToAValidFleet) {
  const std::vector<std::string> corpus = SpecCorpus();
  for (const std::string& text : corpus) {
    FleetSpec spec;
    std::string error;
    ASSERT_TRUE(FleetSpecFromJson(text, &spec, &error)) << error;
    ASSERT_TRUE(Fleet(spec).error().empty()) << text;
  }
  sim::Rng rng(20261020);
  int accepted[testutil::kJsonMutationCount] = {};
  int rejected[testutil::kJsonMutationCount] = {};
  constexpr int kIterations = 8000;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    const auto kind = static_cast<JsonMutation>(iteration % testutil::kJsonMutationCount);
    const std::string text = testutil::Mutate(
        corpus[testutil::Pick(rng, corpus.size())], kind, rng);
    const std::string where = std::string(testutil::kJsonMutationNames[kind]) + " #" +
                              std::to_string(iteration) + ": " + text;
    FleetSpec spec;
    std::string error;
    if (!FleetSpecFromJson(text, &spec, &error)) {
      ++rejected[kind];
      ASSERT_TRUE(PointsAtLineAndColumn(error)) << where << "\n" << error;
      continue;
    }
    ++accepted[kind];
    const Fleet fleet(spec);
    ASSERT_TRUE(fleet.error().empty()) << where << "\n" << fleet.error();
    FleetSpec again;
    ASSERT_TRUE(FleetSpecFromJson(text, &again, &error)) << where << "\n" << error;
    ASSERT_EQ(FleetFingerprint(again), FleetFingerprint(spec)) << where;
    ASSERT_EQ(fleet.fingerprint(), FleetFingerprint(spec)) << where;
  }
  RecordOutcomes(accepted, rejected);
  // Both outcomes are reached: structure-preserving mutations mostly parse,
  // byte-level ones mostly do not.
  for (const JsonMutation kind : {testutil::kReorder, testutil::kDrop}) {
    EXPECT_GT(accepted[kind], 0) << testutil::kJsonMutationNames[kind];
  }
  for (const JsonMutation kind : {testutil::kByteFlip, testutil::kTruncate,
                                  testutil::kEscapeInjection, testutil::kDuplicate,
                                  testutil::kUnknownKey, testutil::kRespell}) {
    EXPECT_GT(rejected[kind], 0) << testutil::kJsonMutationNames[kind];
  }
}

std::vector<FleetQuarantineEntry> QuarantineCorpus() {
  std::vector<FleetQuarantineEntry> entries(3);
  entries[0] = {3, 0xDEADBEEFull, 0, "exception", 3};
  entries[1] = {17, 42, 0, "timeout", 2};
  entries[2] = {18446744073709551615ull, 9007199254740993ull, 0, "checksum_mismatch", 1};
  return entries;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

TEST(FleetInputFuzz, QuarantineMutantsFailAtAPositionOrLoadValidEntries) {
  const std::string dir = test::TempDirFor("quarantine_fuzz");
  const std::string canonical_path = dir + "/canonical.jsonl";
  const std::string path = dir + "/mutant.jsonl";
  const std::string resaved_path = dir + "/resaved.jsonl";
  std::string error;
  ASSERT_TRUE(SaveFleetQuarantine(canonical_path, QuarantineCorpus(), &error)) << error;
  const std::string manifest = ReadFile(canonical_path);
  std::vector<std::string> lines;
  for (std::size_t begin = 0; begin < manifest.size();) {
    const std::size_t end = manifest.find('\n', begin);
    lines.push_back(manifest.substr(begin, end - begin));
    begin = end + 1;
  }
  ASSERT_EQ(lines.size(), 3u);

  sim::Rng rng(20261021);
  int accepted[testutil::kJsonMutationCount] = {};
  int rejected[testutil::kJsonMutationCount] = {};
  constexpr int kIterations = 3000;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    const auto kind = static_cast<JsonMutation>(iteration % testutil::kJsonMutationCount);
    // Text mutations act on the whole file (they may split or join lines);
    // tree mutations on one of its lines.
    std::string mutant;
    if (kind <= testutil::kEscapeInjection) {
      mutant = testutil::Mutate(manifest, kind, rng);
    } else {
      const std::size_t target = testutil::Pick(rng, lines.size());
      for (std::size_t i = 0; i < lines.size(); ++i) {
        mutant += i == target ? testutil::Mutate(lines[i], kind, rng) : lines[i];
        mutant += '\n';
      }
    }
    {
      std::ofstream out(path, std::ios::trunc | std::ios::binary);
      out << mutant;
    }
    const std::string where = std::string(testutil::kJsonMutationNames[kind]) + " #" +
                              std::to_string(iteration) + ":\n" + mutant;
    std::vector<FleetQuarantineEntry> entries;
    if (!LoadFleetQuarantine(path, &entries, &error)) {
      ++rejected[kind];
      ASSERT_TRUE(PointsAtLineAndColumn(error)) << where << "\n" << error;
      continue;
    }
    ++accepted[kind];
    for (const FleetQuarantineEntry& entry : entries) {
      ASSERT_FALSE(entry.taxonomy.empty()) << where;
      ASSERT_GE(entry.attempts, 0) << where;
    }
    // Valid entries survive a save and load unchanged.
    ASSERT_TRUE(SaveFleetQuarantine(resaved_path, entries, &error)) << where << "\n" << error;
    std::vector<FleetQuarantineEntry> reloaded;
    ASSERT_TRUE(LoadFleetQuarantine(resaved_path, &reloaded, &error)) << where << "\n" << error;
    ASSERT_EQ(reloaded.size(), entries.size()) << where;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(reloaded[i].cell, entries[i].cell) << where;
      EXPECT_EQ(reloaded[i].seed, entries[i].seed) << where;
      EXPECT_EQ(reloaded[i].taxonomy, entries[i].taxonomy) << where;
      EXPECT_EQ(reloaded[i].attempts, entries[i].attempts) << where;
    }
  }
  RecordOutcomes(accepted, rejected);
  for (const JsonMutation kind : {testutil::kReorder, testutil::kRespell}) {
    EXPECT_GT(accepted[kind], 0) << testutil::kJsonMutationNames[kind];
  }
  for (const JsonMutation kind : {testutil::kByteFlip, testutil::kTruncate,
                                  testutil::kDuplicate, testutil::kUnknownKey,
                                  testutil::kRespell}) {
    EXPECT_GT(rejected[kind], 0) << testutil::kJsonMutationNames[kind];
  }
}

}  // namespace
}  // namespace wdmlat::lab
