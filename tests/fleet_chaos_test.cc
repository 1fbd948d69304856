// Chaos-proofed degraded merges: corrupt shard streams (mid-line truncation,
// checksum bit-rot, duplicate and out-of-order records, missing cells) must
// quarantine the damaged cell with the right taxonomy instead of sinking the
// merge, the coverage manifest must conserve planned = completed +
// quarantined, and the degraded merge must stay a deterministic fold —
// byte-identical on re-run over the same damaged artifacts. Strict mode
// keeps its PR 8 contract: the first unexpected anomaly is fatal.

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "src/lab/fleet.h"
#include "tests/temp_dir.h"

namespace wdmlat::lab {
namespace {

FleetSpec SmallPopulation() {
  FleetSpec spec;
  spec.name = "chaos";
  spec.master_seed = 1999;
  FleetCohort nt;
  nt.name = "nt-office";
  nt.os = "nt4";
  nt.workloads = {"office"};
  nt.count = 5;
  nt.stress_minutes = 0.002;
  nt.warmup_seconds = 0.1;
  FleetCohort w98;
  w98.name = "98-games";
  w98.os = "win98";
  w98.workloads = {"games"};
  w98.count = 4;
  w98.stress_minutes = 0.002;
  w98.warmup_seconds = 0.1;
  spec.cohorts = {nt, w98};
  return spec;
}

using test::TempDirFor;

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

void WriteLines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines) {
    out << line << "\n";
  }
}

// Run the population split two ways and return the shard paths.
std::vector<std::string> RunTwoShards(const Fleet& fleet, const std::string& dir) {
  std::vector<std::string> paths;
  for (std::size_t k = 0; k < 2; ++k) {
    FleetShardOptions options;
    options.shard = k;
    options.shards = 2;
    options.out_path = FleetShardPath(dir, k, 2);
    const FleetShardResult result = RunFleetShard(fleet, options);
    EXPECT_TRUE(result.ok()) << result.error;
    paths.push_back(options.out_path);
  }
  return paths;
}

std::string MergedJson(const Fleet& fleet, const std::vector<std::string>& paths,
                       const FleetMergeOptions& options) {
  FleetReport report;
  std::string error;
  EXPECT_TRUE(MergeFleetShards(fleet, paths, options, &report, &error)) << error;
  return FleetReportToJson(report);
}

TEST(FleetChaosMerge, TruncatedRecordQuarantinesInDegradedModeOnly) {
  const Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  const std::string dir = TempDirFor("chaos_truncate");
  const std::vector<std::string> paths = RunTwoShards(fleet, dir);

  // Tear the last record of shard 0 mid-line — the shape a SIGKILL between
  // write() calls leaves behind.
  std::vector<std::string> lines = ReadLines(paths[0]);
  ASSERT_EQ(lines.size(), 5u);  // cells 0,2,4,6,8
  const std::uint64_t torn_cell = 8;
  lines.back() = lines.back().substr(0, lines.back().size() / 2);
  WriteLines(paths[0], lines);

  // Strict mode: fatal, names the cell.
  FleetReport report;
  std::string error;
  EXPECT_FALSE(MergeFleetShards(fleet, paths, &report, &error));
  EXPECT_NE(error.find("cell 8"), std::string::npos) << error;

  // Degraded mode: the cell is quarantined as corrupt, everything else folds
  // and the coverage manifest conserves the plan.
  FleetMergeOptions degraded;
  degraded.allow_degraded = true;
  ASSERT_TRUE(MergeFleetShards(fleet, paths, degraded, &report, &error)) << error;
  EXPECT_EQ(report.cells_completed, 8u);
  EXPECT_EQ(report.cells_quarantined, 1u);
  ASSERT_EQ(report.quarantine.size(), 1u);
  EXPECT_EQ(report.quarantine[0].cell, torn_cell);
  EXPECT_EQ(report.quarantine[0].taxonomy, "corrupt_record");
  EXPECT_EQ(report.quarantine[0].seed, fleet.CellAt(torn_cell).seed);
  EXPECT_FALSE(report.merge_warnings.empty());
  for (const FleetCohortReport& cohort : report.cohorts) {
    EXPECT_EQ(cohort.cells + cohort.quarantined, cohort.planned) << cohort.name;
  }

  // The degraded merge is still a deterministic fold: byte-identical on
  // re-run over the same damaged artifacts.
  EXPECT_EQ(MergedJson(fleet, paths, degraded), MergedJson(fleet, paths, degraded));
}

TEST(FleetChaosMerge, ChecksumMismatchGetsItsOwnTaxonomy) {
  const Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  const std::string dir = TempDirFor("chaos_bitrot");
  const std::vector<std::string> paths = RunTwoShards(fleet, dir);

  // Flip one payload digit of shard 1's second record (cell 3) while keeping
  // the line valid JSON: the FNV checksum no longer matches.
  std::vector<std::string> lines = ReadLines(paths[1]);
  ASSERT_EQ(lines.size(), 4u);  // cells 1,3,5,7
  std::string& line = lines[1];
  const std::size_t payload = line.find("\"payload\"");
  ASSERT_NE(payload, std::string::npos);
  bool flipped = false;
  for (std::size_t i = payload; i < line.size() && !flipped; ++i) {
    if (line[i] >= '1' && line[i] <= '8') {
      ++line[i];
      flipped = true;
    }
  }
  ASSERT_TRUE(flipped);
  WriteLines(paths[1], lines);

  FleetMergeOptions degraded;
  degraded.allow_degraded = true;
  FleetReport report;
  std::string error;
  ASSERT_TRUE(MergeFleetShards(fleet, paths, degraded, &report, &error)) << error;
  ASSERT_EQ(report.quarantine.size(), 1u);
  EXPECT_EQ(report.quarantine[0].cell, 3u);
  EXPECT_EQ(report.quarantine[0].taxonomy, "checksum_mismatch");
  EXPECT_EQ(report.cells_completed, 8u);
}

TEST(FleetChaosMerge, DuplicateRecordIsDroppedAsStaleNotQuarantined) {
  const Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  const std::string dir = TempDirFor("chaos_duplicate");
  const std::vector<std::string> paths = RunTwoShards(fleet, dir);
  FleetMergeOptions degraded;
  degraded.allow_degraded = true;
  const std::string baseline = MergedJson(fleet, paths, degraded);

  // Duplicate shard 0's first record mid-stream (cell 0 appears twice before
  // cell 2) — the shape a stitch bug or replayed append would leave.
  std::vector<std::string> lines = ReadLines(paths[0]);
  lines.insert(lines.begin() + 1, lines[0]);
  WriteLines(paths[0], lines);

  // Strict mode: fatal out-of-order.
  FleetReport report;
  std::string error;
  EXPECT_FALSE(MergeFleetShards(fleet, paths, &report, &error));
  EXPECT_NE(error.find("out of order"), std::string::npos) << error;

  // Degraded mode: the stale duplicate is dropped with a warning; nothing is
  // quarantined, every cell folds, and the report is byte-identical to the
  // undamaged merge (the duplicate contributed nothing).
  ASSERT_TRUE(MergeFleetShards(fleet, paths, degraded, &report, &error)) << error;
  EXPECT_EQ(report.cells_quarantined, 0u);
  EXPECT_EQ(report.cells_completed, 9u);
  ASSERT_FALSE(report.merge_warnings.empty());
  EXPECT_NE(report.merge_warnings[0].find("stale record"), std::string::npos);
  EXPECT_EQ(FleetReportToJson(report), baseline);
}

TEST(FleetChaosMerge, SwappedRecordsQuarantineTheGapAndDropTheStray) {
  const Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  const std::string dir = TempDirFor("chaos_swap");
  const std::vector<std::string> paths = RunTwoShards(fleet, dir);

  // Swap shard 1's records for cells 3 and 5.
  std::vector<std::string> lines = ReadLines(paths[1]);
  ASSERT_EQ(lines.size(), 4u);
  std::swap(lines[1], lines[2]);
  WriteLines(paths[1], lines);

  FleetReport report;
  std::string error;
  EXPECT_FALSE(MergeFleetShards(fleet, paths, &report, &error));
  EXPECT_NE(error.find("out of order"), std::string::npos) << error;

  // Degraded: at cell 3 the stream offers cell 5, so 3 becomes a
  // missing_record gap; 5 folds on time; 3's stray line later drops stale.
  FleetMergeOptions degraded;
  degraded.allow_degraded = true;
  ASSERT_TRUE(MergeFleetShards(fleet, paths, degraded, &report, &error)) << error;
  ASSERT_EQ(report.quarantine.size(), 1u);
  EXPECT_EQ(report.quarantine[0].cell, 3u);
  EXPECT_EQ(report.quarantine[0].taxonomy, "missing_record");
  EXPECT_EQ(report.cells_completed, 8u);
  bool saw_stale = false;
  for (const std::string& warning : report.merge_warnings) {
    saw_stale = saw_stale || warning.find("stale record for cell 3") != std::string::npos;
  }
  EXPECT_TRUE(saw_stale);
}

TEST(FleetChaosMerge, ExpectedQuarantineIsAnAcceptedGapInBothModes) {
  const Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  const std::string dir = TempDirFor("chaos_expected");
  const std::vector<std::string> paths = RunTwoShards(fleet, dir);

  // Remove cell 4's record entirely, then declare it quarantined up front —
  // the supervisor's manifest arriving at the merge.
  std::vector<std::string> lines = ReadLines(paths[0]);
  lines.erase(lines.begin() + 2);  // shard 0 holds cells 0,2,4,6,8
  WriteLines(paths[0], lines);

  FleetQuarantineEntry entry;
  entry.cell = 4;
  entry.seed = fleet.CellAt(4).seed;
  entry.taxonomy = "exception";
  entry.attempts = 3;
  FleetMergeOptions options;
  options.quarantined = {entry};
  options.allow_degraded = false;  // even strict mode accepts a declared gap

  FleetReport report;
  std::string error;
  ASSERT_TRUE(MergeFleetShards(fleet, paths, options, &report, &error)) << error;
  EXPECT_EQ(report.cells_completed, 8u);
  ASSERT_EQ(report.quarantine.size(), 1u);
  EXPECT_EQ(report.quarantine[0].taxonomy, "exception");
  EXPECT_EQ(report.quarantine[0].attempts, 3);
  EXPECT_EQ(report.quarantine[0].cohort, 0u);  // cell 4 is in the first cohort
  EXPECT_EQ(report.cohorts[0].quarantined, 1u);
  EXPECT_EQ(report.cohorts[0].cells + report.cohorts[0].quarantined,
            report.cohorts[0].planned);

  // An undeclared gap still fails strict mode (the stream offers cell 6
  // where 4 should be, so strict reports the misalignment).
  options.quarantined.clear();
  EXPECT_FALSE(MergeFleetShards(fleet, paths, options, &report, &error));
  EXPECT_NE(error.find("out of order"), std::string::npos) << error;
}

TEST(FleetChaosMerge, QuarantineManifestRoundTrips) {
  const std::string dir = TempDirFor("chaos_manifest");
  const std::string path = dir + "/quarantine.jsonl";
  std::vector<FleetQuarantineEntry> entries(2);
  entries[0].cell = 3;
  entries[0].seed = 0xDEADBEEFull;
  entries[0].taxonomy = "exception";
  entries[0].attempts = 3;
  entries[1].cell = 17;
  entries[1].seed = 42;
  entries[1].taxonomy = "timeout";
  entries[1].attempts = 2;

  std::string error;
  ASSERT_TRUE(SaveFleetQuarantine(path, entries, &error)) << error;
  std::vector<FleetQuarantineEntry> loaded;
  ASSERT_TRUE(LoadFleetQuarantine(path, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].cell, 3u);
  EXPECT_EQ(loaded[0].seed, 0xDEADBEEFull);
  EXPECT_EQ(loaded[0].taxonomy, "exception");
  EXPECT_EQ(loaded[0].attempts, 3);
  EXPECT_EQ(loaded[1].cell, 17u);
  EXPECT_EQ(loaded[1].taxonomy, "timeout");

  // A torn manifest line is a loud load error, not silent skipping.
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"cell\": \"99\", \"seed";
  }
  EXPECT_FALSE(LoadFleetQuarantine(path, &loaded, &error));
  EXPECT_FALSE(error.empty());
}

TEST(FleetChaosMerge, WindowedProbeRunsAccumulateIntoTheFullShard) {
  const Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();

  // Baseline: shard 0 in one go.
  const std::string full_dir = TempDirFor("chaos_window_full");
  FleetShardOptions full;
  full.shard = 0;
  full.shards = 2;
  full.out_path = FleetShardPath(full_dir, 0, 2);
  ASSERT_TRUE(RunFleetShard(fleet, full).ok());

  // Windowed probes: [0,4) then the rest. The second run must preserve the
  // first window's verified records (probe work accumulates) and finish with
  // a byte-identical shard file.
  const std::string dir = TempDirFor("chaos_window");
  FleetShardOptions probe = full;
  probe.out_path = FleetShardPath(dir, 0, 2);
  probe.cell_hi = 4;
  FleetShardResult result = RunFleetShard(fleet, probe);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.cells_total, 2u);  // cells 0 and 2
  EXPECT_EQ(result.cells_executed, 2u);

  probe.cell_hi = 0;  // full window
  result = RunFleetShard(fleet, probe);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.cells_restored, 2u);
  EXPECT_EQ(result.cells_executed, 3u);
  EXPECT_EQ(ReadLines(probe.out_path), ReadLines(full.out_path));
}

TEST(FleetChaosMerge, SkipCellsAreExcludedFromTheShardPlan) {
  const Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  const std::string dir = TempDirFor("chaos_skip");
  FleetShardOptions options;
  options.shard = 0;
  options.shards = 2;
  options.out_path = FleetShardPath(dir, 0, 2);
  options.skip_cells = {4};
  const FleetShardResult result = RunFleetShard(fleet, options);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.cells_total, 4u);  // 0,2,6,8 — 4 is quarantined
  EXPECT_EQ(result.cells_executed, 4u);
  const std::vector<std::string> lines = ReadLines(options.out_path);
  ASSERT_EQ(lines.size(), 4u);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.find("\"cell\": \"4\""), std::string::npos);
  }
}

}  // namespace
}  // namespace wdmlat::lab
