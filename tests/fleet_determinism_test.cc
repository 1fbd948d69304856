// The fleet's durable-run guarantee: the merged population report is
// bit-identical at any --shards/--jobs split, and across a killed-and-resumed
// shard — the grid-order merge folds cell records in global index order no
// matter how they were produced — and a shard file written under another
// spec is never resumed or merged as if it were this one's.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/lab/fleet.h"
#include "src/lab/report_io.h"
#include "tests/temp_dir.h"

namespace wdmlat::lab {
namespace {

FleetSpec SmallPopulation() {
  FleetSpec spec;
  spec.name = "determinism";
  spec.master_seed = 1999;
  FleetCohort nt;
  nt.name = "nt-mixed";
  nt.os = "nt4";
  nt.workloads = {"office", "web"};
  nt.workload_weights = {2.0, 1.0};
  nt.count = 7;
  nt.stress_minutes = 0.002;
  nt.warmup_seconds = 0.1;
  nt.pit_hz = 4000.0;  // the screening knob must be shard/jobs-invariant too
  nt.speed_mhz_lo = 150.0;
  nt.speed_mhz_hi = 450.0;
  FleetCohort w98;
  w98.name = "98-games";
  w98.os = "win98";
  w98.workloads = {"games"};
  w98.count = 6;
  w98.stress_minutes = 0.002;
  w98.warmup_seconds = 0.1;
  w98.fault_plan = "irq_storm";
  w98.fault_prob = 0.4;
  w98.sketch = true;
  spec.cohorts = {nt, w98};
  return spec;
}

using test::TempDirFor;

// Run the whole population split `shards` ways at `jobs` threads per shard
// and return the serialized merged report.
std::string RunAndMerge(const Fleet& fleet, const std::string& dir, std::size_t shards,
                        int jobs) {
  std::vector<std::string> paths;
  for (std::size_t k = 0; k < shards; ++k) {
    FleetShardOptions options;
    options.shard = k;
    options.shards = shards;
    options.jobs = jobs;
    options.out_path = FleetShardPath(dir, k, shards);
    const FleetShardResult result = RunFleetShard(fleet, options);
    EXPECT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.cells_restored, 0u);
    paths.push_back(options.out_path);
  }
  FleetReport report;
  std::string error;
  EXPECT_TRUE(MergeFleetShards(fleet, paths, &report, &error)) << error;
  return FleetReportToJson(report);
}

TEST(FleetDeterminism, MergedReportBitIdenticalAcrossShardAndJobCounts) {
  const Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();

  const std::string baseline =
      RunAndMerge(fleet, TempDirFor("fleet_s1_j1"), 1, 1);
  ASSERT_FALSE(baseline.empty());
  EXPECT_NE(baseline.find("\"determinism\""), std::string::npos);

  const struct {
    std::size_t shards;
    int jobs;
  } grid[] = {{1, 4}, {3, 1}, {3, 4}, {8, 1}, {8, 4}};
  for (const auto& point : grid) {
    SCOPED_TRACE("shards=" + std::to_string(point.shards) +
                 " jobs=" + std::to_string(point.jobs));
    const std::string dir = TempDirFor(
        ("fleet_s" + std::to_string(point.shards) + "_j" + std::to_string(point.jobs))
            .c_str());
    EXPECT_EQ(baseline, RunAndMerge(fleet, dir, point.shards, point.jobs));
  }
}

TEST(FleetDeterminism, KilledShardResumesToBitIdenticalReport) {
  // Plus an SMP cohort with migrating DPCs, the policy with the most
  // cross-core traffic: its records must survive the resume too.
  FleetSpec spec = SmallPopulation();
  FleetCohort smp;
  smp.name = "smp2";
  smp.os = "nt_smp2_migrate";
  smp.workloads = {"games"};
  smp.count = 4;
  smp.stress_minutes = 0.002;
  smp.warmup_seconds = 0.1;
  spec.cohorts.push_back(smp);
  const Fleet fleet(spec);
  ASSERT_TRUE(fleet.error().empty());
  const std::string baseline =
      RunAndMerge(fleet, TempDirFor("fleet_resume_base"), 1, 1);

  const std::string dir = TempDirFor("fleet_resume");
  const std::size_t shards = 3;
  std::vector<std::string> paths;
  for (std::size_t k = 0; k < shards; ++k) {
    FleetShardOptions options;
    options.shard = k;
    options.shards = shards;
    options.out_path = FleetShardPath(dir, k, shards);
    ASSERT_TRUE(RunFleetShard(fleet, options).ok());
    paths.push_back(options.out_path);
  }

  // Simulate two kinds of death: shard 0 died mid-write (truncated file, last
  // line torn), shard 1 died before writing anything (file gone).
  {
    std::ifstream in(paths[0], std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 100u);
    std::ofstream out(paths[0], std::ios::trunc | std::ios::binary);
    out << bytes.substr(0, bytes.size() / 2);
  }
  std::filesystem::remove(paths[1]);

  // Resume: re-run every shard with the same options. Intact records are
  // verified and kept (shard 2 executes nothing), torn/missing cells re-run.
  for (std::size_t k = 0; k < shards; ++k) {
    FleetShardOptions options;
    options.shard = k;
    options.shards = shards;
    options.out_path = paths[k];
    const FleetShardResult result = RunFleetShard(fleet, options);
    ASSERT_TRUE(result.ok()) << result.error;
    if (k == 2) {
      EXPECT_EQ(result.cells_executed, 0u);
      EXPECT_EQ(result.cells_restored, result.cells_total);
    } else {
      EXPECT_GT(result.cells_executed, 0u);
    }
  }

  FleetReport report;
  std::string error;
  ASSERT_TRUE(MergeFleetShards(fleet, paths, &report, &error)) << error;
  EXPECT_EQ(baseline, FleetReportToJson(report));
}

TEST(FleetDeterminism, StaleSpecRecordsReRunAndStrictMergeRefusesThem) {
  // Editing `os` or `stress_minutes` keeps every cell seed (seeds hash only
  // the master seed and the coordinates) but changes every cell's bits. The
  // records a shard file holds from the old spec must not stand in for the
  // new one: resume re-runs each of them, and a strict merge refuses them.
  FleetSpec original;
  original.name = "stale";
  original.master_seed = 5;
  FleetCohort grid;
  grid.name = "grid";
  grid.os = "nt4";
  grid.workloads = {"games"};
  grid.count = 4;
  grid.stress_minutes = 0.002;
  grid.warmup_seconds = 0.1;
  original.cohorts = {grid};
  FleetSpec other_os = original;
  other_os.cohorts[0].os = "win98";
  FleetSpec longer = original;
  longer.cohorts[0].stress_minutes *= 3.0;

  const Fleet before(original);
  ASSERT_TRUE(before.error().empty()) << before.error();
  for (const FleetSpec& edited : {other_os, longer}) {
    SCOPED_TRACE(edited.cohorts[0].os + " for " +
                 std::to_string(edited.cohorts[0].stress_minutes) + " min");
    const Fleet after(edited);
    ASSERT_TRUE(after.error().empty()) << after.error();
    ASSERT_NE(after.fingerprint(), before.fingerprint());
    for (std::uint64_t i = 0; i < after.cell_count(); ++i) {
      ASSERT_EQ(after.CellAt(i).seed, before.CellAt(i).seed);
    }

    const std::string name = edited.cohorts[0].os == "nt4" ? "stale_minutes" : "stale_os";
    const std::string dir = TempDirFor(name);
    FleetShardOptions options;
    options.out_path = FleetShardPath(dir, 0, 1);
    ASSERT_TRUE(RunFleetShard(before, options).ok());

    FleetReport report;
    std::string error;
    EXPECT_FALSE(MergeFleetShards(after, {options.out_path}, &report, &error));
    EXPECT_NE(error.find("another spec"), std::string::npos) << error;
    FleetMergeOptions degraded;
    degraded.allow_degraded = true;
    ASSERT_TRUE(MergeFleetShards(after, {options.out_path}, degraded, &report, &error)) << error;
    EXPECT_EQ(report.cells_completed, 0u);
    ASSERT_EQ(report.quarantine.size(), 4u);
    EXPECT_EQ(report.quarantine[0].taxonomy, "spec_mismatch");

    const FleetShardResult resumed = RunFleetShard(after, options);
    ASSERT_TRUE(resumed.ok()) << resumed.error;
    EXPECT_EQ(resumed.cells_restored, 0u);
    EXPECT_EQ(resumed.cells_executed, 4u);
    EXPECT_EQ(resumed.warnings.size(), 4u);
    ASSERT_TRUE(MergeFleetShards(after, {options.out_path}, &report, &error)) << error;
    EXPECT_EQ(FleetReportToJson(report),
              RunAndMerge(after, TempDirFor(name + "_fresh"), 1, 1));
  }
}

TEST(FleetDeterminism, MergeFailsLoudlyOnIncompleteShard) {
  const Fleet fleet(SmallPopulation());
  const std::string dir = TempDirFor("fleet_incomplete");
  const std::size_t shards = 2;
  std::vector<std::string> paths;
  for (std::size_t k = 0; k < shards; ++k) {
    FleetShardOptions options;
    options.shard = k;
    options.shards = shards;
    options.out_path = FleetShardPath(dir, k, shards);
    ASSERT_TRUE(RunFleetShard(fleet, options).ok());
    paths.push_back(options.out_path);
  }
  // Chop shard 1 to its first line: the merge must fail at the first missing
  // cell, not silently fold a partial population.
  {
    std::ifstream in(paths[1], std::ios::binary);
    std::string first_line;
    std::getline(in, first_line);
    in.close();
    std::ofstream out(paths[1], std::ios::trunc | std::ios::binary);
    out << first_line << "\n";
  }
  FleetReport report;
  std::string error;
  EXPECT_FALSE(MergeFleetShards(fleet, paths, &report, &error));
  EXPECT_NE(error.find("missing record"), std::string::npos) << error;

  // Wrong shard-count layout must also fail (cell/stream mismatch), not
  // silently mis-fold.
  FleetShardOptions solo;
  solo.shards = 1;
  solo.out_path = FleetShardPath(dir, 0, 1);
  ASSERT_TRUE(RunFleetShard(fleet, solo).ok());
  EXPECT_FALSE(MergeFleetShards(fleet, {paths[0]}, &report, &error));
}

}  // namespace
}  // namespace wdmlat::lab
