// Resume on the durable path: a fleet shard interrupted part way, or holding
// a damaged record, resumes to the same bytes as an uninterrupted run — at
// any job count, with only the missing or damaged cells re-run.

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <iterator>
#include <string>

#include "src/lab/fleet.h"
#include "tests/temp_dir.h"

namespace wdmlat::lab {
namespace {

// Two cohorts, eight cells: one plain, one with sketches, so both record
// kinds cross the resume.
FleetSpec SmallFleet() {
  FleetSpec spec;
  spec.name = "resume";
  spec.master_seed = 42;
  FleetCohort nt;
  nt.name = "nt-office";
  nt.os = "nt4";
  nt.workloads = {"office", "web"};
  nt.count = 4;
  nt.stress_minutes = 0.002;
  nt.warmup_seconds = 0.1;
  FleetCohort w98 = nt;
  w98.name = "98-games";
  w98.os = "win98";
  w98.workloads = {"games"};
  w98.sketch = true;
  spec.cohorts = {nt, w98};
  return spec;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::trunc | std::ios::binary) << bytes;
}

// The first `lines` lines of `text`.
std::string HeadLines(const std::string& text, std::size_t lines) {
  std::size_t end = 0;
  for (std::size_t i = 0; i < lines; ++i) {
    end = text.find('\n', end) + 1;
  }
  return text.substr(0, end);
}

std::string Merged(const Fleet& fleet, const std::string& shard_path) {
  FleetReport report;
  std::string error;
  EXPECT_TRUE(MergeFleetShards(fleet, {shard_path}, &report, &error)) << error;
  return FleetReportToJson(report);
}

TEST(ResumeDeterminismTest, InterruptThenResumeIsBitIdenticalAtAnyJobCount) {
  const Fleet fleet(SmallFleet());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  FleetShardOptions fresh;
  fresh.out_path = FleetShardPath(test::TempDirFor("fresh"), 0, 1);
  ASSERT_TRUE(RunFleetShard(fleet, fresh).ok());
  const std::string records = ReadFile(fresh.out_path);
  const std::string report = Merged(fleet, fresh.out_path);

  for (int resume_jobs : {1, 4}) {
    SCOPED_TRACE(resume_jobs);
    // Interrupted after three cells: the file holds their records only.
    FleetShardOptions options;
    options.jobs = resume_jobs;
    const std::string dir = test::TempDirFor("jobs" + std::to_string(resume_jobs));
    options.out_path = FleetShardPath(dir, 0, 1);
    WriteFile(options.out_path, HeadLines(records, 3));

    const FleetShardResult resumed = RunFleetShard(fleet, options);
    ASSERT_TRUE(resumed.ok()) << resumed.error;
    EXPECT_EQ(resumed.cells_restored, 3u);
    EXPECT_EQ(resumed.cells_executed, 5u);
    EXPECT_TRUE(resumed.warnings.empty());
    // Restored lines are kept byte for byte and re-run cells land in grid
    // order, so the shard file and the merge match the uninterrupted run.
    EXPECT_EQ(ReadFile(options.out_path), records);
    EXPECT_EQ(Merged(fleet, options.out_path), report);
  }
}

TEST(ResumeDeterminismTest, CorruptArtifactIsReRunNotTrusted) {
  const Fleet fleet(SmallFleet());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  FleetShardOptions options;
  options.out_path = FleetShardPath(test::TempDirFor("corrupt"), 0, 1);
  ASSERT_TRUE(RunFleetShard(fleet, options).ok());
  const std::string records = ReadFile(options.out_path);
  const std::string report = Merged(fleet, options.out_path);

  // Flip a byte inside cell 1's payload: its checksum no longer matches.
  std::string damaged = records;
  const std::size_t line_1 = damaged.find('\n') + 1;
  damaged[damaged.find("\"payload\"", line_1) + 40] ^= 1;
  WriteFile(options.out_path, damaged);

  const FleetShardResult resumed = RunFleetShard(fleet, options);
  ASSERT_TRUE(resumed.ok()) << resumed.error;
  EXPECT_EQ(resumed.cells_restored, 7u);
  EXPECT_EQ(resumed.cells_executed, 1u);  // the damaged cell re-ran
  ASSERT_EQ(resumed.warnings.size(), 1u);
  EXPECT_NE(resumed.warnings[0].find("checksum mismatch"), std::string::npos)
      << resumed.warnings[0];
  EXPECT_EQ(ReadFile(options.out_path), records);
  EXPECT_EQ(Merged(fleet, options.out_path), report);
}

}  // namespace
}  // namespace wdmlat::lab
