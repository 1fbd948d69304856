// runtime::SuperviseFleet driven end-to-end with fork()ed in-process workers
// (no exec — the child runs lab::RunFleetShard directly and _Exits): clean
// supervised runs are byte-identical to direct runs, the chaos harness
// self-heals to the same bytes for several seeds, heartbeat deadlines kill
// and retry stalled workers, a poisoned cell is isolated in at most
// ceil(log2(cells per shard)) bisection probes, and straggler speculation
// stitches a winning suffix without changing the shard bytes.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/lab/fleet.h"
#include "src/lab/host_chaos.h"
#include "src/runtime/fleet_supervisor.h"
#include "tests/temp_dir.h"

namespace wdmlat::runtime {
namespace {

lab::FleetSpec SmallPopulation() {
  lab::FleetSpec spec;
  spec.name = "supervised";
  spec.master_seed = 1999;
  lab::FleetCohort nt;
  nt.name = "nt-office";
  nt.os = "nt4";
  nt.workloads = {"office"};
  nt.count = 5;
  nt.stress_minutes = 0.002;
  nt.warmup_seconds = 0.1;
  lab::FleetCohort w98;
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

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Fork a worker that serves `request` by running lab::RunFleetShard in the
// child (mirroring what the CLI worker mode does, including loading the
// quarantine manifest), then _Exit with the worker's status.
bool ForkWorker(const lab::Fleet& fleet, std::size_t shards, long poison_cell,
                const FleetWorkerRequest& request, pid_t* pid, std::string* error) {
  const pid_t child = ::fork();
  if (child < 0) {
    *error = "fork failed";
    return false;
  }
  if (child == 0) {
    lab::FleetShardOptions options;
    options.shard = request.shard;
    options.shards = shards;
    options.out_path = request.out_path;
    options.cell_lo = request.cell_lo;
    options.cell_hi = request.cell_hi < fleet.cell_count() ? request.cell_hi : 0;
    options.poison_cell = poison_cell;
    options.chaos_kill_after_cells = request.chaos.kill_after_cells;
    options.chaos_delay_ms = request.chaos.delay_ms;
    if (!request.quarantine_path.empty()) {
      std::vector<lab::FleetQuarantineEntry> manifest;
      std::string load_error;
      if (lab::LoadFleetQuarantine(request.quarantine_path, &manifest, &load_error)) {
        for (const lab::FleetQuarantineEntry& entry : manifest) {
          options.skip_cells.push_back(entry.cell);
        }
      }
    }
    const lab::FleetShardResult result = lab::RunFleetShard(fleet, options);
    std::_Exit(result.ok() ? 0 : 3);
  }
  *pid = child;
  return true;
}

FleetSupervisorOptions BaseOptions(const lab::Fleet& fleet, const std::string& dir,
                                   std::size_t shards, long poison_cell = -1) {
  FleetSupervisorOptions options;
  options.shards = shards;
  options.cell_count = static_cast<std::size_t>(fleet.cell_count());
  options.max_parallel = 3;
  options.poll_interval_ms = 5.0;
  options.retry_backoff_ms = 5.0;
  options.shard_path = [dir, shards](std::size_t k) {
    return lab::FleetShardPath(dir, k, shards);
  };
  options.cell_seed = [&fleet](std::size_t cell) { return fleet.CellAt(cell).seed; };
  options.spawn = [&fleet, shards, poison_cell](const FleetWorkerRequest& request,
                                                pid_t* pid, std::string* error) {
    return ForkWorker(fleet, shards, poison_cell, request, pid, error);
  };
  options.stitch = [&fleet, shards](std::size_t shard, const std::string& main_path,
                                    const std::string& spec_path, std::string* error) {
    return lab::StitchShardFiles(fleet, shard, shards, main_path, spec_path, error);
  };
  return options;
}

// Shard files of a direct (unsupervised) run — the byte-level ground truth.
std::vector<std::string> DirectShardBytes(const lab::Fleet& fleet, std::size_t shards) {
  const std::string dir = TempDirFor("supervisor_direct");
  std::vector<std::string> bytes;
  for (std::size_t k = 0; k < shards; ++k) {
    lab::FleetShardOptions options;
    options.shard = k;
    options.shards = shards;
    options.out_path = lab::FleetShardPath(dir, k, shards);
    EXPECT_TRUE(lab::RunFleetShard(fleet, options).ok());
    bytes.push_back(ReadFileBytes(options.out_path));
  }
  return bytes;
}

TEST(FleetSupervisor, WindowArithmetic) {
  // Shard 1 of 3 over [0,10): cells 1,4,7.
  EXPECT_EQ(CellsInWindow(1, 3, 0, 10), 3u);
  EXPECT_EQ(NthCellInWindow(1, 3, 0, 0), 1u);
  EXPECT_EQ(NthCellInWindow(1, 3, 0, 2), 7u);
  // Window [5,8) holds only cell 7 for that shard.
  EXPECT_EQ(CellsInWindow(1, 3, 5, 8), 1u);
  EXPECT_EQ(NthCellInWindow(1, 3, 5, 0), 7u);
  // Empty windows.
  EXPECT_EQ(CellsInWindow(1, 3, 5, 5), 0u);
  EXPECT_EQ(CellsInWindow(2, 3, 3, 5), 0u);  // cell 2 before, 5 past
  EXPECT_EQ(CellsInWindow(0, 3, 1, 3), 0u);
  // Splitting a window at any probe midpoint conserves the cell count.
  for (std::size_t lo = 0; lo < 10; ++lo) {
    for (std::size_t hi = lo; hi <= 10; ++hi) {
      const std::size_t count = CellsInWindow(1, 3, lo, hi);
      for (std::size_t n = 0; n < count; ++n) {
        const std::size_t mid = NthCellInWindow(1, 3, lo, n);
        EXPECT_EQ(CellsInWindow(1, 3, lo, mid) + CellsInWindow(1, 3, mid, hi), count);
      }
    }
  }
}

TEST(FleetSupervisor, CleanRunMatchesDirectShardBytes) {
  const lab::Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  const std::size_t shards = 2;
  const std::vector<std::string> direct = DirectShardBytes(fleet, shards);

  const std::string dir = TempDirFor("supervisor_clean");
  const FleetSupervisorOptions options = BaseOptions(fleet, dir, shards);
  const FleetSupervisorResult result = SuperviseFleet(options);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.spawns, shards);
  EXPECT_EQ(result.retries, 0u);
  EXPECT_EQ(result.heartbeat_kills, 0u);
  EXPECT_TRUE(result.quarantined.empty());
  for (std::size_t k = 0; k < shards; ++k) {
    EXPECT_EQ(ReadFileBytes(lab::FleetShardPath(dir, k, shards)), direct[k])
        << "shard " << k;
  }
}

TEST(FleetSupervisor, ChaosSelfHealsToIdenticalBytesForThreeSeeds) {
  const lab::Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  const std::size_t shards = 2;
  const std::vector<std::string> direct = DirectShardBytes(fleet, shards);

  for (const std::uint64_t seed : {7ull, 19ull, 23ull}) {
    const std::string dir =
        TempDirFor("supervisor_chaos_" + std::to_string(seed));
    FleetSupervisorOptions options = BaseOptions(fleet, dir, shards);
    options.max_attempts = 4;  // chaos draws clean plans past attempt 2
    const lab::HostChaos chaos(seed);
    options.chaos = [&chaos](std::size_t shard, int attempt) {
      return chaos.PlanFor(shard, attempt);
    };
    const FleetSupervisorResult result = SuperviseFleet(options);
    ASSERT_TRUE(result.ok()) << "seed " << seed << ": " << result.error;
    EXPECT_TRUE(result.quarantined.empty()) << "seed " << seed;
    for (std::size_t k = 0; k < shards; ++k) {
      EXPECT_EQ(ReadFileBytes(lab::FleetShardPath(dir, k, shards)), direct[k])
          << "seed " << seed << " shard " << k;
    }
  }
}

TEST(FleetSupervisor, HeartbeatKillsAndRetriesAStalledWorker) {
  const lab::Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  const std::size_t shards = 2;
  const std::vector<std::string> direct = DirectShardBytes(fleet, shards);

  const std::string dir = TempDirFor("supervisor_heartbeat");
  FleetSupervisorOptions options = BaseOptions(fleet, dir, shards);
  options.shard_timeout_s = 0.2;
  // Shard 0's first attempt hangs without ever writing a record; every
  // other spawn runs normally.
  int shard0_attempts = 0;
  const auto normal_spawn = options.spawn;
  options.spawn = [&](const FleetWorkerRequest& request, pid_t* pid,
                      std::string* error) {
    if (request.shard == 0 && ++shard0_attempts == 1) {
      const pid_t child = ::fork();
      if (child < 0) {
        *error = "fork failed";
        return false;
      }
      if (child == 0) {
        for (;;) {
          ::pause();  // stall forever; the heartbeat must SIGKILL us
        }
      }
      *pid = child;
      return true;
    }
    return normal_spawn(request, pid, error);
  };
  const FleetSupervisorResult result = SuperviseFleet(options);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_GE(result.heartbeat_kills, 1u);
  EXPECT_GE(result.retries, 1u);
  EXPECT_TRUE(result.quarantined.empty());
  for (std::size_t k = 0; k < shards; ++k) {
    EXPECT_EQ(ReadFileBytes(lab::FleetShardPath(dir, k, shards)), direct[k])
        << "shard " << k;
  }
}

TEST(FleetSupervisor, PoisonedCellIsIsolatedInLogarithmicProbes) {
  const lab::Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  const std::size_t shards = 2;
  const std::size_t poison = 4;  // shard 0 owns cells 0,2,4,6,8

  const std::string dir = TempDirFor("supervisor_poison");
  FleetSupervisorOptions options =
      BaseOptions(fleet, dir, shards, static_cast<long>(poison));
  options.max_attempts = 2;
  const std::string manifest = dir + "/quarantine.jsonl";
  std::vector<lab::FleetQuarantineEntry> persisted;
  options.on_quarantine = [&](const QuarantinedCell& cell) {
    lab::FleetQuarantineEntry entry;
    entry.cell = cell.cell;
    entry.seed = cell.seed;
    entry.taxonomy = FailureKindName(cell.kind);
    entry.attempts = cell.attempts;
    persisted.push_back(entry);
    std::string error;
    EXPECT_TRUE(lab::SaveFleetQuarantine(manifest, persisted, &error)) << error;
    return manifest;
  };
  const FleetSupervisorResult result = SuperviseFleet(options);
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0].cell, poison);
  EXPECT_EQ(result.quarantined[0].seed, fleet.CellAt(poison).seed);
  EXPECT_EQ(result.quarantined[0].kind, FailureKind::kException);
  EXPECT_EQ(result.quarantined[0].attempts, 2);

  // ISSUE acceptance: isolation costs at most ceil(log2(cells per shard))
  // probes on top of the retry budget.
  const std::size_t cells_in_shard = CellsInWindow(0, shards, 0, options.cell_count);
  const std::uint64_t probe_cap = static_cast<std::uint64_t>(
      std::ceil(std::log2(static_cast<double>(cells_in_shard))));
  EXPECT_LE(result.bisect_probes, probe_cap)
      << result.bisect_probes << " probes for " << cells_in_shard << " cells";

  // The degraded merge over the quarantine manifest covers plan - 1 cells.
  std::vector<std::string> paths;
  for (std::size_t k = 0; k < shards; ++k) {
    paths.push_back(lab::FleetShardPath(dir, k, shards));
  }
  lab::FleetMergeOptions merge_options;
  merge_options.quarantined = persisted;
  merge_options.allow_degraded = true;
  lab::FleetReport report;
  std::string error;
  ASSERT_TRUE(lab::MergeFleetShards(fleet, paths, merge_options, &report, &error))
      << error;
  EXPECT_EQ(report.cells_completed, fleet.cell_count() - 1);
  EXPECT_EQ(report.cells_quarantined, 1u);
  ASSERT_EQ(report.quarantine.size(), 1u);
  EXPECT_EQ(report.quarantine[0].taxonomy, "exception");
}

TEST(FleetSupervisor, SpeculationStitchesTheWinningSuffix) {
  const lab::Fleet fleet(SmallPopulation());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  const std::size_t shards = 2;
  const std::vector<std::string> direct = DirectShardBytes(fleet, shards);

  const std::string dir = TempDirFor("supervisor_speculate");
  FleetSupervisorOptions options = BaseOptions(fleet, dir, shards);
  options.speculate = true;
  // Two slots for two shards: the only idle slot appears when shard 1
  // exits, so exactly the hung shard 0 is speculated. With a third slot,
  // speculation starts on shard 0 at once, and shard 1 would be speculated
  // too if it were still running when shard 0's copy won.
  options.max_parallel = 2;
  // Shard 0's first main attempt hangs; the speculative copy (and the
  // completion run after its win) run normally, so the supervisor must
  // finish through speculation, not retry (no heartbeat timeout is set).
  int shard0_mains = 0;
  const auto normal_spawn = options.spawn;
  options.spawn = [&](const FleetWorkerRequest& request, pid_t* pid,
                      std::string* error) {
    if (request.shard == 0 && !request.speculative && ++shard0_mains == 1) {
      const pid_t child = ::fork();
      if (child < 0) {
        *error = "fork failed";
        return false;
      }
      if (child == 0) {
        for (;;) {
          ::pause();
        }
      }
      *pid = child;
      return true;
    }
    return normal_spawn(request, pid, error);
  };
  const FleetSupervisorResult result = SuperviseFleet(options);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.speculative_spawns, 1u);
  EXPECT_EQ(result.speculative_wins, 1u);
  for (std::size_t k = 0; k < shards; ++k) {
    EXPECT_EQ(ReadFileBytes(lab::FleetShardPath(dir, k, shards)), direct[k])
        << "shard " << k;
    EXPECT_FALSE(
        std::filesystem::exists(lab::FleetShardPath(dir, k, shards) + ".spec"));
  }
}

TEST(FleetSupervisor, MisconfigurationFailsFast) {
  FleetSupervisorOptions options;
  options.shards = 0;
  const FleetSupervisorResult result = SuperviseFleet(options);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("misconfigured"), std::string::npos);
}

}  // namespace
}  // namespace wdmlat::runtime
