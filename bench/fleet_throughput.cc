// Supervision cost of a fleet worker: the same single-shard run driven
// through runtime::SuperviseFleet (fork()ed worker, liveness heartbeat armed,
// the production poll cadence) against a bare fork + waitpid of the
// identical worker. The bar is < 5% cells/sec — fault tolerance must be
// close to free when nothing faults; the bench prints the ratio and fails
// loudly below it so CI or a hand run can gate on it.
//
// Population cells are short — a screening population trades per-cell depth
// for member count, so per-cell fixed costs (warm system reset, record
// write, the supervisor's polls) are what the ratio sees. Fleet cells/sec
// itself, at realistic cell lengths and through the CLI, is the benchmark's
// job: `python3 wdmbench/run.py --workload fleet_screen`.
//
//   WDMLAT_CELLS=1024 WDMLAT_CELL_MINUTES=0.0002 WDMLAT_JOBS=1 fleet_throughput

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/lab/fleet.h"
#include "src/lab/lab.h"
#include "src/runtime/fleet_supervisor.h"

namespace {

using namespace wdmlat;
using Clock = std::chrono::steady_clock;

double EnvDouble(const char* name, double fallback) {
  if (const char* env = std::getenv(name)) {
    const double value = std::atof(env);
    if (value > 0.0) {
      return value;
    }
  }
  return fallback;
}

lab::FleetSpec Population(std::uint64_t cells, double cell_minutes, double pit_hz) {
  lab::FleetSpec spec;
  spec.name = "throughput";
  spec.master_seed = bench::BenchSeed();
  lab::FleetCohort nt;
  nt.name = "nt-mixed";
  nt.os = "nt4";
  nt.workloads = {"office", "web"};
  nt.count = (cells + 1) / 2;
  nt.stress_minutes = cell_minutes;
  nt.warmup_seconds = 0.005;
  nt.pit_hz = pit_hz;
  nt.speed_mhz_lo = 150.0;
  nt.speed_mhz_hi = 450.0;
  lab::FleetCohort w98 = nt;
  w98.name = "98-games";
  w98.os = "win98";
  w98.workloads = {"games"};
  w98.count = cells / 2;
  spec.cohorts = {nt, w98};
  return spec;
}

}  // namespace

int main() {
  // 8 x 1024 cells keeps each trial's wall time long enough that scheduler
  // hiccups don't dominate, and the one-time end-of-run cost — the
  // supervisor learns of the exit up to one poll interval late — from
  // masquerading as per-cell watching cost.
  const std::uint64_t cells =
      8 * static_cast<std::uint64_t>(EnvDouble("WDMLAT_CELLS", 1024.0));
  // Screening-population regime: an 8 kHz PIT over 0.0002 virtual minutes
  // of stress keeps ~10 post-warmup samples per cell (the driver discards
  // its first 16 — PIT reprogramming). A 100k+ member population buys
  // breadth, not per-cell depth: the cohort merge pools samples across
  // cells, so per-cell fixed costs (warm reset, record write) are what
  // throughput is made of.
  const double cell_minutes = EnvDouble("WDMLAT_CELL_MINUTES", 0.0002);
  const double pit_hz = EnvDouble("WDMLAT_PIT_HZ", 8000.0);
  const int jobs = bench::BenchJobs();
  const lab::Fleet fleet(Population(cells, cell_minutes, pit_hz));
  if (!fleet.error().empty()) {
    std::fprintf(stderr, "fleet_throughput: %s\n", fleet.error().c_str());
    return 1;
  }

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "wdmlat_fleet_throughput";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  std::printf(
      "fleet_throughput: %llu cells x %.4f virtual minutes, %d job(s)\n"
      "(WDMLAT_CELLS / WDMLAT_CELL_MINUTES / WDMLAT_JOBS to change)\n\n",
      static_cast<unsigned long long>(fleet.cell_count()), cell_minutes, jobs);

  // The supervisor's per-poll cost is a stat() of the shard file plus a
  // WNOHANG waitpid.
  const auto fork_worker = [&](const std::string& out_path, std::uint64_t lo,
                               std::uint64_t hi) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      lab::FleetShardOptions options;
      options.jobs = jobs;
      options.out_path = out_path;
      options.cell_lo = lo;
      options.cell_hi = hi;
      const lab::FleetShardResult result = RunFleetShard(fleet, options);
      std::_Exit(result.ok() ? 0 : 3);
    }
    return pid;
  };
  const std::string plain_path = (dir / "plain_shard.jsonl").string();
  const std::string sup_path = (dir / "sup_shard.jsonl").string();
  bool supervised_failed = false;
  const auto run_plain_trial = [&]() {
    std::filesystem::remove(plain_path);
    const Clock::time_point start = Clock::now();
    const pid_t pid = fork_worker(plain_path, 0, 0);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      supervised_failed = true;
    }
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const auto run_supervised_trial = [&]() {
    std::filesystem::remove(sup_path);
    runtime::FleetSupervisorOptions sup;
    sup.shards = 1;
    sup.cell_count = static_cast<std::size_t>(fleet.cell_count());
    sup.max_parallel = 1;
    sup.shard_timeout_s = 30.0;  // armed: every poll stats the shard file
    sup.shard_path = [&](std::size_t) { return sup_path; };
    sup.cell_seed = [&](std::size_t cell) { return fleet.CellAt(cell).seed; };
    sup.spawn = [&](const runtime::FleetWorkerRequest& request, pid_t* pid,
                    std::string* error) {
      *pid = fork_worker(request.out_path, request.cell_lo,
                         request.cell_hi < fleet.cell_count() ? request.cell_hi
                                                                  : 0);
      if (*pid < 0) {
        *error = "fork failed";
        return false;
      }
      return true;
    };
    const Clock::time_point start = Clock::now();
    const runtime::FleetSupervisorResult result = runtime::SuperviseFleet(sup);
    if (!result.ok()) {
      std::fprintf(stderr, "fleet_throughput: supervised run failed: %s\n",
                   result.error.c_str());
      supervised_failed = true;
    }
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  // Three alternating trials per path, scored by median wall time: a single
  // trial on a shared host confuses scheduling noise (which hits whichever
  // path runs during the hiccup) with the cost being measured.
  const auto median3 = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  std::vector<double> plain_walls;
  std::vector<double> sup_walls;
  for (int trial = 0; trial < 3; ++trial) {
    plain_walls.push_back(run_plain_trial());
    sup_walls.push_back(run_supervised_trial());
    if (supervised_failed) {
      return 1;
    }
  }
  const double plain_seconds = median3(plain_walls);
  const double sup_seconds = median3(sup_walls);
  const double plain_rate =
      static_cast<double>(fleet.cell_count()) / plain_seconds;
  const double sup_rate =
      static_cast<double>(fleet.cell_count()) / sup_seconds;
  const double sup_cost = sup_rate / plain_rate;
  std::printf("\n  %-28s %12s %12s\n", "worker-process path", "median s/3",
              "cells/sec");
  std::printf("  %-28s %12.3f %12.1f\n", "plain fork + waitpid", plain_seconds,
              plain_rate);
  std::printf("  %-28s %12.3f %12.1f\n", "supervised (heartbeat on)", sup_seconds,
              sup_rate);
  std::printf("\n  supervised/plain cells-per-second: %.3fx (bar: >= 0.95x)\n",
              sup_cost);

  // A regime so short the driver's 16-sample PIT-reprogram discard eats
  // everything measures nothing: the cells must keep real samples.
  std::uint64_t samples = 0;
  {
    std::ifstream in(plain_path, std::ios::binary);
    std::string line;
    while (std::getline(in, line)) {
      lab::FleetCellRecord record;
      std::string error;
      if (lab::FleetRecordFromLine(line, &record, &error)) {
        samples += record.samples;
      }
    }
  }
  std::printf("  kept samples/cell: %.1f\n",
              static_cast<double>(samples) / static_cast<double>(fleet.cell_count()));

  std::filesystem::remove_all(dir);
  if (sup_cost < 0.95) {
    std::fprintf(stderr,
                 "fleet_throughput: FAIL — heartbeat watching costs more than "
                 "5%% cells/sec\n");
    return 1;
  }
  if (samples == 0) {
    std::fprintf(stderr, "fleet_throughput: FAIL — cells kept zero samples\n");
    return 1;
  }
  std::printf("  PASS\n");
  return 0;
}
