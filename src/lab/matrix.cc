#include "src/lab/matrix.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/kernel/profile.h"
#include "src/runtime/thread_pool.h"
#include "src/sim/rng.h"
#include "src/workload/stress_profile.h"

namespace wdmlat::lab {

MatrixSpec PaperMatrix() {
  MatrixSpec spec;
  spec.oses = {kernel::MakeNt4Profile(), kernel::MakeWin98Profile()};
  spec.workloads = {workload::OfficeStress(), workload::WorkstationStress(),
                    workload::GamesStress(), workload::WebStress()};
  spec.priorities = {28, 24};
  return spec;
}

std::uint64_t ExperimentMatrix::CellSeed(std::uint64_t master_seed, std::size_t os_index,
                                         std::size_t workload_index, int priority,
                                         int trial) {
  // Hash chain: XOR each coordinate into the running hash, then push it
  // through a full SplitMix64 avalanche round. Each round is a bijection, so
  // neighbouring cells (which differ in one small coordinate) land on
  // statistically independent xoshiro streams.
  std::uint64_t hash = master_seed;
  const std::uint64_t coords[] = {
      static_cast<std::uint64_t>(os_index), static_cast<std::uint64_t>(workload_index),
      static_cast<std::uint64_t>(priority), static_cast<std::uint64_t>(trial)};
  for (std::uint64_t coord : coords) {
    std::uint64_t state = hash ^ coord;
    hash = sim::SplitMix64(state);
  }
  return hash;
}

ExperimentMatrix::ExperimentMatrix(MatrixSpec spec) : spec_(std::move(spec)) {
  if (spec_.trials < 1) {
    spec_.trials = 1;
  }
  cells_.reserve(spec_.cell_count());
  for (std::size_t os_i = 0; os_i < spec_.oses.size(); ++os_i) {
    for (std::size_t wl_i = 0; wl_i < spec_.workloads.size(); ++wl_i) {
      for (std::size_t pr_i = 0; pr_i < spec_.priorities.size(); ++pr_i) {
        for (int trial = 0; trial < spec_.trials; ++trial) {
          MatrixCell cell;
          cell.index = cells_.size();
          cell.os_index = os_i;
          cell.workload_index = wl_i;
          cell.priority_index = pr_i;
          cell.trial = trial;
          cell.seed = CellSeed(spec_.master_seed, os_i, wl_i, spec_.priorities[pr_i], trial);
          cell.config.os = spec_.oses[os_i];
          cell.config.stress = spec_.workloads[wl_i];
          cell.config.thread_priority = spec_.priorities[pr_i];
          cell.config.stress_minutes = spec_.stress_minutes;
          cell.config.warmup_seconds = spec_.warmup_seconds;
          cell.config.seed = cell.seed;
          cell.config.options = spec_.options;
          cell.config.driver = spec_.driver;
          cell.config.faults = spec_.faults;
          cells_.push_back(std::move(cell));
        }
      }
    }
  }
}

std::size_t ExperimentMatrix::GroupIndex(std::size_t os_index, std::size_t workload_index,
                                         std::size_t priority_index) const {
  return (os_index * spec_.workloads.size() + workload_index) * spec_.priorities.size() +
         priority_index;
}

MatrixResult ExperimentMatrix::Run(
    int jobs, const std::function<void(const MatrixCell&)>& on_cell_done) const {
  using Clock = std::chrono::steady_clock;
  MatrixResult result;
  result.reports.resize(cells_.size());
  result.timings.resize(cells_.size());
  std::vector<double> cell_seconds(cells_.size(), 0.0);
  // Per-cell registry slots: each cell writes only its own, and slots merge
  // in grid order afterwards — the same slot discipline the reports use, so
  // collecting metrics cannot perturb the determinism contract.
  std::vector<obs::MetricsRegistry> cell_metrics(spec_.collect_metrics ? cells_.size() : 0);
  std::mutex progress_mutex;
  std::map<std::thread::id, int> worker_ids;

  const Clock::time_point run_start = Clock::now();
  // Each cell is an isolated single-threaded simulation writing only to its
  // own slot; the pool provides no ordering and needs none.
  runtime::ParallelFor(jobs, cells_.size(), [&](std::size_t i) {
    int worker = 0;
    {
      std::lock_guard<std::mutex> lock(progress_mutex);
      worker = static_cast<int>(
          worker_ids.emplace(std::this_thread::get_id(), worker_ids.size()).first->second);
    }
    const MatrixCell& cell = cells_[i];
    LabConfig config = cell.config;
    if (spec_.collect_metrics) {
      config.obs.metrics = &cell_metrics[i];
      config.obs.queue_sample_ms = spec_.queue_sample_ms;
    }
    config.obs.episode_threshold_us = spec_.episode_threshold_us;
    config.obs.max_episodes = spec_.max_episodes;
    config.obs.anatomy = spec_.anatomy;
    config.obs.sketch = spec_.sketch;
    if (i == 0) {
      config.obs.trace_sink = spec_.trace_sink;
    }
    config.supervision.audit_every_s = spec_.audit_every_s;
    config.supervision.audit_at_end = spec_.audit_every_s > 0.0;

    const Clock::time_point cell_start = Clock::now();
    try {
      result.reports[i] = RunLatencyExperiment(config);
    } catch (const std::exception& e) {
      throw std::runtime_error("cell " + std::to_string(i) + " (" + config.os.name + " / " +
                               config.stress.name + " / prio " +
                               std::to_string(config.thread_priority) + ", trial " +
                               std::to_string(cell.trial) + ", seed " +
                               std::to_string(cell.seed) + "): " + e.what());
    }
    const Clock::time_point cell_end = Clock::now();
    cell_seconds[i] = std::chrono::duration<double>(cell_end - cell_start).count();
    result.timings[i] = MatrixResult::CellTiming{
        worker, std::chrono::duration<double>(cell_start - run_start).count(),
        std::chrono::duration<double>(cell_end - run_start).count()};
    if (on_cell_done) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      on_cell_done(cell);
    }
  });
  result.wall_seconds = std::chrono::duration<double>(Clock::now() - run_start).count();
  result.workers_observed = static_cast<int>(worker_ids.size());
  for (double seconds : cell_seconds) {
    result.total_cell_seconds += seconds;
  }

  // Merge trials into groups strictly in grid order: histogram bucket adds
  // and floating-point sums see the same sequence whatever `jobs` was.
  result.merged.resize(spec_.group_count());
  // Conservation ledger for the post-merge audit: the merged histogram of a
  // group must hold exactly the sum of its trials' sample counts.
  std::vector<std::uint64_t> expected_thread_counts(spec_.group_count(), 0);
  std::vector<std::uint64_t> expected_dpc_counts(spec_.group_count(), 0);
  for (const MatrixCell& cell : cells_) {
    const LabReport& report = result.reports[cell.index];
    const std::size_t group_index =
        GroupIndex(cell.os_index, cell.workload_index, cell.priority_index);
    MergedCell& group = result.merged[group_index];
    if (group.trials == 0) {
      group.os_name = report.os_name;
      group.workload_name = report.workload_name;
      group.thread_priority = report.thread_priority;
      group.has_interrupt_latency = report.has_interrupt_latency;
      group.usage = report.usage;
    } else {
      assert(stats::MergeableUsage(group.usage, report.usage));
    }
    group.dpc_interrupt.Merge(report.dpc_interrupt);
    group.thread.Merge(report.thread);
    group.thread_interrupt.Merge(report.thread_interrupt);
    group.interrupt.Merge(report.interrupt);
    group.isr_to_dpc.Merge(report.isr_to_dpc);
    group.true_pit_interrupt_latency.Merge(report.true_pit_interrupt_latency);
    expected_thread_counts[group_index] += report.thread.count();
    expected_dpc_counts[group_index] += report.dpc_interrupt.count();
    // Recover the driver's measured stress-hours so the pooled rate stays
    // total-samples / total-hours, not an average of per-trial rates.
    const double stress_hours = report.samples_per_hour > 0.0
                                    ? static_cast<double>(report.samples) /
                                          report.samples_per_hour
                                    : cell.config.stress_minutes / 60.0;
    group.counters.Merge(stats::SampleCounters{report.samples, stress_hours});
    group.fault_activations += report.fault_activations;
    group.episodes += report.episodes.size();
    for (const obs::EpisodeSummary& episode : report.episodes) {
      group.episodes_attributed += episode.attributed ? 1 : 0;
      group.episode_module_matches += episode.module_match ? 1 : 0;
    }
    group.thread_sketch.Merge(report.thread_sketch);
    group.anatomy_episodes += report.anatomy.size();
    for (const obs::AnatomyEpisode& episode : report.anatomy) {
      for (std::size_t s = 0; s < obs::kAnatomyStageCount; ++s) {
        group.anatomy_stage_cycles[s] += episode.stage_cycles[s];
      }
    }
    ++group.trials;
  }
  for (std::size_t g = 0; g < result.merged.size(); ++g) {
    const MergedCell& group = result.merged[g];
    if (group.thread.count() != expected_thread_counts[g] ||
        group.dpc_interrupt.count() != expected_dpc_counts[g]) {
      std::ostringstream violation;
      violation << "group " << g << " (" << group.os_name << "/" << group.workload_name
                << "/prio " << group.thread_priority
                << "): merged counts != sum of trial counts (thread "
                << group.thread.count() << " vs " << expected_thread_counts[g] << ", dpc "
                << group.dpc_interrupt.count() << " vs " << expected_dpc_counts[g] << ")";
      result.merge_violations.push_back(violation.str());
    }
  }

  if (spec_.collect_metrics) {
    // Grid order again, so counter sums and histogram buckets accumulate in
    // a jobs-independent sequence.
    for (const MatrixCell& cell : cells_) {
      result.metrics.Merge(cell_metrics[cell.index]);
    }
    // Host-side view of the run itself (wall clock, so not part of the
    // determinism contract — these describe the runner, not the simulation).
    result.metrics.Add("matrix.cells", static_cast<double>(cells_.size()));
    for (const MatrixCell& cell : cells_) {
      result.metrics.Observe("matrix.cell_wall_ms", cell_seconds[cell.index] * 1e3);
    }
    result.metrics.Set("matrix.wall_seconds", result.wall_seconds);
    result.metrics.Set("matrix.total_cell_seconds", result.total_cell_seconds);
    result.metrics.Set("matrix.speedup", result.Speedup());
    result.metrics.Set("matrix.workers", static_cast<double>(result.workers_observed));
    result.metrics.Set("matrix.utilization", result.Utilization());
  }
  return result;
}

void AppendHostTrace(obs::ChromeTraceWriter& writer, const ExperimentMatrix& matrix,
                     const MatrixResult& result) {
  writer.SetProcessName(obs::ChromeTraceWriter::kHostPid, "matrix runner (host)");
  const std::size_t n = std::min(matrix.cells().size(), result.timings.size());
  std::vector<bool> worker_named;
  for (std::size_t i = 0; i < n; ++i) {
    const MatrixCell& cell = matrix.cells()[i];
    const MatrixResult::CellTiming& timing = result.timings[i];
    // Host worker tracks are numbered from 1; tid 0 reads as "unknown".
    const int tid = timing.worker + 1;
    if (static_cast<std::size_t>(timing.worker) >= worker_named.size()) {
      worker_named.resize(timing.worker + 1, false);
    }
    if (!worker_named[timing.worker]) {
      char track[32];
      std::snprintf(track, sizeof(track), "worker %d", timing.worker);
      writer.SetThreadName(obs::ChromeTraceWriter::kHostPid, tid, track);
      worker_named[timing.worker] = true;
    }
    const LabConfig& config = cell.config;
    const std::string name = config.os.name + " / " + config.stress.name + " / prio " +
                             std::to_string(config.thread_priority);
    writer.CompleteSlice(
        obs::ChromeTraceWriter::kHostPid, tid, timing.start_s * 1e6,
        (timing.end_s - timing.start_s) * 1e6, name,
        {{"seed", std::to_string(cell.seed)}},
        {{"trial", static_cast<double>(cell.trial)},
         {"samples", static_cast<double>(result.reports[i].samples)}});
  }
}

}  // namespace wdmlat::lab
