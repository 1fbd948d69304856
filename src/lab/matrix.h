// ExperimentMatrix: the paper's measurement grid, run in parallel.
//
// The paper's exhibits are built from a matrix of experiment cells —
// {NT, 98} × {office, workstation, games, web} × {priority 24, 28} × seeds —
// and each cell is an independent single-threaded simulation. This runner
// expands an {os × workload × priority × trials} grid into LabConfigs with
// SplitMix64-derived per-cell seeds, fans the cells across a
// runtime::ThreadPool, and merges the per-trial LabReports of each
// (os, workload, priority) group into pooled distributions.
//
// Determinism contract (enforced by tests/matrix_determinism_test.cc): for a
// fixed master seed, the merged histograms are bit-identical for jobs=1 and
// jobs=N. Two mechanisms guarantee it:
//   1. A cell's seed depends only on its grid coordinates and the master
//      seed — never on enumeration or completion order.
//   2. Every cell writes its report into a pre-sized slot, and slots are
//      merged sequentially in grid order after all cells finish, so even the
//      floating-point sums accumulate in a jobs-independent order.
//
// The matrix runs in process and keeps nothing on disk. A grid that must
// survive a crash and resume bit-exactly runs as a fleet instead
// (src/lab/fleet.h): one cohort per (os, workload, priority) with `count`
// set to the trial count, sharded, supervised and resumable.

#ifndef SRC_LAB_MATRIX_H_
#define SRC_LAB_MATRIX_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/lab/lab.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/metrics.h"

namespace wdmlat::lab {

class ExperimentMatrix;

struct MatrixSpec {
  std::vector<kernel::KernelProfile> oses;
  std::vector<workload::StressProfile> workloads;
  // Measured RT thread priorities (the paper uses 28 "High" and 24 "Med.").
  std::vector<int> priorities;
  // Independent trials per (os, workload, priority) group, each with its own
  // derived seed; trial histograms merge into the group's pooled result.
  int trials = 1;
  double stress_minutes = 10.0;
  double warmup_seconds = 5.0;
  std::uint64_t master_seed = 1999;
  TestSystemOptions options;
  drivers::LatencyDriver::Config driver;  // thread_priority is overridden
  // Optional fault plan (borrowed), expanded into every cell's LabConfig;
  // each cell's injector derives its streams from (plan.seed, cell seed), so
  // cells stay independent and jobs-invariant.
  const fault::FaultPlan* faults = nullptr;

  // --- Observability (expanded into each cell's ObsOptions) -----------------
  // Collect per-cell MetricsRegistries and merge them — grid order, so the
  // merged registry is jobs-independent — into MatrixResult::metrics.
  bool collect_metrics = false;
  // >0 (and collect_metrics): per-cell queue-depth sampling period.
  double queue_sample_ms = 0.0;
  // >0: arm every cell's episode flight recorder at this threshold; episode
  // tallies land in the merged groups.
  double episode_threshold_us = 0.0;
  std::size_t max_episodes = 64;
  // Attach a per-cell obs::LatencyAnatomy (needs episode_threshold_us > 0):
  // per-episode stage decompositions stay in the per-cell LabReports, and
  // stage-cycle totals pool into MergedCell::anatomy_stage_cycles.
  bool anatomy = false;
  // Stream every cell's thread-latency samples into a per-cell
  // stats::QuantileSketch; per-trial sketches merge — grid order, so the
  // merged sketch is jobs-independent — into MergedCell::thread_sketch.
  bool sketch = false;
  // >0: run the kernel invariant auditor inside every cell at this
  // virtual-second cadence, plus once after the measurement phase.
  double audit_every_s = 0.0;
  // Receives the dispatcher trace of the FIRST cell only: a sink shared by
  // concurrently-running cells would interleave their tracks meaninglessly,
  // so the sim-side tracks show one representative cell while the host-side
  // tracks (lab::AppendHostTrace) cover the whole run.
  kernel::TraceSink* trace_sink = nullptr;

  std::size_t cell_count() const {
    return oses.size() * workloads.size() * priorities.size() *
           static_cast<std::size_t>(trials < 1 ? 1 : trials);
  }
  std::size_t group_count() const {
    return oses.size() * workloads.size() * priorities.size();
  }
};

// The paper's full Figure-4 grid: {NT 4.0, Windows 98} × the four stress
// loads × priorities {28, 24}, one trial per cell.
MatrixSpec PaperMatrix();

// One expanded cell, in grid-enumeration order (os-major, then workload,
// then priority, then trial).
struct MatrixCell {
  std::size_t index = 0;  // linear index in enumeration order
  std::size_t os_index = 0;
  std::size_t workload_index = 0;
  std::size_t priority_index = 0;
  int trial = 0;
  std::uint64_t seed = 0;  // = CellSeed(master, coordinates)
  LabConfig config;
};

// A merged (os, workload, priority) group: the per-trial LabReports combined
// bucket-for-bucket via LatencyHistogram::Merge, sampling counters pooled.
struct MergedCell {
  std::string os_name;
  std::string workload_name;
  int thread_priority = 0;
  int trials = 0;

  stats::LatencyHistogram dpc_interrupt;
  stats::LatencyHistogram thread;
  stats::LatencyHistogram thread_interrupt;
  stats::LatencyHistogram interrupt;
  stats::LatencyHistogram isr_to_dpc;
  stats::LatencyHistogram true_pit_interrupt_latency;
  bool has_interrupt_latency = false;

  stats::SampleCounters counters;
  stats::UsageModel usage;

  // Flight-recorder tallies pooled across trials (zero unless
  // MatrixSpec::episode_threshold_us was set).
  std::uint64_t episodes = 0;
  std::uint64_t episodes_attributed = 0;
  std::uint64_t episode_module_matches = 0;

  // Streaming thread-latency sketch pooled across trials in grid order
  // (zero count unless MatrixSpec::sketch was set).
  stats::QuantileSketch thread_sketch;

  // Anatomy tallies pooled across trials (zero unless MatrixSpec::anatomy):
  // exact critical-path cycles by stage, summed over decomposed episodes.
  std::uint64_t anatomy_episodes = 0;
  std::array<sim::Cycles, obs::kAnatomyStageCount> anatomy_stage_cycles{};

  // Injected-fault activations pooled across trials (zero without a plan).
  std::uint64_t fault_activations = 0;

  std::uint64_t samples() const { return counters.samples; }
  double samples_per_hour() const { return counters.SamplesPerHour(); }
};

struct MatrixResult {
  // Per-cell reports, parallel to ExperimentMatrix::cells().
  std::vector<LabReport> reports;
  // One merged group per (os, workload, priority), in grid order.
  std::vector<MergedCell> merged;

  // Wall-clock accounting for the speedup report: elapsed time of the whole
  // run versus the summed per-cell times (≈ what a serial run would cost).
  double wall_seconds = 0.0;
  double total_cell_seconds = 0.0;
  double Speedup() const {
    return wall_seconds > 0.0 ? total_cell_seconds / wall_seconds : 1.0;
  }

  // Merged per-cell registries (grid order) plus host-side "matrix.*"
  // metrics; empty unless MatrixSpec::collect_metrics was set.
  obs::MetricsRegistry metrics;

  // Host-side schedule of each cell, parallel to ExperimentMatrix::cells():
  // which pool worker ran it and when (seconds since the run started).
  struct CellTiming {
    int worker = 0;
    double start_s = 0.0;
    double end_s = 0.0;
  };
  std::vector<CellTiming> timings;
  int workers_observed = 0;

  // Pool utilization: summed cell time over (wall time × workers).
  double Utilization() const {
    const double capacity = wall_seconds * static_cast<double>(workers_observed);
    return capacity > 0.0 ? total_cell_seconds / capacity : 0.0;
  }

  // Post-merge conservation audit: any group whose merged histogram counts
  // differ from the sum of its merged trials' counts. Always empty unless
  // the merge arithmetic itself is broken.
  std::vector<std::string> merge_violations;
};

// Append the host-side view of a finished matrix run to `writer`: one track
// per pool worker under ChromeTraceWriter::kHostPid, one complete slice per
// cell named "os/workload/prio" with its seed and wall time as args.
void AppendHostTrace(obs::ChromeTraceWriter& writer, const ExperimentMatrix& matrix,
                     const MatrixResult& result);

class ExperimentMatrix {
 public:
  explicit ExperimentMatrix(MatrixSpec spec);

  const MatrixSpec& spec() const { return spec_; }
  const std::vector<MatrixCell>& cells() const { return cells_; }

  // Deterministic per-cell seed: a SplitMix64 hash chain over (master seed,
  // grid coordinates). Depends only on the coordinates, so adding a trial or
  // reordering the run never reseeds existing cells.
  static std::uint64_t CellSeed(std::uint64_t master_seed, std::size_t os_index,
                                std::size_t workload_index, int priority, int trial);

  // Run every cell on `jobs` worker threads (jobs <= 1 runs inline) and merge
  // trial groups. `on_cell_done`, if set, is invoked once per finished cell,
  // serialized under a lock (completion order, not grid order). A cell that
  // throws (an invariant violation under MatrixSpec::audit_every_s, say)
  // ends the run: every other cell still finishes, then the first failure
  // in grid order is rethrown as a std::runtime_error that names the cell.
  MatrixResult Run(int jobs,
                   const std::function<void(const MatrixCell&)>& on_cell_done = nullptr) const;

  // Index of a group in MatrixResult::merged by grid coordinates.
  std::size_t GroupIndex(std::size_t os_index, std::size_t workload_index,
                         std::size_t priority_index) const;

 private:
  MatrixSpec spec_;
  std::vector<MatrixCell> cells_;
};

}  // namespace wdmlat::lab

#endif  // SRC_LAB_MATRIX_H_
