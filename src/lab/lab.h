// LatencyLab: the top-level experiment API.
//
// One call runs one cell of the paper's measurement matrix: an OS
// personality, a stress workload, and a measured thread priority, for a
// given virtual duration — and returns the full latency distributions the
// paper's figures and tables are built from.
//
//   wdmlat::lab::LabConfig config;
//   config.os = wdmlat::kernel::MakeWin98Profile();
//   config.stress = wdmlat::workload::GamesStress();
//   config.thread_priority = 28;
//   config.stress_minutes = 10.0;
//   auto report = wdmlat::lab::RunLatencyExperiment(config);
//   report.thread.QuantileMs(0.9999);

#ifndef SRC_LAB_LAB_H_
#define SRC_LAB_LAB_H_

#include <cstdint>
#include <string>

#include <vector>

#include "src/drivers/cause_tool.h"
#include "src/drivers/latency_driver.h"
#include "src/fault/fault.h"
#include "src/kernel/profile.h"
#include "src/kernel/trace.h"
#include "src/lab/test_system.h"
#include "src/obs/anatomy.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/runtime/supervisor.h"
#include "src/stats/histogram.h"
#include "src/stats/quantile_sketch.h"
#include "src/stats/usage_model.h"
#include "src/workload/stress_profile.h"

namespace wdmlat::lab {

// Optional observability for one experiment run. All pointers are borrowed
// and may be null; with nothing set the dispatcher's trace sink stays null
// and the hot path pays nothing. Sinks only observe — they consume no
// simulation RNG and reorder no events — so attaching them leaves the
// measured distributions bit-identical (tests/obs_lab_test.cc).
struct ObsOptions {
  // Receives every dispatcher transition (e.g. an obs::ChromeTraceWriter).
  kernel::TraceSink* trace_sink = nullptr;
  // Collects kernel event counts, time-at-raised-IRQL and lockout totals,
  // plus end-of-run dispatcher/engine counters.
  obs::MetricsRegistry* metrics = nullptr;
  // >0: sample DPC/ready/work queue depths every so many virtual ms into
  // `metrics` (and onto the trace's counter track when both are attached).
  double queue_sample_ms = 0.0;
  // >0: arm an episode flight recorder (plus a cause tool) at this
  // thread-latency threshold; episode summaries land in LabReport::episodes.
  double episode_threshold_us = 0.0;
  std::size_t max_episodes = 64;
  // Cause-tool IP-sampling mode + NMI period (paper 2.3 vs 6.1) for the
  // episode tool armed by episode_threshold_us.
  drivers::CauseTool::Sampling sampling = drivers::CauseTool::Sampling::kPitHook;
  double nmi_period_ms = 0.2;
  // Attach an obs::LatencyAnatomy sink (needs episode_threshold_us > 0):
  // exact per-episode stage decomposition into LabReport::anatomy. A passive
  // trace sink — measured distributions stay bit-identical.
  bool anatomy = false;
  // Stream every recorded thread-latency sample into
  // LabReport::thread_sketch (and metrics series "driver.thread_ms" when a
  // registry is attached).
  bool sketch = false;
};

// Supervision hooks for one run (all optional; everything off by default).
// When any hook is armed the measurement phase executes as a sequence of
// RunUntil slices in cycle space — provably bit-identical to the single-call
// path, since RunUntil fires exactly the events at or before its deadline
// and slice boundaries carry no events of their own — with the watchdog
// polled and the invariant auditor run between slices.
struct RunSupervision {
  // Host-clock deadline budget, armed by the matrix supervisor; polled
  // between slices (throws runtime::DeadlineExceeded past the budget). The
  // simulation cannot be preempted inside a slice — a wedged callback is
  // detected at the next boundary, not interrupted.
  runtime::Watchdog* watchdog = nullptr;
  // >0: run a sim::InvariantAuditor pass every this many virtual seconds; a
  // non-empty report throws runtime::InvariantViolation, degrading the cell
  // to failed instead of letting a sick simulator feed the merge.
  double audit_every_s = 0.0;
  // Run one audit pass after the measurement phase (cheap; catches
  // corruption that accumulated after the last periodic pass).
  bool audit_at_end = false;
  // Fixture for tests/CI: the first audit pass reports one injected
  // violation, proving the auditor fails the cell rather than the process.
  bool force_audit_violation = false;

  bool enabled() const {
    return watchdog != nullptr || audit_every_s > 0.0 || audit_at_end ||
           force_audit_violation;
  }
};

struct LabConfig {
  kernel::KernelProfile os;
  workload::StressProfile stress;
  // Priority of the measured kernel-mode thread (24 or 28 in the paper).
  int thread_priority = kernel::kDefaultRealTimePriority;
  // Virtual measurement duration after warmup.
  double stress_minutes = 10.0;
  double warmup_seconds = 5.0;
  std::uint64_t seed = 1;
  TestSystemOptions options;
  drivers::LatencyDriver::Config driver;  // thread_priority is overridden
  ObsOptions obs;
  // Optional fault plan (borrowed) driven alongside the workload by a
  // fault::Injector. Null or empty means no injector is constructed at all,
  // so the run is bit-identical to one without the fault subsystem.
  const fault::FaultPlan* faults = nullptr;
  // Watchdog and auditor hooks (see RunSupervision).
  RunSupervision supervision;
};

struct LabReport {
  std::string os_name;
  std::string workload_name;
  int thread_priority = 0;

  // Tool-measured distributions (the paper's data).
  stats::LatencyHistogram dpc_interrupt;     // HW int (est.) -> DPC
  stats::LatencyHistogram thread;            // DPC -> thread
  stats::LatencyHistogram thread_interrupt;  // HW int (est.) -> thread
  stats::LatencyHistogram interrupt;         // HW int (est.) -> ISR (98 only)
  stats::LatencyHistogram isr_to_dpc;        // ISR -> DPC (98 only)
  bool has_interrupt_latency = false;

  // Ground truth from the dispatcher observers, for every PIT interrupt
  // (used to validate the tool and to report NT interrupt latency, which the
  // paper's tool cannot measure without source access).
  stats::LatencyHistogram true_pit_interrupt_latency;

  std::uint64_t samples = 0;
  double samples_per_hour = 0.0;
  stats::UsageModel usage;

  // Long-latency episodes captured by the flight recorder (empty unless
  // ObsOptions::episode_threshold_us was set).
  std::vector<obs::EpisodeSummary> episodes;

  // Exact causal decomposition of the same episodes (empty unless
  // ObsOptions::anatomy was set). Pairs with `episodes` by index.
  std::vector<obs::AnatomyEpisode> anatomy;

  // Streaming per-sample thread-latency sketch (zero count unless
  // ObsOptions::sketch was set). Exact P99.9/P99.99 via its top-K tail.
  stats::QuantileSketch thread_sketch;

  // Fault-injection ground truth (zero unless LabConfig::faults was set).
  std::uint64_t fault_activations = 0;
};

LabReport RunLatencyExperiment(const LabConfig& config);

// Same experiment, run on a caller-provided machine. `system` must have been
// freshly constructed — or warm-Reset() — with this config's (os, seed,
// options) and not advanced since: the run starts at the engine's current
// time. The fleet's warm cell runner uses this to amortize TestSystem
// construction across a shard's cells; results are bit-identical to
// RunLatencyExperiment(config) (fleet golden-checksum test).
LabReport RunLatencyExperimentOn(TestSystem& system, const LabConfig& config);

}  // namespace wdmlat::lab

#endif  // SRC_LAB_LAB_H_
