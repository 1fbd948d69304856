// lab::Fleet — population-scale simulation (ROADMAP item 2).
//
// A FleetSpec describes cohorts of simulated machines drawn from priors:
// hardware speeds (log-uniform MHz, applied by scaling the kernel profile's
// cost distributions — the simulated cycle rate stays pinned at 300 MHz),
// workload mixes (weighted sample), an OS personality, and a fault-plan
// prior. The spec expands into `count` cells per cohort; every per-member
// draw derives from a SplitMix64 hash chain over (master seed, cohort,
// member), so a cell's bits depend only on its coordinates — never on shard
// count, job count, or execution order.
//
// Execution is sharded: cell i belongs to shard i % shards, and
// RunFleetShard runs one shard's cells (optionally in parallel) over the
// supervised path, writing one compact JSONL record per cell — thread + DPC
// histograms, optional sketch, anatomy stage totals, counters — in global
// cell-index order (a bounded reorder buffer absorbs out-of-order
// completions). Every record carries the fingerprint of the spec that
// wrote it. Workers resume for free: records already in the output file
// that verify against this spec are kept and only missing or stale cells
// re-run.
//
// The fleet is the repo's one durable run path: a paper grid that must
// survive crashes runs as one cohort per (os, workload, priority) with
// `count` set to the trial count (EXPERIMENTS.md "Supervised runs").
//
// MergeFleetShards then folds the shard files with a streaming grid-order
// merge: records are consumed strictly in global index order (round-robin
// across the per-shard streams) and folded into per-cohort accumulators,
// then discarded — peak RSS is O(cohorts + open shard streams), not
// O(cells), and the fold order is the same whatever `--shards`/`--jobs`
// produced the files, so the merged report is bit-identical (fleet
// determinism tests).

#ifndef SRC_LAB_FLEET_H_
#define SRC_LAB_FLEET_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/fault/fault.h"
#include "src/lab/lab.h"
#include "src/obs/anatomy.h"
#include "src/runtime/supervisor.h"
#include "src/stats/histogram.h"
#include "src/stats/quantile_sketch.h"
#include "src/stats/usage_model.h"

namespace wdmlat::lab {

// One population cohort: `count` members drawn from shared priors.
struct FleetCohort {
  std::string name;
  // OS personality: "nt4", "win98", "w2kbeta", or an SMP variant —
  // "nt_smp2"/"nt_smp4" (DPC-pinned) / "nt_smp2_migrate"/"nt_smp4_migrate"
  // (DPC-migrating, round-robin IRQs, work stealing).
  std::string os = "win98";
  // Workload mix: each member samples one entry ("office", "workstation",
  // "games", "web", "idle"), weighted by workload_weights when non-empty
  // (same length, positive), uniformly otherwise.
  std::vector<std::string> workloads = {"office"};
  std::vector<double> workload_weights;
  int priority = 28;
  std::uint64_t count = 1;
  double stress_minutes = 0.05;
  double warmup_seconds = 1.0;
  // Sampling-timer rate the latency driver reprograms the PIT to (the
  // paper uses 1 kHz). Screening populations crank this up: a 4 kHz PIT
  // takes 4x the samples per virtual second — same mechanism, shorter
  // cells, better pooled tails. The driver's ARBITRARY_DELAY scales with
  // the tick so it stays one tick long.
  double pit_hz = 1000.0;
  // Hardware-speed prior: each member's CPU clock is sampled log-uniformly
  // in [speed_mhz_lo, speed_mhz_hi]; kernel cost distributions scale by
  // 300/speed (sim::DurationDist::Scaled).
  double speed_mhz_lo = 300.0;
  double speed_mhz_hi = 300.0;
  // Fault prior: each member runs this built-in fault plan
  // (fault::FindBuiltinPlan name; empty = never) with probability
  // fault_prob.
  std::string fault_plan;
  double fault_prob = 0.0;
  // Stream every member's thread-latency samples into a per-cell
  // QuantileSketch (exact deep tails, but the dominant record-size term).
  bool sketch = false;
  // >0: arm the flight recorder + anatomy sink at this threshold; exact
  // per-stage cycle totals pool into the cohort report.
  double episode_threshold_us = 0.0;
  TestSystemOptions options;
};

struct FleetSpec {
  std::string name = "fleet";
  std::uint64_t master_seed = 1999;
  std::vector<FleetCohort> cohorts;

  std::uint64_t cell_count() const {
    std::uint64_t total = 0;
    for (const FleetCohort& cohort : cohorts) {
      total += cohort.count;
    }
    return total;
  }
};

// Profile and workload by the names specs and the CLI use: "nt4", "win98",
// "w2kbeta", "nt_smp2", "nt_smp4", "nt_smp2_migrate", "nt_smp4_migrate";
// "office", "workstation", "games", "web", "idle". False for other names.
bool OsProfileByName(std::string_view name, kernel::KernelProfile* out);
bool WorkloadByName(std::string_view name, workload::StressProfile* out);

// Parse a population-spec JSON document (schema in EXPERIMENTS.md "fleet
// recipe"). Unknown OS/workload/fault-plan names, bad weights and empty
// cohorts fail here, not mid-run.
bool FleetSpecFromJson(std::string_view text, FleetSpec* spec, std::string* error);
// Read and parse a spec file.
bool LoadFleetSpec(const std::string& path, FleetSpec* spec, std::string* error);

// Stable FNV-1a fingerprint over everything that determines cell bits:
// master seed, cohort order, names, counts, priors, durations. Every shard
// record carries it; resume re-runs, and the merge refuses, a record
// written under another fingerprint.
std::uint64_t FleetFingerprint(const FleetSpec& spec);

// Per-member seed: SplitMix64 hash chain over (master seed, cohort index,
// member index). Shard- and jobs-independent by construction.
std::uint64_t FleetCellSeed(std::uint64_t master_seed, std::size_t cohort,
                            std::uint64_t member);

// One materialized member: coordinates, seed, and the per-member draws
// (speed, workload, fault activation) sampled from a side stream derived
// from the seed — never from the simulation's own RNG.
struct FleetCell {
  std::uint64_t index = 0;  // global cell index (cohort-major)
  std::size_t cohort = 0;
  std::uint64_t member = 0;
  std::uint64_t seed = 0;
  double speed_mhz = 300.0;
  std::size_t workload_index = 0;
  bool fault_active = false;
};

class Fleet {
 public:
  // Validates the spec the same way FleetSpecFromJson does; `error()` is
  // non-empty (and the fleet unusable) on a bad spec.
  explicit Fleet(FleetSpec spec);

  const FleetSpec& spec() const { return spec_; }
  const std::string& error() const { return error_; }
  std::uint64_t cell_count() const { return cell_count_; }
  std::uint64_t fingerprint() const { return fingerprint_; }

  // Materialize cell `index` (coordinates + per-member draws).
  FleetCell CellAt(std::uint64_t index) const;
  // Expand a cell into its LabConfig: OS profile scaled for the sampled
  // speed, sampled workload, cohort knobs, fault plan when active.
  LabConfig CellConfig(const FleetCell& cell) const;

 private:
  FleetSpec spec_;
  std::string error_;
  std::uint64_t cell_count_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::vector<std::uint64_t> cohort_begin_;  // prefix sums over cohort counts
  std::vector<fault::FaultPlan> plans_;      // resolved built-in plan per cohort
};

// Compact per-cell result: exactly the accumulator inputs, plus the
// identity of the spec that produced them.
struct FleetCellRecord {
  std::uint64_t index = 0;
  std::size_t cohort = 0;
  std::uint64_t seed = 0;
  std::uint64_t fingerprint = 0;  // FleetFingerprint of the writing spec
  std::uint64_t samples = 0;
  double stress_hours = 0.0;
  double speed_mhz = 300.0;
  std::uint64_t fault_activations = 0;
  std::uint64_t anatomy_episodes = 0;
  std::array<sim::Cycles, obs::kAnatomyStageCount> anatomy_stage_cycles{};
  stats::LatencyHistogram thread;
  stats::LatencyHistogram dpc_interrupt;
  stats::QuantileSketch thread_sketch;
};

// One JSONL line: {"cell", "seed", "fingerprint", "checksum", "payload"}
// where payload is the record body (report_io dialect: hexfloats + decimal
// u64s) and checksum is Fnv1a64 over the payload text, so a torn or
// bit-rotted line fails loudly on resume and on merge.
std::string FleetRecordToLine(const FleetCellRecord& record);
bool FleetRecordFromLine(std::string_view line, FleetCellRecord* record, std::string* error);

// Reuses one warmed TestSystem across cells: the first Run constructs it,
// later Runs TestSystem::Reset() it (keeping the engine's bucket/slab
// capacity). Results are bit-identical to RunLatencyExperiment(config)
// (golden-checksum test in tests/fleet_test.cc).
class WarmCellRunner {
 public:
  WarmCellRunner();
  ~WarmCellRunner();

  LabReport Run(const LabConfig& config);

  std::uint64_t constructions() const { return constructions_; }
  std::uint64_t resets() const { return resets_; }

 private:
  std::unique_ptr<TestSystem> system_;
  std::uint64_t constructions_ = 0;
  std::uint64_t resets_ = 0;
};

// Canonical shard-file path: <dir>/shard_<k>_of_<n>.jsonl.
std::string FleetShardPath(const std::string& dir, std::size_t shard, std::size_t shards);

struct FleetShardOptions {
  std::size_t shard = 0;
  std::size_t shards = 1;
  int jobs = 1;
  // Shard record file (required). An existing file resumes: records that
  // verify (checksum, seed and spec fingerprint) are kept, only missing or
  // stale cells run.
  std::string out_path;
  // Cell window [cell_lo, cell_hi): only stride cells inside it run
  // (cell_hi == 0 means cell_count). The supervisor's quarantine bisection
  // narrows this to isolate a poisoned cell; records outside the window
  // that already verify are preserved, so probe work accumulates.
  std::uint64_t cell_lo = 0;
  std::uint64_t cell_hi = 0;
  // Quarantined cells (sorted ascending): never executed, excluded from
  // cells_total. A verified record for one is still preserved.
  std::vector<std::uint64_t> skip_cells;
  // Test/CI fixture: abort() the worker when this cell executes (simulates
  // a poisoned cell that takes the process down). < 0 disables.
  std::int64_t poison_cell = -1;
  // Host-chaos hooks (lab::HostChaos): raise(SIGKILL) after this many
  // freshly executed cells (0 = never), and/or sleep before starting.
  std::uint64_t chaos_kill_after_cells = 0;
  double chaos_delay_ms = 0.0;
  // Per-cell exception barrier / watchdog.
  runtime::SupervisorOptions supervision;
  // >0: run the kernel invariant auditor inside every cell at this
  // virtual-second cadence, plus once after the measurement phase; a
  // violation fails the cell as invariant_violation.
  double audit_every_s = 0.0;
  // Progress hook, serialized under the writer lock (completion order).
  std::function<void(const FleetCell&, bool ok)> on_cell_done;
};

struct FleetShardResult {
  std::uint64_t cells_total = 0;     // cells belonging to this shard
  std::uint64_t cells_executed = 0;  // ran this invocation
  std::uint64_t cells_restored = 0;  // verified records reused from out_path
  std::vector<runtime::CellFailure> failures;
  std::vector<std::string> warnings;
  double wall_seconds = 0.0;
  std::string error;  // fatal (spec/I-O); empty on success

  bool ok() const { return error.empty() && failures.empty(); }
};

// Run shard `shard` of `shards` (cells with index % shards == shard), in
// global-index order per the file contract above. Fresh runs append + flush
// per record (a killed worker loses at most its in-flight cells); resumed
// partial files are stream-rewritten to a temp file and atomically renamed.
FleetShardResult RunFleetShard(const Fleet& fleet, const FleetShardOptions& options);

// One quarantined cell, as persisted in the manifest and reported in the
// merged fleet.json coverage section. `taxonomy` is a runtime::FailureKind
// name when the supervisor isolated the cell (exception/timeout), or a
// merge-detected reason ("missing_record", "corrupt_record",
// "checksum_mismatch", "seed_mismatch", "spec_mismatch") when degradation
// quarantined it.
struct FleetQuarantineEntry {
  std::uint64_t cell = 0;
  std::uint64_t seed = 0;
  std::size_t cohort = 0;  // filled by the merge; not persisted
  std::string taxonomy;
  int attempts = 1;
};

// Quarantine manifest: one JSONL line per cell —
// {"cell": "N", "seed": "N", "taxonomy": "...", "attempts": N}.
bool LoadFleetQuarantine(const std::string& path,
                         std::vector<FleetQuarantineEntry>* entries,
                         std::string* error);
bool SaveFleetQuarantine(const std::string& path,
                         const std::vector<FleetQuarantineEntry>& entries,
                         std::string* error);

// Merge a speculative suffix file into the main shard file: verified records
// from both, main winning duplicates, written ascending via tmp + rename.
// Tolerates a missing or torn main file (a killed straggler). The result is
// a normal partial shard file a completion run can resume from.
bool StitchShardFiles(const Fleet& fleet, std::size_t shard, std::size_t shards,
                      const std::string& main_path, const std::string& extra_path,
                      std::string* error);

// Per-cohort accumulators — the O(cohorts) working set of the merge.
struct FleetCohortReport {
  std::string name;
  std::string os;
  int priority = 0;
  std::uint64_t planned = 0;      // cells the spec promised this cohort
  std::uint64_t cells = 0;        // cells actually folded (completed)
  std::uint64_t quarantined = 0;  // planned - cells, by taxonomy in the report
  stats::SampleCounters counters;
  stats::LatencyHistogram thread;
  stats::LatencyHistogram dpc_interrupt;
  stats::QuantileSketch thread_sketch;
  std::uint64_t fault_cells = 0;  // cells whose fault plan activated >= once
  std::uint64_t fault_activations = 0;
  std::uint64_t anatomy_episodes = 0;
  std::array<sim::Cycles, obs::kAnatomyStageCount> anatomy_stage_cycles{};
  double speed_mhz_sum = 0.0;
  double speed_mhz_min = 0.0;
  double speed_mhz_max = 0.0;
};

struct FleetReport {
  std::string name;
  std::uint64_t fingerprint = 0;
  std::uint64_t cells = 0;             // planned population size
  std::uint64_t cells_completed = 0;   // records folded
  std::uint64_t cells_quarantined = 0; // explicit coverage gap, never silent
  std::vector<FleetQuarantineEntry> quarantine;  // cell-ascending
  // Degradation diagnostics (dropped lines, stale records). Printed by the
  // CLI, deliberately NOT serialized into fleet.json.
  std::vector<std::string> merge_warnings;
  std::vector<FleetCohortReport> cohorts;
};

struct FleetMergeOptions {
  // Cells known-missing before the merge starts (the supervisor's quarantine
  // manifest): expected gaps, skipped without complaint in either mode.
  std::vector<FleetQuarantineEntry> quarantined;
  // Degraded mode: a corrupt / duplicate / missing record quarantines its
  // cell (recorded in the report's coverage manifest) instead of failing the
  // merge. Strict mode (default) fails on the first unexpected anomaly.
  bool allow_degraded = false;
};

// Streaming grid-order merge: consume the shard record streams strictly in
// global cell-index order, folding each record into its cohort accumulator
// and discarding it. `shard_paths[k]` must be shard k of shard_paths.size().
// Fails (false + error) on a missing/torn/mismatched record — an incomplete
// shard must be re-run, never silently skipped.
bool MergeFleetShards(const Fleet& fleet, const std::vector<std::string>& shard_paths,
                      FleetReport* report, std::string* error);

// Same merge with an expected-quarantine list and optional graceful
// degradation; the report's coverage manifest (cells planned / completed /
// quarantined, per cohort) makes any gap loud.
bool MergeFleetShards(const Fleet& fleet, const std::vector<std::string>& shard_paths,
                      const FleetMergeOptions& merge_options, FleetReport* report,
                      std::string* error);

// Serialize the merged report: exact histogram/sketch states in the
// report_io dialect plus human-readable per-cohort quantiles. Deterministic
// bytes — the smoke test checksums this.
std::string FleetReportToJson(const FleetReport& report);

}  // namespace wdmlat::lab

#endif  // SRC_LAB_FLEET_H_
