// wdmlat_run — command-line front end for the latency laboratory.
//
// Four modes, one function each below:
//   - a single experiment cell (OS personality x workload x measured thread
//     priority x virtual duration), optionally plotted or exported as CSV,
//     or run twice as a baseline-vs-fault-plan differential;
//   - --matrix: the paper's {NT,98} x {4 loads} x {prio 28,24} grid, in
//     process on a thread pool, merged bit-identically for any --jobs;
//   - --fleet: a population spec sharded across supervised worker
//     processes (--shard is the worker side), resumable from its shard
//     record files and stream-merged into <dir>/fleet.json. This is the
//     durable path: a grid that must survive crashes runs as a fleet.
//
//   wdmlat_run --os=win98 --workload=games --priority=28 --minutes=10
//   wdmlat_run --matrix --jobs=4 --trials=2 --minutes=5
//   wdmlat_run --fleet=paper_grid.json --shards=4 --fleet-out=out/
//
// `wdmlat_run --help` prints every flag (kHelpText below is the one list).
// Exit codes: 0 success, 2 usage/config error, 3 failed cells.

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "src/fault/fault.h"
#include "src/fault/plan_json.h"
#include "src/kernel/profile.h"
#include "src/lab/csv_export.h"
#include "src/lab/differential.h"
#include "src/lab/fleet.h"
#include "src/lab/host_chaos.h"
#include "src/lab/lab.h"
#include "src/lab/matrix.h"
#include "src/obs/anatomy.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/report/loglog_plot.h"
#include "src/runtime/fleet_supervisor.h"
#include "src/runtime/shard_runner.h"
#include "src/runtime/supervisor.h"
#include "src/runtime/thread_pool.h"
#include "src/stats/usage_model.h"

namespace {

using namespace wdmlat;

// The complete flag table. --help prints this to stdout and exits 0; the
// CLI contract test greps it for every flag the parser accepts, so a flag
// added to the parser without a row here fails CI.
constexpr const char kHelpText[] =
    "usage: wdmlat_run [flags]\n"
    "\n"
    "Experiment cell:\n"
    "  --os=NAME                  OS personality (default win98): nt4|win98|\n"
    "                             w2kbeta, or an SMP variant nt_smp2|nt_smp4|\n"
    "                             nt_smp2_migrate|nt_smp4_migrate\n"
    "  --workload=office|workstation|games|web|idle            (default games)\n"
    "  --priority=N               measured RT thread priority 16..31 (default 28)\n"
    "  --minutes=F                virtual measurement minutes  (default 10)\n"
    "  --seed=N                   RNG seed                     (default 1999)\n"
    "  --scanner                  enable the Plus!98 virus scanner (98 only)\n"
    "  --sounds                   enable the default sound scheme  (98 only)\n"
    "  --cores=N                  simulate an N-core NT SMP machine (default 1;\n"
    "                             needs --os=nt4; with --matrix adds an NT-SMP\n"
    "                             column to the grid; fleet specs say os=nt_smp2)\n"
    "  --dpc-affinity=pinned|migrating\n"
    "                             SMP DPC routing (default pinned; migrating also\n"
    "                             round-robins IRQs and enables work stealing)\n"
    "  --audit-every-s=F          run the kernel invariant auditor every F virtual\n"
    "                             seconds inside every cell, in every mode; a\n"
    "                             violation fails the run (exit 3), or in a fleet\n"
    "                             the cell ([invariant_violation])\n"
    "\n"
    "Output:\n"
    "  --plot                     render the log-log distribution panel\n"
    "  --csv-dir=DIR              export distributions as CSV\n"
    "  --worst-cases              print hourly/daily/weekly expected worst cases\n"
    "\n"
    "Observability (EXPERIMENTS.md \"Tracing & metrics\"):\n"
    "  --trace-out=FILE           write a Chrome trace-event JSON (Perfetto)\n"
    "  --metrics-out=FILE         write the run's MetricsRegistry as JSON\n"
    "  --metrics-csv=FILE         same registry as kind,name,field,value CSV\n"
    "  --queue-sample-ms=F        queue-depth sampling period (default 1.0)\n"
    "  --episode-threshold-us=F   arm the episode flight recorder + cause tool\n"
    "                             at this thread latency\n"
    "  --anatomy-out=FILE         decompose each episode into exact causal stage\n"
    "                             cycles (requires --episode-threshold-us); prints\n"
    "                             the anatomy report and writes episode JSON (in\n"
    "                             matrix mode: per-group stage totals)\n"
    "  --sketch                   stream thread latencies through the mergeable\n"
    "                             quantile sketch; prints exact-tail P50/P99/\n"
    "                             P99.9/P99.99 after the run\n"
    "\n"
    "Fault injection (EXPERIMENTS.md \"Fault plans\"):\n"
    "  --faults=NAME|FILE         built-in plan (virus_scan, irq_storm,\n"
    "                             masked_window) or a JSON plan file\n"
    "  --differential             A/B the cell with/without the plan (single cell)\n"
    "  --diff-out=FILE            write the differential report as JSON\n"
    "  --diff-csv=FILE            write the differential report as CSV\n"
    "\n"
    "Matrix mode (parallel experiment grid, in process):\n"
    "  --matrix                   run the full {NT,98} x {4 loads} x {prio 28,24}\n"
    "                             grid; merged results are bit-identical for any\n"
    "                             --jobs value\n"
    "  --jobs=N                   worker threads (default: hardware cores)\n"
    "  --trials=N                 independent seeds per cell (default 1)\n"
    "\n"
    "Fleet mode (population scale and durable grids; EXPERIMENTS.md \"Fleet\n"
    "recipe\" and \"Supervised runs\"):\n"
    "  --fleet=FILE               run a population spec (JSON): shard across\n"
    "                             worker processes, stream-merge, write\n"
    "                             <dir>/fleet.json; re-running resumes from the\n"
    "                             shard record files, re-running only cells whose\n"
    "                             records are missing, damaged or from another spec\n"
    "  --shards=N                 worker processes to split the population over\n"
    "                             (default 1); merged report is bit-identical\n"
    "                             for any value\n"
    "  --shard=K/N                worker mode: run only shard K of N into the\n"
    "                             shard record file (spawned by the orchestrator;\n"
    "                             --jobs threads within the shard)\n"
    "  --fleet-out=DIR            fleet artifact directory (default fleet_out)\n"
    "  --cell-timeout-ms=F        host-clock deadline budget per cell\n"
    "  --shard-timeout-s=F        supervisor liveness deadline: SIGKILL and retry\n"
    "                             a worker whose shard file stops growing for F\n"
    "                             host seconds (0 = off)\n"
    "  --shard-retries=N          attempts per shard window before poisoned-cell\n"
    "                             bisection starts (default 3)\n"
    "  --speculate                re-dispatch the slowest shard's remaining cells\n"
    "                             to an idle slot near the end of the run\n"
    "  --chaos-seed=N             deterministic host-chaos harness: kill, truncate,\n"
    "                             bit-flip and delay workers; the run self-heals to\n"
    "                             a byte-identical fleet.json\n"
    "  --poison-cell=N            CI fixture: abort() the worker while it executes\n"
    "                             cell N (bisection isolates it into the\n"
    "                             quarantine manifest)\n"
    "  --cell-lo=N / --cell-hi=M  worker mode: restrict the shard to cells [N,M)\n"
    "                             (spawned by the supervisor's bisection probes)\n"
    "  --quarantine=FILE          worker mode: skip cells listed in this JSONL\n"
    "                             quarantine manifest\n"
    "  --shard-out=FILE           worker mode: write shard records to FILE instead\n"
    "                             of the canonical shard path (speculative copies)\n"
    "  --chaos-kill-after-cells=N worker mode: raise(SIGKILL) after executing N\n"
    "                             cells (chaos harness internals)\n"
    "  --chaos-delay-ms=F         worker mode: sleep F host ms before starting\n"
    "\n"
    "  --help, -h                 print this flag table and exit 0\n"
    "\n"
    "Exit codes: 0 success, 2 usage/config error, 3 failed cells.\n";

[[noreturn]] void Help() {
  std::fputs(kHelpText, stdout);
  std::exit(0);
}

[[noreturn]] void Usage(const char* bad = nullptr) {
  if (bad != nullptr) {
    std::fprintf(stderr, "wdmlat_run: unrecognized argument '%s'\n\n", bad);
  }
  std::fprintf(stderr, "usage: wdmlat_run [flags]  (see wdmlat_run --help)\n");
  std::exit(2);
}

// One-line diagnostic + usage exit code, per the CLI contract: a bad
// argument must never start a multi-minute run.
[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "wdmlat_run: %s\n", message.c_str());
  std::exit(2);
}

// Strict numeric flag parsing: the whole value must parse, so --jobs=4x or a
// missing value fails loudly instead of silently becoming 0.
long ParseIntFlag(const char* flag, const std::string& value) {
  if (value.empty()) {
    Die(std::string(flag) + " requires a value");
  }
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (errno != 0 || end != value.c_str() + value.size()) {
    Die(std::string(flag) + "=" + value + " is not an integer");
  }
  return parsed;
}

std::uint64_t ParseU64Flag(const char* flag, const std::string& value) {
  if (value.empty()) {
    Die(std::string(flag) + " requires a value");
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end != value.c_str() + value.size()) {
    Die(std::string(flag) + "=" + value + " is not an unsigned integer");
  }
  return static_cast<std::uint64_t>(parsed);
}

double ParseDoubleFlag(const char* flag, const std::string& value) {
  if (value.empty()) {
    Die(std::string(flag) + " requires a value");
  }
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value.c_str(), &end);
  if (errno != 0 || end != value.c_str() + value.size()) {
    Die(std::string(flag) + "=" + value + " is not a number");
  }
  return parsed;
}

const std::string& RequireValue(const char* flag, const std::string& value) {
  if (value.empty()) {
    Die(std::string(flag) + " requires a value");
  }
  return value;
}

// Write `text` to `path`, reporting (but not failing on) I/O errors.
void WriteTextFile(const std::string& path, const std::string& text, const char* what) {
  std::ofstream out(path);
  if (out) {
    out << text;
  }
  if (out.good()) {
    std::printf("wrote %s to %s\n", what, path.c_str());
  } else {
    std::fprintf(stderr, "wdmlat_run: failed to write %s to %s\n", what, path.c_str());
  }
}

bool MatchFlag(const char* arg, const char* name, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) {
    return false;
  }
  if (arg[len] == '\0') {
    value->clear();
    return true;
  }
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

// Value-taking flag: accepts both --name=VALUE and --name VALUE.
bool MatchValueFlag(int argc, char** argv, int* i, const char* name, std::string* value) {
  if (!MatchFlag(argv[*i], name, value)) {
    return false;
  }
  if (value->empty() && *i + 1 < argc) {
    *value = argv[++*i];
  }
  return true;
}

// Every flag's value; defaults as in kHelpText.
struct Flags {
  std::string os_name = "win98";
  int cores = 0;              // 0 = profile default (uniprocessor)
  std::string dpc_affinity;   // "" = profile default (pinned)
  std::string workload_name = "games";
  int priority = 28;
  double minutes = 10.0;
  std::uint64_t seed = 1999;
  bool scanner = false;
  bool sounds = false;
  double audit_every_s = 0.0;
  bool plot = false;
  std::string csv_dir;
  bool worst_cases = false;
  std::string trace_out;
  std::string metrics_out;
  std::string metrics_csv;
  double queue_sample_ms = 1.0;
  double episode_threshold_us = 0.0;
  std::string anatomy_out;
  bool sketch = false;
  std::string faults;
  bool differential = false;
  std::string diff_out;
  std::string diff_csv;
  bool matrix = false;
  int jobs = runtime::ThreadPool::HardwareThreads();
  int trials = 1;
  std::string fleet;
  std::uint64_t shards = 1;
  std::string shard;
  std::string fleet_out = "fleet_out";
  double cell_timeout_ms = 0.0;
  double shard_timeout_s = 0.0;
  int shard_retries = 3;
  bool speculate = false;
  std::optional<std::uint64_t> chaos_seed;
  long poison_cell = -1;
  std::uint64_t cell_lo = 0;
  std::uint64_t cell_hi = 0;
  std::string quarantine;
  std::string shard_out;
  std::uint64_t chaos_kill_after_cells = 0;
  double chaos_delay_ms = 0.0;

  bool want_metrics() const { return !metrics_out.empty() || !metrics_csv.empty(); }
};

// Store a flag's value into its field, parsed strictly for the field's type.
void Assign(const char* flag, const std::string& value, std::string* out) {
  *out = RequireValue(flag, value);
}
void Assign(const char* flag, const std::string& value, int* out) {
  *out = static_cast<int>(ParseIntFlag(flag, value));
}
void Assign(const char* flag, const std::string& value, long* out) {
  *out = ParseIntFlag(flag, value);
}
void Assign(const char* flag, const std::string& value, std::uint64_t* out) {
  *out = ParseU64Flag(flag, value);
}
void Assign(const char* flag, const std::string& value, std::optional<std::uint64_t>* out) {
  *out = ParseU64Flag(flag, value);
}
void Assign(const char* flag, const std::string& value, double* out) {
  *out = ParseDoubleFlag(flag, value);
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  using Field = std::variant<bool*, std::string*, int*, long*, std::uint64_t*,
                             std::optional<std::uint64_t>*, double*>;
  const std::pair<const char*, Field> fields[] = {
      {"--os", &f.os_name},
      {"--cores", &f.cores},
      {"--dpc-affinity", &f.dpc_affinity},
      {"--workload", &f.workload_name},
      {"--priority", &f.priority},
      {"--minutes", &f.minutes},
      {"--seed", &f.seed},
      {"--scanner", &f.scanner},
      {"--sounds", &f.sounds},
      {"--audit-every-s", &f.audit_every_s},
      {"--plot", &f.plot},
      {"--csv-dir", &f.csv_dir},
      {"--worst-cases", &f.worst_cases},
      {"--trace-out", &f.trace_out},
      {"--metrics-out", &f.metrics_out},
      {"--metrics-csv", &f.metrics_csv},
      {"--queue-sample-ms", &f.queue_sample_ms},
      {"--episode-threshold-us", &f.episode_threshold_us},
      {"--anatomy-out", &f.anatomy_out},
      {"--sketch", &f.sketch},
      {"--faults", &f.faults},
      {"--differential", &f.differential},
      {"--diff-out", &f.diff_out},
      {"--diff-csv", &f.diff_csv},
      {"--matrix", &f.matrix},
      {"--jobs", &f.jobs},
      {"--trials", &f.trials},
      {"--fleet", &f.fleet},
      {"--shards", &f.shards},
      {"--shard", &f.shard},
      {"--fleet-out", &f.fleet_out},
      {"--cell-timeout-ms", &f.cell_timeout_ms},
      {"--shard-timeout-s", &f.shard_timeout_s},
      {"--shard-retries", &f.shard_retries},
      {"--speculate", &f.speculate},
      {"--chaos-seed", &f.chaos_seed},
      {"--poison-cell", &f.poison_cell},
      {"--cell-lo", &f.cell_lo},
      {"--cell-hi", &f.cell_hi},
      {"--quarantine", &f.quarantine},
      {"--shard-out", &f.shard_out},
      {"--chaos-kill-after-cells", &f.chaos_kill_after_cells},
      {"--chaos-delay-ms", &f.chaos_delay_ms},
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      Help();
    }
    bool matched = false;
    for (const auto& [name, field] : fields) {
      std::string value;
      if (bool* const* flag = std::get_if<bool*>(&field)) {
        matched = MatchFlag(argv[i], name, &value);
        if (matched) {
          **flag = true;
        }
      } else if (MatchValueFlag(argc, argv, &i, name, &value)) {
        matched = true;
        std::visit([&](auto* out) {
          if constexpr (!std::is_same_v<decltype(out), bool*>) {
            Assign(name, value, out);
          }
        }, field);
      }
      if (matched) {
        break;
      }
    }
    if (!matched) {
      Usage(argv[i]);
    }
  }
  if (!f.diff_out.empty() || !f.diff_csv.empty()) {
    f.differential = true;
  }
  return f;
}

// Every configuration error exits 2 here, before anything runs.
void Validate(const Flags& f) {
  if (f.priority < kernel::kMinRealTimePriority || f.priority > kernel::kMaxPriority) {
    Die("--priority must be a real-time priority (16..31)");
  }
  if (f.minutes <= 0.0) {
    Die("--minutes must be positive");
  }
  if (f.jobs < 1) {
    Die("--jobs must be at least 1");
  }
  if (f.trials < 1) {
    Die("--trials must be at least 1");
  }
  if (f.cores != 0 && (f.cores < 1 || f.cores > 32)) {
    Die("--cores must be in 1..32");
  }
  if (!f.dpc_affinity.empty() && f.dpc_affinity != "pinned" && f.dpc_affinity != "migrating") {
    Die("--dpc-affinity must be pinned or migrating");
  }
  if (!f.dpc_affinity.empty() && f.cores <= 1) {
    Die("--dpc-affinity only applies to an SMP cell (pass --cores=N with N > 1)");
  }
  if (f.audit_every_s < 0.0) {
    Die("--audit-every-s must be >= 0");
  }
  if (!f.anatomy_out.empty() && f.episode_threshold_us <= 0.0) {
    Die("--anatomy-out requires --episode-threshold-us (anatomy decomposes "
        "flight-recorder episodes)");
  }
  if (f.differential && f.faults.empty()) {
    Die("--differential requires --faults");
  }
  if (f.differential && f.matrix) {
    Die("--differential is single-cell only (drop --matrix)");
  }

  // Fleet flags.
  if (!f.shard.empty() && f.fleet.empty()) {
    Die("--shard is a worker flag and requires --fleet");
  }
  const bool worker_flags = f.cell_lo != 0 || f.cell_hi != 0 || !f.quarantine.empty() ||
                            !f.shard_out.empty() || f.chaos_kill_after_cells > 0 ||
                            f.chaos_delay_ms > 0.0;
  const bool supervisor_flags = f.shard_timeout_s > 0.0 || f.shard_retries != 3 ||
                                f.speculate || f.chaos_seed.has_value();
  if ((worker_flags || supervisor_flags || f.cell_timeout_ms != 0.0 || f.poison_cell >= 0) &&
      f.fleet.empty()) {
    Die("--cell-timeout-ms/--shard-timeout-s/--shard-retries/"
        "--speculate/--chaos-seed/--poison-cell/--cell-lo/--cell-hi/--quarantine/"
        "--shard-out/--chaos-kill-after-cells/--chaos-delay-ms are fleet flags and "
        "require --fleet");
  }
  if (worker_flags && f.shard.empty()) {
    Die("--cell-lo/--cell-hi/--quarantine/--shard-out/--chaos-kill-after-cells/"
        "--chaos-delay-ms are worker flags and require --shard (the supervisor "
        "passes them)");
  }
  if (supervisor_flags && !f.shard.empty()) {
    Die("--shard-timeout-s/--shard-retries/--speculate/--chaos-seed are supervisor "
        "flags; drop --shard");
  }
  if (f.shard_retries < 1) {
    Die("--shard-retries must be at least 1");
  }
  if (f.cell_timeout_ms < 0.0 || f.shard_timeout_s < 0.0 || f.chaos_delay_ms < 0.0) {
    Die("--cell-timeout-ms, --shard-timeout-s and --chaos-delay-ms must be >= 0");
  }
  if (f.cell_hi != 0 && f.cell_lo >= f.cell_hi) {
    Die("--cell-lo must be below --cell-hi");
  }
  if (!f.fleet.empty()) {
    if (f.matrix || f.differential || !f.faults.empty()) {
      Die("--fleet is a self-contained mode (drop --matrix/--differential/--faults; "
          "the spec carries its own priors)");
    }
    if (f.cores != 0 || !f.dpc_affinity.empty()) {
      Die("--cores/--dpc-affinity are cell flags; fleet cohorts pick SMP via "
          "os=nt_smp2|nt_smp4|nt_smp2_migrate|nt_smp4_migrate in the spec");
    }
  }
}

// --faults resolves to a built-in plan name first, then a JSON plan file.
fault::FaultPlan LoadFaults(const std::string& arg) {
  fault::FaultPlan plan;
  if (fault::FindBuiltinPlan(arg, &plan)) {
    return plan;
  }
  std::string error;
  if (!fault::LoadFaultPlanFile(arg, &plan, &error)) {
    std::string builtins;
    for (const std::string& name : fault::BuiltinPlanNames()) {
      builtins += (builtins.empty() ? "" : ", ") + name;
    }
    Die("--faults=" + arg + ": " + error + " (built-ins: " + builtins + ")");
  }
  return plan;
}

// %.17g: a double forwarded to a worker's argv arrives bit-exact.
std::string DoubleArg(const char* flag, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%.17g", flag, value);
  return buf;
}

// --- Matrix mode -------------------------------------------------------------

int RunMatrix(const Flags& f, const fault::FaultPlan* plan) {
  obs::ChromeTraceWriter trace_writer;
  lab::MatrixSpec spec = lab::PaperMatrix();
  if (f.cores > 1) {
    // NT-UP vs NT-SMP: add an SMP column to the paper grid (EXPERIMENTS.md
    // "NT-UP vs NT-SMP" recipe).
    spec.oses.push_back(kernel::MakeNt4SmpProfile(f.cores, f.dpc_affinity == "migrating"));
  }
  spec.trials = f.trials;
  spec.stress_minutes = f.minutes;
  spec.master_seed = f.seed;
  spec.options.virus_scanner = f.scanner;
  spec.options.sound_scheme = f.sounds ? vmm98::SchemeKind::kDefault : vmm98::SchemeKind::kNoSounds;
  spec.collect_metrics = f.want_metrics();
  spec.queue_sample_ms = f.queue_sample_ms;
  spec.episode_threshold_us = f.episode_threshold_us;
  spec.anatomy = !f.anatomy_out.empty();
  spec.sketch = f.sketch;
  spec.audit_every_s = f.audit_every_s;
  spec.faults = plan;
  if (!f.trace_out.empty()) {
    spec.trace_sink = &trace_writer;
  }
  const lab::ExperimentMatrix matrix(spec);

  std::printf(
      "wdmlat_run --matrix: %zu cells (%zu OS x %zu workloads x %zu priorities x %d "
      "trials),\n%.1f virtual minutes per cell, master seed %llu, %d jobs\n\n",
      matrix.cells().size(), spec.oses.size(), spec.workloads.size(), spec.priorities.size(),
      spec.trials, f.minutes, static_cast<unsigned long long>(f.seed), f.jobs);

  const lab::MatrixResult result = matrix.Run(f.jobs, [](const lab::MatrixCell& cell) {
    std::printf("  done: %-16s %-18s prio %2d  trial %d  (seed %016llx)\n",
                cell.config.os.name.c_str(), cell.config.stress.name.c_str(),
                cell.config.thread_priority, cell.trial,
                static_cast<unsigned long long>(cell.seed));
  });

  std::printf("\nMerged distributions (per OS x workload x priority group):\n");
  std::printf("  %-16s %-18s %-4s %-7s %-9s %9s %9s %9s\n", "OS", "workload", "prio", "trials",
              "samples", "p50 ms", "p99 ms", "max ms");
  for (const lab::MergedCell& group : result.merged) {
    std::printf("  %-16s %-18s %-4d %-7d %-9llu %9.3f %9.3f %9.3f\n", group.os_name.c_str(),
                group.workload_name.c_str(), group.thread_priority, group.trials,
                static_cast<unsigned long long>(group.samples()), group.thread.QuantileMs(0.5),
                group.thread.QuantileMs(0.99), group.thread.max_ms());
  }
  std::printf(
      "\n%zu cells in %.2f s wall (%.2f s summed cell time, %.2fx speedup at --jobs=%d)\n",
      matrix.cells().size(), result.wall_seconds, result.total_cell_seconds, result.Speedup(),
      f.jobs);
  std::printf(
      "determinism: merged histograms are bit-identical for any --jobs value under "
      "master seed %llu\n",
      static_cast<unsigned long long>(f.seed));

  if (plan != nullptr) {
    std::printf("\nFault plan \"%s\" (seed %llu) activations per group:\n", plan->name.c_str(),
                static_cast<unsigned long long>(plan->seed));
    for (const lab::MergedCell& group : result.merged) {
      std::printf("  %-16s %-18s prio %-2d  %llu activations\n", group.os_name.c_str(),
                  group.workload_name.c_str(), group.thread_priority,
                  static_cast<unsigned long long>(group.fault_activations));
    }
  }

  if (f.episode_threshold_us > 0.0) {
    std::printf("\nFlight-recorder episodes (threshold %.0f us):\n", f.episode_threshold_us);
    for (const lab::MergedCell& group : result.merged) {
      if (group.episodes == 0) {
        continue;
      }
      std::printf("  %-16s %-18s prio %-2d  %llu episodes, %llu attributed, "
                  "%llu module matches\n",
                  group.os_name.c_str(), group.workload_name.c_str(), group.thread_priority,
                  static_cast<unsigned long long>(group.episodes),
                  static_cast<unsigned long long>(group.episodes_attributed),
                  static_cast<unsigned long long>(group.episode_module_matches));
    }
  }
  if (!f.anatomy_out.empty()) {
    std::printf("\nCausal anatomy (stage cycles pooled per group):\n");
    std::string json = "{\n  \"groups\": [";
    bool first = true;
    for (const lab::MergedCell& group : result.merged) {
      if (group.anatomy_episodes == 0) {
        continue;
      }
      sim::Cycles total = 0;
      for (const sim::Cycles cycles : group.anatomy_stage_cycles) {
        total += cycles;
      }
      std::printf("  %-16s %-18s prio %-2d  %llu episodes\n", group.os_name.c_str(),
                  group.workload_name.c_str(), group.thread_priority,
                  static_cast<unsigned long long>(group.anatomy_episodes));
      json += first ? "\n" : ",\n";
      first = false;
      json += "    {\"os\": \"" + group.os_name + "\", \"workload\": \"" + group.workload_name +
              "\", \"priority\": " + std::to_string(group.thread_priority) +
              ",\n     \"episodes\": " + std::to_string(group.anatomy_episodes) +
              ", \"stage_cycles\": {";
      for (std::size_t s = 0; s < obs::kAnatomyStageCount; ++s) {
        const auto stage = static_cast<obs::AnatomyStage>(s);
        const sim::Cycles cycles = group.anatomy_stage_cycles[s];
        json += std::string(s == 0 ? "" : ", ") + "\"" + obs::AnatomyStageName(stage) +
                "\": " + std::to_string(cycles);
        if (cycles > 0 && total > 0) {
          std::printf("    %-14s %12llu cycles  (%5.1f%%)\n", obs::AnatomyStageName(stage),
                      static_cast<unsigned long long>(cycles),
                      100.0 * static_cast<double>(cycles) / static_cast<double>(total));
        }
      }
      json += "}}";
    }
    json += first ? "]\n}\n" : "\n  ]\n}\n";
    WriteTextFile(f.anatomy_out, json, "anatomy stage totals JSON");
  }
  if (f.sketch) {
    std::printf("\nQuantile sketch (grid-order merged; deep tail exact):\n");
    std::printf("  %-16s %-18s %-4s %9s %9s %9s %9s\n", "OS", "workload", "prio", "p50 ms",
                "p99 ms", "p99.9 ms", "p99.99 ms");
    for (const lab::MergedCell& group : result.merged) {
      std::printf("  %-16s %-18s %-4d %9.3f %9.3f %9.3f %9.3f\n", group.os_name.c_str(),
                  group.workload_name.c_str(), group.thread_priority,
                  group.thread_sketch.QuantileMs(0.5), group.thread_sketch.QuantileMs(0.99),
                  group.thread_sketch.QuantileMs(0.999), group.thread_sketch.QuantileMs(0.9999));
    }
  }
  if (!f.trace_out.empty()) {
    lab::AppendHostTrace(trace_writer, matrix, result);
    if (trace_writer.WriteFile(f.trace_out)) {
      std::printf("wrote Chrome trace (%zu events) to %s\n", trace_writer.event_count(),
                  f.trace_out.c_str());
    } else {
      std::fprintf(stderr, "wdmlat_run: failed to write trace to %s\n", f.trace_out.c_str());
    }
  }
  if (!f.metrics_out.empty()) {
    WriteTextFile(f.metrics_out, result.metrics.ToJson(), "metrics JSON");
  }
  if (!f.metrics_csv.empty()) {
    WriteTextFile(f.metrics_csv, result.metrics.ToCsv(), "metrics CSV");
  }
  for (const std::string& violation : result.merge_violations) {
    std::fprintf(stderr, "wdmlat_run: merge audit: %s\n", violation.c_str());
  }
  return result.merge_violations.empty() ? 0 : 3;
}

// --- Single-cell and differential modes --------------------------------------

lab::LabConfig CellConfig(const Flags& f) {
  lab::LabConfig config;
  if (f.os_name == "nt4" && f.cores > 1) {
    config.os = kernel::MakeNt4SmpProfile(f.cores, f.dpc_affinity == "migrating");
  } else if (!lab::OsProfileByName(f.os_name, &config.os)) {
    Usage(("--os=" + f.os_name).c_str());
  }
  if (f.cores > 1 && f.os_name != "nt4") {
    Die("--cores=" + std::to_string(f.cores) +
        " needs --os=nt4 (only the NT kernel model is SMP-capable; the nt_smp* aliases "
        "already fix a core count)");
  }
  if (!lab::WorkloadByName(f.workload_name, &config.stress)) {
    Usage(("--workload=" + f.workload_name).c_str());
  }
  config.thread_priority = f.priority;
  config.stress_minutes = f.minutes;
  config.seed = f.seed;
  config.options.virus_scanner = f.scanner;
  config.options.sound_scheme =
      f.sounds ? vmm98::SchemeKind::kDefault : vmm98::SchemeKind::kNoSounds;
  config.obs.queue_sample_ms = f.queue_sample_ms;
  config.obs.episode_threshold_us = f.episode_threshold_us;
  config.obs.anatomy = !f.anatomy_out.empty();
  config.obs.sketch = f.sketch;
  config.supervision.audit_every_s = f.audit_every_s;
  config.supervision.audit_at_end = f.audit_every_s > 0.0;
  return config;
}

void PrintCellHeader(const Flags& f, const lab::LabConfig& config) {
  std::printf("wdmlat_run: %s, %s, priority %d, %.1f virtual minutes, seed %llu\n",
              config.os.name.c_str(), config.stress.name.c_str(), f.priority, f.minutes,
              static_cast<unsigned long long>(f.seed));
}

int RunDifferentialCell(const Flags& f, const lab::LabConfig& config,
                        const fault::FaultPlan& plan) {
  PrintCellHeader(f, config);
  std::printf("differential A/B: baseline vs. fault plan \"%s\" from the same seed\n\n",
              plan.name.c_str());
  const lab::DifferentialReport diff = lab::RunDifferential(config, plan);
  std::fputs(lab::RenderDifferentialTables(diff).c_str(), stdout);
  if (!f.diff_out.empty()) {
    WriteTextFile(f.diff_out, lab::DifferentialToJson(diff), "differential JSON");
  }
  if (!f.diff_csv.empty()) {
    WriteTextFile(f.diff_csv, lab::DifferentialToCsv(diff), "differential CSV");
  }
  return 0;
}

int RunCell(const Flags& f, lab::LabConfig config, const fault::FaultPlan* plan) {
  obs::ChromeTraceWriter trace_writer;
  obs::MetricsRegistry metrics;
  if (!f.trace_out.empty()) {
    config.obs.trace_sink = &trace_writer;
  }
  if (f.want_metrics()) {
    config.obs.metrics = &metrics;
  }
  config.faults = plan;

  PrintCellHeader(f, config);
  const lab::LabReport report = lab::RunLatencyExperiment(config);
  if (plan != nullptr) {
    std::printf("fault plan \"%s\": %llu activation(s)\n", plan->name.c_str(),
                static_cast<unsigned long long>(report.fault_activations));
  }

  std::printf("\n%llu samples (%.0f per hour)\n", static_cast<unsigned long long>(report.samples),
              report.samples_per_hour);
  auto line = [](const char* name, const stats::LatencyHistogram& hist) {
    std::printf("  %-22s p50 %8.3f  p99 %8.3f  p99.99 %8.3f  max %8.3f ms\n", name,
                hist.QuantileMs(0.5), hist.QuantileMs(0.99), hist.QuantileMs(0.9999),
                hist.max_ms());
  };
  line("DPC interrupt latency", report.dpc_interrupt);
  line("thread latency", report.thread);
  line("thread int latency", report.thread_interrupt);
  if (report.has_interrupt_latency) {
    line("interrupt latency", report.interrupt);
    line("ISR to DPC", report.isr_to_dpc);
  }

  if (f.worst_cases) {
    std::printf("\nExpected worst cases (hourly / daily / weekly, ms) under the %s usage "
                "model:\n",
                report.usage.category.c_str());
    auto worst = [&](const char* name, const stats::LatencyHistogram& hist) {
      const auto wc = stats::ComputeWorstCases(hist, report.samples_per_hour, report.usage);
      std::printf("  %-22s %6.1f / %6.1f / %6.1f\n", name, wc.hourly_ms, wc.daily_ms,
                  wc.weekly_ms);
    };
    worst("DPC interrupt latency", report.dpc_interrupt);
    worst("thread latency", report.thread);
    worst("thread int latency", report.thread_interrupt);
    if (report.has_interrupt_latency) {
      worst("interrupt latency", report.interrupt);
    }
  }

  if (f.plot) {
    std::printf("\n");
    std::vector<report::LatencySeries> series{
        {"DPC interrupt latency", 'D', &report.dpc_interrupt},
        {"thread latency", 'T', &report.thread},
    };
    std::fputs(report::RenderLatencyLogLog(report.os_name + " / " + report.workload_name, series,
                                           0.125, 128.0)
                   .c_str(),
               stdout);
  }

  if (!f.csv_dir.empty()) {
    const std::string prefix = lab::DefaultCsvPrefix(report);
    const int files = lab::WriteReportCsv(report, f.csv_dir, prefix);
    std::printf("\nwrote %d CSV files to %s/%s_*.csv\n", files, f.csv_dir.c_str(),
                prefix.c_str());
  }

  if (f.episode_threshold_us > 0.0) {
    std::printf("\n%s", obs::RenderAttributionReport(report.episodes).c_str());
  }
  if (!f.anatomy_out.empty()) {
    std::printf("\n%s", obs::RenderAnatomyReport(report.anatomy).c_str());
    WriteTextFile(f.anatomy_out, obs::AnatomyToJson(report.anatomy), "anatomy JSON");
  }
  if (f.sketch) {
    const stats::QuantileSketch& qs = report.thread_sketch;
    std::printf("\nQuantile sketch (thread latency, %llu samples; deep tail exact):\n",
                static_cast<unsigned long long>(qs.count()));
    std::printf("  p50 %8.3f  p99 %8.3f  p99.9 %8.3f  p99.99 %8.3f  max %8.3f ms\n",
                qs.QuantileMs(0.5), qs.QuantileMs(0.99), qs.QuantileMs(0.999),
                qs.QuantileMs(0.9999), qs.max_ms());
  }
  if (!f.trace_out.empty()) {
    if (trace_writer.WriteFile(f.trace_out)) {
      std::printf("wrote Chrome trace (%zu events) to %s\n", trace_writer.event_count(),
                  f.trace_out.c_str());
    } else {
      std::fprintf(stderr, "wdmlat_run: failed to write trace to %s\n", f.trace_out.c_str());
    }
  }
  if (!f.metrics_out.empty()) {
    WriteTextFile(f.metrics_out, metrics.ToJson(), "metrics JSON");
  }
  if (!f.metrics_csv.empty()) {
    WriteTextFile(f.metrics_csv, metrics.ToCsv(), "metrics CSV");
  }
  return 0;
}

// --- Fleet mode ----------------------------------------------------------------

lab::Fleet LoadFleet(const std::string& path) {
  lab::FleetSpec spec;
  std::string error;
  if (!lab::LoadFleetSpec(path, &spec, &error)) {
    Die("--fleet=" + path + ": " + error);
  }
  lab::Fleet fleet(std::move(spec));
  if (!fleet.error().empty()) {
    Die("--fleet=" + path + ": " + fleet.error());
  }
  return fleet;
}

// Worker: run shard K of N into the shard record file and exit.
int RunFleetWorker(const Flags& f, const lab::Fleet& fleet) {
  const std::size_t slash = f.shard.find('/');
  if (slash == std::string::npos) {
    Die("--shard wants K/N, e.g. --shard=0/4");
  }
  const std::uint64_t shard = ParseU64Flag("--shard", f.shard.substr(0, slash));
  const std::uint64_t shards = ParseU64Flag("--shard", f.shard.substr(slash + 1));
  if (shards == 0 || shard >= shards) {
    Die("--shard=" + f.shard + " wants 0 <= K < N");
  }
  lab::FleetShardOptions options;
  options.shard = static_cast<std::size_t>(shard);
  options.shards = static_cast<std::size_t>(shards);
  options.jobs = f.jobs;
  options.out_path = f.shard_out.empty()
                         ? lab::FleetShardPath(f.fleet_out, options.shard, options.shards)
                         : f.shard_out;
  options.supervision.cell_timeout_ms = f.cell_timeout_ms;
  options.audit_every_s = f.audit_every_s;
  options.cell_lo = f.cell_lo;
  options.cell_hi = f.cell_hi;
  options.poison_cell = f.poison_cell;
  options.chaos_kill_after_cells = f.chaos_kill_after_cells;
  options.chaos_delay_ms = f.chaos_delay_ms;
  if (!f.quarantine.empty()) {
    std::vector<lab::FleetQuarantineEntry> manifest;
    std::string error;
    if (!lab::LoadFleetQuarantine(f.quarantine, &manifest, &error)) {
      Die("--quarantine=" + f.quarantine + ": " + error);
    }
    for (const lab::FleetQuarantineEntry& entry : manifest) {
      options.skip_cells.push_back(entry.cell);
    }
  }
  const lab::FleetShardResult result = lab::RunFleetShard(fleet, options);
  for (const std::string& warning : result.warnings) {
    std::fprintf(stderr, "wdmlat_run: shard %llu: warning: %s\n",
                 static_cast<unsigned long long>(shard), warning.c_str());
  }
  if (!result.error.empty()) {
    std::fprintf(stderr, "wdmlat_run: shard %llu: %s\n", static_cast<unsigned long long>(shard),
                 result.error.c_str());
    return 2;
  }
  for (const runtime::CellFailure& failure : result.failures) {
    std::fprintf(stderr, "wdmlat_run: shard %llu: %s\n", static_cast<unsigned long long>(shard),
                 failure.Render().c_str());
  }
  std::printf("shard %llu/%llu: %llu cells (%llu restored, %llu executed) in %.2f s\n",
              static_cast<unsigned long long>(shard), static_cast<unsigned long long>(shards),
              static_cast<unsigned long long>(result.cells_total),
              static_cast<unsigned long long>(result.cells_restored),
              static_cast<unsigned long long>(result.cells_executed), result.wall_seconds);
  return result.failures.empty() ? 0 : 3;
}

// Orchestrator: spawn one worker process per shard (crash isolation — a
// dead worker costs one shard's tail, and a re-run resumes it), then
// stream-merge the shard record files.
int RunFleetOrchestrator(const Flags& f, const lab::Fleet& fleet, const char* argv0) {
  if (f.shards == 0) {
    Die("--shards must be at least 1");
  }
  const std::uint64_t shards = std::min<std::uint64_t>(f.shards, fleet.cell_count());
  const std::string& out_dir = f.fleet_out;
  ::mkdir(out_dir.c_str(), 0777);  // EEXIST is fine; open errors surface below
  std::string self = runtime::SelfExecutable();
  if (self.empty()) {
    self = argv0;
  }

  // The quarantine manifest survives re-runs: cells isolated by a previous
  // invocation stay skipped, so resume converges instead of re-tripping.
  const std::string quarantine_manifest = out_dir + "/quarantine.jsonl";
  std::vector<lab::FleetQuarantineEntry> quarantined;
  if (std::ifstream(quarantine_manifest)) {
    std::string error;
    if (!lab::LoadFleetQuarantine(quarantine_manifest, &quarantined, &error)) {
      Die(quarantine_manifest + ": " + error);
    }
  }

  std::printf(
      "wdmlat_run --fleet: \"%s\", %llu cells in %zu cohort(s), fingerprint %016llx,\n"
      "%llu shard process(es) (max %d concurrent) -> %s\n\n",
      fleet.spec().name.c_str(), static_cast<unsigned long long>(fleet.cell_count()),
      fleet.spec().cohorts.size(), static_cast<unsigned long long>(fleet.fingerprint()),
      static_cast<unsigned long long>(shards), f.jobs, out_dir.c_str());

  // Supervised fleet: per-shard liveness deadlines, bounded retry with
  // backoff, poisoned-cell bisection and (optionally) straggler
  // speculation and the deterministic host-chaos harness. --jobs bounds
  // concurrent worker *processes*; each worker runs its shard
  // single-threaded (the shard file contract is per-process anyway).
  const lab::HostChaos host_chaos(f.chaos_seed.value_or(0));
  runtime::FleetSupervisorOptions sup;
  sup.shards = static_cast<std::size_t>(shards);
  sup.cell_count = static_cast<std::size_t>(fleet.cell_count());
  sup.max_parallel = static_cast<std::size_t>(f.jobs);
  sup.shard_timeout_s = f.shard_timeout_s;
  sup.max_attempts = f.shard_retries;
  sup.speculate = f.speculate;
  if (!quarantined.empty()) {
    sup.quarantine_path = quarantine_manifest;
  }
  sup.shard_path = [&](std::size_t k) {
    return lab::FleetShardPath(out_dir, k, static_cast<std::size_t>(shards));
  };
  sup.cell_seed = [&](std::size_t cell) { return fleet.CellAt(cell).seed; };
  if (f.chaos_seed.has_value()) {
    sup.chaos = [&](std::size_t k, int attempt) { return host_chaos.PlanFor(k, attempt); };
  }
  sup.spawn = [&](const runtime::FleetWorkerRequest& request, pid_t* pid,
                  std::string* spawn_error) {
    runtime::ShardProcess process;
    process.argv = {self, "--fleet=" + f.fleet,
                    "--shard=" + std::to_string(request.shard) + "/" + std::to_string(shards),
                    "--fleet-out=" + out_dir, "--jobs=1"};
    if (f.cell_timeout_ms > 0.0) {
      process.argv.push_back(DoubleArg("--cell-timeout-ms", f.cell_timeout_ms));
    }
    if (f.audit_every_s > 0.0) {
      process.argv.push_back(DoubleArg("--audit-every-s", f.audit_every_s));
    }
    if (request.cell_lo != 0) {
      process.argv.push_back("--cell-lo=" + std::to_string(request.cell_lo));
    }
    if (request.cell_hi != 0 && request.cell_hi < fleet.cell_count()) {
      process.argv.push_back("--cell-hi=" + std::to_string(request.cell_hi));
    }
    if (!request.quarantine_path.empty()) {
      process.argv.push_back("--quarantine=" + request.quarantine_path);
    }
    if (request.out_path !=
        lab::FleetShardPath(out_dir, request.shard, static_cast<std::size_t>(shards))) {
      process.argv.push_back("--shard-out=" + request.out_path);
    }
    if (f.poison_cell >= 0) {
      process.argv.push_back("--poison-cell=" + std::to_string(f.poison_cell));
    }
    if (request.chaos.kill_after_cells > 0) {
      process.argv.push_back("--chaos-kill-after-cells=" +
                             std::to_string(request.chaos.kill_after_cells));
    }
    if (request.chaos.delay_ms > 0.0) {
      process.argv.push_back(DoubleArg("--chaos-delay-ms", request.chaos.delay_ms));
    }
    return runtime::SpawnShardProcess(process, pid, spawn_error);
  };
  sup.on_quarantine = [&](const runtime::QuarantinedCell& cell) {
    lab::FleetQuarantineEntry entry;
    entry.cell = cell.cell;
    entry.seed = cell.seed;
    entry.taxonomy = runtime::FailureKindName(cell.kind);
    entry.attempts = cell.attempts;
    quarantined.push_back(entry);
    std::sort(quarantined.begin(), quarantined.end(),
              [](const lab::FleetQuarantineEntry& a, const lab::FleetQuarantineEntry& b) {
                return a.cell < b.cell;
              });
    std::string error;
    if (!lab::SaveFleetQuarantine(quarantine_manifest, quarantined, &error)) {
      std::fprintf(stderr, "wdmlat_run: quarantine manifest: %s\n", error.c_str());
    }
    return quarantine_manifest;
  };
  sup.stitch = [&](std::size_t k, const std::string& main_path, const std::string& spec_path,
                   std::string* stitch_error) {
    return lab::StitchShardFiles(fleet, k, static_cast<std::size_t>(shards), main_path,
                                 spec_path, stitch_error);
  };
  sup.log = [](const std::string& line) {
    std::fprintf(stderr, "wdmlat_run: supervisor: %s\n", line.c_str());
  };
  const runtime::FleetSupervisorResult supervision = runtime::SuperviseFleet(sup);
  if (supervision.spawns > shards || supervision.heartbeat_kills > 0 ||
      supervision.bisect_probes > 0 || supervision.speculative_spawns > 0) {
    std::printf(
        "supervisor: %llu spawn(s), %llu retr%s, %llu heartbeat kill(s), "
        "%llu bisect probe(s), %llu speculative (%llu won)\n",
        static_cast<unsigned long long>(supervision.spawns),
        static_cast<unsigned long long>(supervision.retries),
        supervision.retries == 1 ? "y" : "ies",
        static_cast<unsigned long long>(supervision.heartbeat_kills),
        static_cast<unsigned long long>(supervision.bisect_probes),
        static_cast<unsigned long long>(supervision.speculative_spawns),
        static_cast<unsigned long long>(supervision.speculative_wins));
  }
  if (!supervision.ok()) {
    std::fprintf(stderr, "wdmlat_run: %s\n", supervision.error.c_str());
    std::fprintf(stderr,
                 "wdmlat_run: fleet workers failed; completed shard records are kept — "
                 "re-run the same command to resume\n");
    return 3;
  }

  std::vector<std::string> shard_paths;
  for (std::uint64_t k = 0; k < shards; ++k) {
    shard_paths.push_back(sup.shard_path(static_cast<std::size_t>(k)));
  }
  // Always merge degraded: quarantined cells become explicit coverage gaps
  // in fleet.json instead of a fatal merge error, and a damaged record that
  // slipped past the supervisor is quarantined rather than sinking the run.
  lab::FleetMergeOptions merge_options;
  merge_options.quarantined = quarantined;
  merge_options.allow_degraded = true;
  lab::FleetReport report;
  std::string error;
  if (!lab::MergeFleetShards(fleet, shard_paths, merge_options, &report, &error)) {
    std::fprintf(stderr, "wdmlat_run: fleet merge: %s\n", error.c_str());
    return 3;
  }
  for (const std::string& warning : report.merge_warnings) {
    std::fprintf(stderr, "wdmlat_run: merge: %s\n", warning.c_str());
  }
  WriteTextFile(out_dir + "/fleet.json", lab::FleetReportToJson(report), "fleet report JSON");

  std::printf("\nMerged cohorts (grid-order fold; bit-identical for any --shards/--jobs):\n");
  std::printf("  %-16s %-8s %-4s %9s %11s %9s %9s %9s %9s\n", "cohort", "os", "prio", "cells",
              "samples", "p50 ms", "p99 ms", "p99.9 ms", "max ms");
  for (const lab::FleetCohortReport& cohort : report.cohorts) {
    std::printf("  %-16s %-8s %-4d %9llu %11llu %9.3f %9.3f %9.3f %9.3f\n", cohort.name.c_str(),
                cohort.os.c_str(), cohort.priority, static_cast<unsigned long long>(cohort.cells),
                static_cast<unsigned long long>(cohort.counters.samples),
                cohort.thread.QuantileMs(0.5), cohort.thread.QuantileMs(0.99),
                cohort.thread.QuantileMs(0.999), cohort.thread.max_ms());
  }
  if (report.cells_quarantined > 0) {
    std::printf("\nQUARANTINED %llu cell(s) — coverage is degraded (manifest: %s):\n",
                static_cast<unsigned long long>(report.cells_quarantined),
                quarantine_manifest.c_str());
    for (const lab::FleetQuarantineEntry& entry : report.quarantine) {
      std::printf("  cell %llu (seed %llu): %s after %d attempt(s)\n",
                  static_cast<unsigned long long>(entry.cell),
                  static_cast<unsigned long long>(entry.seed), entry.taxonomy.c_str(),
                  entry.attempts);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  Validate(flags);
  try {
    if (!flags.fleet.empty()) {
      const lab::Fleet fleet = LoadFleet(flags.fleet);
      return flags.shard.empty() ? RunFleetOrchestrator(flags, fleet, argv[0])
                                 : RunFleetWorker(flags, fleet);
    }
    const std::optional<fault::FaultPlan> plan =
        flags.faults.empty() ? std::nullopt : std::optional(LoadFaults(flags.faults));
    if (flags.matrix) {
      return RunMatrix(flags, plan ? &*plan : nullptr);
    }
    const lab::LabConfig config = CellConfig(flags);
    return flags.differential ? RunDifferentialCell(flags, config, *plan)
                              : RunCell(flags, config, plan ? &*plan : nullptr);
  } catch (const std::exception& e) {
    // A failed invariant audit (--audit-every-s) or any other cell failure:
    // the matrix names the cell in the message.
    std::fprintf(stderr, "wdmlat_run: %s\n", e.what());
    return 3;
  }
}
