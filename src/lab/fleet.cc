#include "src/lab/fleet.h"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "src/kernel/profile.h"
#include "src/kernel/thread.h"
#include "src/lab/report_io.h"
#include "src/obs/json.h"
#include "src/runtime/thread_pool.h"
#include "src/sim/rng.h"
#include "src/workload/stress_profile.h"

namespace wdmlat::lab {

namespace {

using report_json::AppendEscaped;
using report_json::AppendHexDouble;
using report_json::AppendHistogram;
using report_json::AppendInt;
using report_json::AppendSketch;
using report_json::AppendU64;
using report_json::Escape;
using report_json::ReadArray;
using report_json::ReadFields;
using report_json::ReadFixedArray;
using report_json::ReadHexDouble;
using report_json::ReadHistogram;
using report_json::ReadIndex;
using report_json::ReadSketch;
using report_json::ReadU64;

constexpr const char* kRecordFormat = "wdmlat-fleet-cell";
constexpr const char* kReportFormat = "wdmlat-fleet-report";
constexpr int kFormatVersion = 1;
// Integers that travel as JSON numbers (spec counts and seeds, cohort
// indices) are exact in a double below 2^53.
constexpr double kMaxExactInteger = 9007199254740992.0;

// Domain-separation tags for the hash chains: the cell seed feeds the
// simulation, the draw seed feeds the per-member priors. Distinct tags keep
// the two streams independent even though both derive from the coordinates.
constexpr std::uint64_t kCellSeedTag = 0x666c656574636c6cull;   // "fleetcll"
constexpr std::uint64_t kDrawSeedTag = 0x666c656574647277ull;   // "fleetdrw"

std::string U64String(std::uint64_t value) { return std::to_string(value); }

// Hardware-speed model: the simulated cycle rate is a compile-time constant
// (sim::kCpuHz = 300 MHz), so a member's sampled clock scales the kernel
// profile's *cost* distributions instead — a 150 MHz machine pays 2x the
// microseconds for every dispatch, switch, masked section and file op. Event
// *rates* (clock Hz, self-noise rates, quantum) stay wall-anchored.
void ScaleProfileForSpeed(kernel::KernelProfile* os, double speed_mhz) {
  const double factor = 300.0 / speed_mhz;
  os->isr_dispatch_overhead = os->isr_dispatch_overhead.Scaled(factor);
  os->context_switch_cost = os->context_switch_cost.Scaled(factor);
  os->dpc_dispatch_cost = os->dpc_dispatch_cost.Scaled(factor);
  os->clock_isr_body = os->clock_isr_body.Scaled(factor);
  os->file_op_kernel_us = os->file_op_kernel_us.Scaled(factor);
  os->masked_section_len = os->masked_section_len.Scaled(factor);
  os->dispatch_section_len = os->dispatch_section_len.Scaled(factor);
  os->lockout_len = os->lockout_len.Scaled(factor);
  os->clock_isr_per_timer_us *= factor;
}

std::string ValidateCohort(const FleetCohort& cohort, std::size_t index) {
  const std::string where = "cohort " + std::to_string(index) +
                            (cohort.name.empty() ? "" : " (" + cohort.name + ")") + ": ";
  kernel::KernelProfile os;
  if (!OsProfileByName(cohort.os, &os)) {
    return where + "unknown os \"" + cohort.os +
           "\" (nt4|win98|w2kbeta|nt_smp2|nt_smp4|nt_smp2_migrate|nt_smp4_migrate)";
  }
  if (cohort.workloads.empty()) {
    return where + "needs at least one workload";
  }
  workload::StressProfile wl;
  for (const std::string& name : cohort.workloads) {
    if (!WorkloadByName(name, &wl)) {
      return where + "unknown workload \"" + name +
             "\" (office|workstation|games|web|idle)";
    }
  }
  if (!cohort.workload_weights.empty()) {
    if (cohort.workload_weights.size() != cohort.workloads.size()) {
      return where + "workload_weights length != workloads length";
    }
    for (const double w : cohort.workload_weights) {
      if (!(w > 0.0) || !std::isfinite(w)) {
        return where + "workload weights must be finite and > 0";
      }
    }
  }
  if (cohort.count == 0) {
    return where + "count must be >= 1";
  }
  if (!(cohort.speed_mhz_lo > 0.0) || !(cohort.speed_mhz_hi >= cohort.speed_mhz_lo)) {
    return where + "speed_mhz range must satisfy 0 < lo <= hi";
  }
  if (!(cohort.stress_minutes > 0.0) || cohort.warmup_seconds < 0.0) {
    return where + "durations must be positive";
  }
  if (!(cohort.pit_hz > 0.0) || !std::isfinite(cohort.pit_hz)) {
    return where + "pit_hz must be finite and > 0";
  }
  if (cohort.fault_prob < 0.0 || cohort.fault_prob > 1.0) {
    return where + "fault_prob must be in [0, 1]";
  }
  if (!cohort.fault_plan.empty()) {
    fault::FaultPlan plan;
    if (!fault::FindBuiltinPlan(cohort.fault_plan, &plan)) {
      return where + "unknown built-in fault plan \"" + cohort.fault_plan + "\"";
    }
  } else if (cohort.fault_prob > 0.0) {
    return where + "fault_prob > 0 needs a fault_plan";
  }
  return "";
}

}  // namespace

bool OsProfileByName(std::string_view name, kernel::KernelProfile* out) {
  if (name == "nt4") {
    *out = kernel::MakeNt4Profile();
  } else if (name == "win98") {
    *out = kernel::MakeWin98Profile();
  } else if (name == "w2kbeta") {
    *out = kernel::MakeWin2000BetaProfile();
  } else if (name == "nt_smp2") {
    *out = kernel::MakeNt4SmpProfile(2, /*migrating_dpcs=*/false);
  } else if (name == "nt_smp4") {
    *out = kernel::MakeNt4SmpProfile(4, /*migrating_dpcs=*/false);
  } else if (name == "nt_smp2_migrate") {
    *out = kernel::MakeNt4SmpProfile(2, /*migrating_dpcs=*/true);
  } else if (name == "nt_smp4_migrate") {
    *out = kernel::MakeNt4SmpProfile(4, /*migrating_dpcs=*/true);
  } else {
    return false;
  }
  return true;
}

bool WorkloadByName(std::string_view name, workload::StressProfile* out) {
  if (name == "office") {
    *out = workload::OfficeStress();
  } else if (name == "workstation") {
    *out = workload::WorkstationStress();
  } else if (name == "games") {
    *out = workload::GamesStress();
  } else if (name == "web") {
    *out = workload::WebStress();
  } else if (name == "idle") {
    *out = workload::IdleStress();
  } else {
    return false;
  }
  return true;
}

std::uint64_t FleetCellSeed(std::uint64_t master_seed, std::size_t cohort,
                            std::uint64_t member) {
  std::uint64_t hash = master_seed;
  const std::uint64_t coords[] = {kCellSeedTag, static_cast<std::uint64_t>(cohort), member};
  for (std::uint64_t coord : coords) {
    std::uint64_t state = hash ^ coord;
    hash = sim::SplitMix64(state);
  }
  return hash;
}

std::uint64_t FleetFingerprint(const FleetSpec& spec) {
  std::ostringstream out;
  out << "fleet-v" << kFormatVersion << "|" << spec.name << "|" << spec.master_seed;
  for (const FleetCohort& cohort : spec.cohorts) {
    out << "|name=" << cohort.name << ";os=" << cohort.os << ";prio=" << cohort.priority
        << ";count=" << cohort.count << ";minutes=" << HexDouble(cohort.stress_minutes)
        << ";warmup=" << HexDouble(cohort.warmup_seconds)
        << ";pit=" << HexDouble(cohort.pit_hz)
        << ";speed=" << HexDouble(cohort.speed_mhz_lo) << ","
        << HexDouble(cohort.speed_mhz_hi) << ";fault=" << cohort.fault_plan << ","
        << HexDouble(cohort.fault_prob) << ";sketch=" << (cohort.sketch ? 1 : 0)
        << ";episode_us=" << HexDouble(cohort.episode_threshold_us)
        << ";scanner=" << (cohort.options.virus_scanner ? 1 : 0) << ";wl=";
    for (std::size_t i = 0; i < cohort.workloads.size(); ++i) {
      out << (i == 0 ? "" : ",") << cohort.workloads[i];
      if (i < cohort.workload_weights.size()) {
        out << "*" << HexDouble(cohort.workload_weights[i]);
      }
    }
  }
  return Fnv1a64(out.str());
}

Fleet::Fleet(FleetSpec spec) : spec_(std::move(spec)) {
  if (spec_.cohorts.empty()) {
    error_ = "fleet spec has no cohorts";
    return;
  }
  cohort_begin_.reserve(spec_.cohorts.size() + 1);
  cohort_begin_.push_back(0);
  plans_.resize(spec_.cohorts.size());
  for (std::size_t c = 0; c < spec_.cohorts.size(); ++c) {
    const FleetCohort& cohort = spec_.cohorts[c];
    const std::string problem = ValidateCohort(cohort, c);
    if (!problem.empty()) {
      error_ = problem;
      return;
    }
    if (!cohort.fault_plan.empty()) {
      fault::FindBuiltinPlan(cohort.fault_plan, &plans_[c]);
    }
    cohort_begin_.push_back(cohort_begin_.back() + cohort.count);
  }
  cell_count_ = cohort_begin_.back();
  fingerprint_ = FleetFingerprint(spec_);
}

FleetCell Fleet::CellAt(std::uint64_t index) const {
  FleetCell cell;
  cell.index = index;
  // Cohorts are few; a linear scan beats a binary search's branch misses.
  std::size_t c = 0;
  while (c + 1 < cohort_begin_.size() && index >= cohort_begin_[c + 1]) {
    ++c;
  }
  cell.cohort = c;
  cell.member = index - cohort_begin_[c];
  cell.seed = FleetCellSeed(spec_.master_seed, c, cell.member);

  // Per-member draws ride a separate tagged stream so they can never skew
  // the simulation's RNG, and the draw *count* stays fixed (three draws per
  // member) so adding a prior later shifts nothing that exists today.
  const FleetCohort& cohort = spec_.cohorts[c];
  std::uint64_t state = cell.seed ^ kDrawSeedTag;
  sim::Rng draws(sim::SplitMix64(state));
  const double u_speed = draws.NextDouble();
  const double u_workload = draws.NextDouble();
  const double u_fault = draws.NextDouble();

  if (cohort.speed_mhz_hi > cohort.speed_mhz_lo) {
    const double log_lo = std::log(cohort.speed_mhz_lo);
    const double log_hi = std::log(cohort.speed_mhz_hi);
    cell.speed_mhz = std::exp(log_lo + u_speed * (log_hi - log_lo));
  } else {
    cell.speed_mhz = cohort.speed_mhz_lo;
  }

  if (cohort.workloads.size() > 1) {
    if (cohort.workload_weights.empty()) {
      cell.workload_index = std::min(
          cohort.workloads.size() - 1,
          static_cast<std::size_t>(u_workload *
                                   static_cast<double>(cohort.workloads.size())));
    } else {
      double total = 0.0;
      for (const double w : cohort.workload_weights) {
        total += w;
      }
      double target = u_workload * total;
      std::size_t pick = 0;
      while (pick + 1 < cohort.workload_weights.size()) {
        target -= cohort.workload_weights[pick];
        if (target < 0.0) {
          break;
        }
        ++pick;
      }
      cell.workload_index = pick;
    }
  }

  cell.fault_active = cohort.fault_prob > 0.0 && u_fault < cohort.fault_prob;
  return cell;
}

LabConfig Fleet::CellConfig(const FleetCell& cell) const {
  const FleetCohort& cohort = spec_.cohorts[cell.cohort];
  LabConfig config;
  OsProfileByName(cohort.os, &config.os);
  ScaleProfileForSpeed(&config.os, cell.speed_mhz);
  WorkloadByName(cohort.workloads[cell.workload_index], &config.stress);
  config.thread_priority = cohort.priority;
  config.stress_minutes = cohort.stress_minutes;
  config.warmup_seconds = cohort.warmup_seconds;
  // Sampling rate: reprogram the PIT to the cohort's rate and keep
  // ARBITRARY_DELAY at exactly one tick (1 ms at the paper's 1 kHz).
  config.driver.pit_hz = cohort.pit_hz;
  config.driver.timer_delay_ms = 1000.0 / cohort.pit_hz;
  config.seed = cell.seed;
  config.options = cohort.options;
  config.obs.sketch = cohort.sketch;
  if (cohort.episode_threshold_us > 0.0) {
    config.obs.episode_threshold_us = cohort.episode_threshold_us;
    config.obs.anatomy = true;
  }
  if (cell.fault_active) {
    config.faults = &plans_[cell.cohort];
  }
  return config;
}

// --- Spec JSON ---------------------------------------------------------------

namespace {

constexpr const char* kCohortFields[] = {
    "name", "os", "workloads", "workload_weights", "priority", "count",
    "stress_minutes", "warmup_seconds", "pit_hz", "speed_mhz", "fault_plan",
    "fault_prob", "sketch", "episode_threshold_us", "virus_scanner"};

// One cohort object at `in`, members in any order, every one optional.
bool ReadCohort(obs::JsonCursor& in, FleetCohort* cohort) {
  return ReadFields(in, kCohortFields, 0, "cohort", [&](std::size_t field) {
    switch (field) {
      case 0:
        return in.ReadString(&cohort->name);
      case 1:
        return in.ReadString(&cohort->os);
      case 2:
        cohort->workloads.clear();
        return ReadArray(in, [&] { return in.ReadString(&cohort->workloads.emplace_back()); });
      case 3:
        return ReadArray(in, [&] {
          return in.ReadNumber(&cohort->workload_weights.emplace_back());
        });
      case 4: {
        in.Peek();
        const std::size_t at = in.offset();
        std::uint64_t priority = 0;
        if (!ReadIndex(in, "priority", kernel::kMaxPriority + 1.0, &priority)) {
          return false;
        }
        cohort->priority = static_cast<int>(priority);
        return cohort->priority >= kernel::kMinRealTimePriority ||
               in.FailAt(at, "field \"priority\" must be a real-time priority (16..31)");
      }
      case 5:
        return ReadIndex(in, "count", kMaxExactInteger, &cohort->count);
      case 6:
        return in.ReadNumber(&cohort->stress_minutes);
      case 7:
        return in.ReadNumber(&cohort->warmup_seconds);
      case 8:
        return in.ReadNumber(&cohort->pit_hz);
      case 9:
        if (in.Peek() == obs::JsonCursor::Kind::kNumber) {
          const bool ok = in.ReadNumber(&cohort->speed_mhz_lo);
          cohort->speed_mhz_hi = cohort->speed_mhz_lo;
          return ok;
        }
        if (in.Peek() != obs::JsonCursor::Kind::kArray) {
          return in.Fail("field \"speed_mhz\" must be a number or [lo, hi]");
        }
        return ReadFixedArray(in, 2, "speed_mhz", [&](std::size_t i) {
          return in.ReadNumber(i == 0 ? &cohort->speed_mhz_lo : &cohort->speed_mhz_hi);
        });
      case 10:
        return in.ReadString(&cohort->fault_plan);
      case 11:
        return in.ReadNumber(&cohort->fault_prob);
      case 12:
        return in.ReadBool(&cohort->sketch);
      case 13:
        return in.ReadNumber(&cohort->episode_threshold_us);
      default:
        return in.ReadBool(&cohort->options.virus_scanner);
    }
  });
}

}  // namespace

bool FleetSpecFromJson(std::string_view text, FleetSpec* spec, std::string* error) {
  *spec = FleetSpec{};
  static constexpr const char* kSpecFields[] = {"name", "master_seed", "cohorts"};
  FleetSpec result;
  obs::JsonCursor in(text);
  std::uint64_t cells = 0;
  const bool read = ReadFields(in, kSpecFields, 0x4, "fleet spec", [&](std::size_t field) {
    switch (field) {
      case 0:
        return in.ReadString(&result.name);
      case 1:
        return ReadIndex(in, "master_seed", kMaxExactInteger, &result.master_seed);
      default: {
        in.Peek();  // offsets below point at a value, not the whitespace before it
        const std::size_t at = in.offset();
        const bool cohorts = ReadArray(in, [&] {
          in.Peek();
          const std::size_t cohort_at = in.offset();
          FleetCohort cohort;
          cohort.name = "cohort" + std::to_string(result.cohorts.size());
          if (!ReadCohort(in, &cohort)) {
            return false;
          }
          const std::string problem = ValidateCohort(cohort, result.cohorts.size());
          if (!problem.empty()) {
            return in.FailAt(cohort_at, problem);
          }
          cells += cohort.count;
          if (cells >= kMaxExactInteger) {
            return in.FailAt(cohort_at, "fleet spec holds 2^53 cells or more");
          }
          result.cohorts.push_back(std::move(cohort));
          return true;
        });
        return cohorts && (!result.cohorts.empty() ||
                           in.FailAt(at, "fleet spec needs a non-empty cohorts array"));
      }
    }
  });
  if (!read || !in.Finish()) {
    if (error != nullptr) {
      std::size_t line = 0;
      std::size_t column = 0;
      in.ErrorLineColumn(&line, &column);
      *error = "fleet spec at line " + std::to_string(line) + ", column " +
               std::to_string(column) + ": " + in.error();
    }
    return false;
  }
  *spec = std::move(result);
  return true;
}

bool LoadFleetSpec(const std::string& path, FleetSpec* spec, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot read fleet spec: " + path;
    }
    return false;
  }
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return FleetSpecFromJson(bytes.str(), spec, error);
}

// --- Record serialization ----------------------------------------------------

namespace {

std::string RecordPayload(const FleetCellRecord& record) {
  const stats::LatencyHistogram::State thread = record.thread.ExportState();
  const stats::LatencyHistogram::State dpc_interrupt = record.dpc_interrupt.ExportState();
  const stats::QuantileSketch::State sketch = record.thread_sketch.ExportState();
  std::string out;
  // Fixed fields plus at most 48 bytes per histogram bucket; the sketch
  // (~450 KB with a full tail) dominates.
  out.reserve(1024 + 48 * (thread.buckets.size() + dpc_interrupt.buckets.size()) +
              report_json::SketchTextBound(sketch));
  out += "{\"format\": \"";
  out += kRecordFormat;
  out += "\", \"version\": ";
  AppendInt(out, kFormatVersion);
  out += ", \"cohort\": ";
  AppendU64(out, record.cohort);
  out += ", \"samples\": \"";
  AppendU64(out, record.samples);
  out += "\", \"stress_hours\": \"";
  AppendHexDouble(out, record.stress_hours);
  out += "\", \"speed_mhz\": \"";
  AppendHexDouble(out, record.speed_mhz);
  out += "\", \"fault_activations\": \"";
  AppendU64(out, record.fault_activations);
  out += "\", \"anatomy_episodes\": \"";
  AppendU64(out, record.anatomy_episodes);
  out += "\", \"anatomy_stage_cycles\": [";
  for (std::size_t s = 0; s < obs::kAnatomyStageCount; ++s) {
    if (s != 0) out += ", ";
    out += '"';
    AppendU64(out, record.anatomy_stage_cycles[s]);
    out += '"';
  }
  out += "], \"histograms\": {";
  AppendHistogram(out, "thread", thread);
  out += ", ";
  AppendHistogram(out, "dpc_interrupt", dpc_interrupt);
  out += "}, ";
  AppendSketch(out, "thread_sketch", sketch);
  out += '}';
  return out;
}

// The record payload fields. Every one is required but the sketch, which
// sketch-free cohorts leave empty.
constexpr const char* kPayloadFields[] = {
    "format",           "version",          "cohort",           "samples",
    "stress_hours",     "speed_mhz",        "fault_activations", "anatomy_episodes",
    "anatomy_stage_cycles", "histograms",   "thread_sketch"};
constexpr unsigned kPayloadRequired = 0x3ff;
constexpr const char* kRecordHistograms[] = {"thread", "dpc_interrupt"};

bool ReadPayload(obs::JsonCursor& in, FleetCellRecord* record) {
  return ReadFields(in, kPayloadFields, kPayloadRequired, "record payload", [&](std::size_t field) {
    switch (field) {
      case 0: {
        std::string_view format;
        return in.ReadString(&format) &&
               (format == kRecordFormat ||
                in.Fail("record payload is not a " + std::string(kRecordFormat) + " document"));
      }
      case 1: {
        double version = 0.0;
        return in.ReadNumber(&version) &&
               (version == kFormatVersion ||
                in.Fail("record payload is not a v" + std::to_string(kFormatVersion) + " document"));
      }
      case 2: {
        std::uint64_t cohort = 0;
        const bool ok = ReadIndex(in, "cohort", kMaxExactInteger, &cohort);
        record->cohort = static_cast<std::size_t>(cohort);
        return ok;
      }
      case 3:
        return ReadU64(in, "samples", &record->samples);
      case 4:
        return ReadHexDouble(in, "stress_hours", &record->stress_hours);
      case 5:
        return ReadHexDouble(in, "speed_mhz", &record->speed_mhz);
      case 6:
        return ReadU64(in, "fault_activations", &record->fault_activations);
      case 7:
        return ReadU64(in, "anatomy_episodes", &record->anatomy_episodes);
      case 8:
        return ReadFixedArray(in, obs::kAnatomyStageCount, "anatomy_stage_cycles",
                              [&](std::size_t s) {
                                return ReadU64(in, "anatomy stage cycles",
                                               &record->anatomy_stage_cycles[s]);
                              });
      case 9:
        return ReadFields(in, kRecordHistograms, 0x3, "histograms", [&](std::size_t h) {
          return ReadHistogram(in, kRecordHistograms[h],
                               h == 0 ? &record->thread : &record->dpc_interrupt);
        });
      default:
        return ReadSketch(in, "thread_sketch", &record->thread_sketch);
    }
  });
}

}  // namespace

std::string FleetRecordToLine(const FleetCellRecord& record) {
  const std::string payload = RecordPayload(record);
  std::string out;
  out.reserve(payload.size() + payload.size() / 4 + 96);
  out += "{\"cell\": \"";
  AppendU64(out, record.index);
  out += "\", \"seed\": \"";
  AppendU64(out, record.seed);
  out += "\", \"fingerprint\": \"";
  AppendU64(out, record.fingerprint);
  out += "\", \"checksum\": \"";
  AppendU64(out, Fnv1a64(payload));
  out += "\", \"payload\": \"";
  AppendEscaped(out, payload);
  out += "\"}";
  return out;
}

// One pass unescapes the payload into a buffer kept per thread (a sketch
// record's payload is ~450 KB), the checksum runs over it, and a second
// cursor reads the payload's fields in place: hexfloats parse straight out
// of the buffer, and no JSON tree is built.
bool FleetRecordFromLine(std::string_view line, FleetCellRecord* record,
                         std::string* error) {
  *record = FleetCellRecord{};
  static constexpr const char* kLineFields[] = {"cell", "seed", "fingerprint", "checksum",
                                                "payload"};
  thread_local std::string payload;
  FleetCellRecord result;
  std::uint64_t checksum = 0;
  obs::JsonCursor line_in(line);
  const bool line_read =
      ReadFields(line_in, kLineFields, 0x1f, "record line", [&](std::size_t field) {
        switch (field) {
          case 0:
            return ReadU64(line_in, "cell", &result.index);
          case 1:
            return ReadU64(line_in, "seed", &result.seed);
          case 2:
            return ReadU64(line_in, "fingerprint", &result.fingerprint);
          case 3:
            return ReadU64(line_in, "checksum", &checksum);
          default:
            return line_in.ReadString(&payload);
        }
      });
  if (!line_read || !line_in.Finish()) {
    if (error != nullptr) {
      *error = "record line is not a valid record: " + line_in.error();
    }
    return false;
  }
  if (Fnv1a64(payload) != checksum) {
    if (error != nullptr) {
      *error = "record payload checksum mismatch (torn or corrupt line)";
    }
    return false;
  }
  obs::JsonCursor in(payload);
  if (!ReadPayload(in, &result) || !in.Finish()) {
    if (error != nullptr) {
      *error = "record payload at offset " + std::to_string(in.error_offset()) + ": " +
               in.error();
    }
    return false;
  }
  *record = std::move(result);
  return true;
}

// --- Warm cell runner --------------------------------------------------------

WarmCellRunner::WarmCellRunner() = default;
WarmCellRunner::~WarmCellRunner() = default;

LabReport WarmCellRunner::Run(const LabConfig& config) {
  if (system_ == nullptr) {
    system_ = std::make_unique<TestSystem>(config.os, config.seed, config.options);
    ++constructions_;
  } else {
    system_->Reset(config.os, config.seed, config.options);
    ++resets_;
  }
  return RunLatencyExperimentOn(*system_, config);
}

// --- Shard runner ------------------------------------------------------------

std::string FleetShardPath(const std::string& dir, std::size_t shard, std::size_t shards) {
  return dir + "/shard_" + std::to_string(shard) + "_of_" + std::to_string(shards) +
         ".jsonl";
}

namespace {

// Why a verified record for an in-range cell cannot stand for that cell
// under `fleet`'s spec, or nullptr when it can.
const char* StaleRecord(const Fleet& fleet, const FleetCellRecord& record) {
  if (record.seed != fleet.CellAt(record.index).seed) {
    return "record seed mismatch";
  }
  if (record.fingerprint != fleet.fingerprint()) {
    return "record written under another spec";
  }
  return nullptr;
}

FleetCellRecord MakeRecord(const Fleet& fleet, const FleetCell& cell, const LabConfig& config,
                           const LabReport& report) {
  FleetCellRecord record;
  record.index = cell.index;
  record.cohort = cell.cohort;
  record.seed = cell.seed;
  record.fingerprint = fleet.fingerprint();
  record.samples = report.samples;
  // Same recovery the matrix merge uses: total samples over the measured
  // rate gives the driver's true stress-hours, falling back to the nominal
  // duration for sample-free cells.
  record.stress_hours = report.samples_per_hour > 0.0
                            ? static_cast<double>(report.samples) / report.samples_per_hour
                            : config.stress_minutes / 60.0;
  record.speed_mhz = cell.speed_mhz;
  record.fault_activations = report.fault_activations;
  record.anatomy_episodes = report.anatomy.size();
  for (const obs::AnatomyEpisode& episode : report.anatomy) {
    for (std::size_t s = 0; s < obs::kAnatomyStageCount; ++s) {
      record.anatomy_stage_cycles[s] += episode.stage_cycles[s];
    }
  }
  record.thread = report.thread;
  record.dpc_interrupt = report.dpc_interrupt;
  record.thread_sketch = report.thread_sketch;
  return record;
}

// In-order record writer: cells complete in any order (jobs > 1), lines
// leave in global-index order. Pending lines are bounded by the job count,
// so the reorder buffer never grows with the shard.
class OrderedShardWriter {
 public:
  OrderedShardWriter(std::ostream& out, std::vector<std::uint64_t> indices)
      : out_(out), indices_(std::move(indices)) {}

  // `restored` is sorted; those indices are satisfied from `restored_lines`
  // (the resume stream) instead of the pending map.
  void SetRestored(const std::vector<std::uint64_t>* restored,
                   std::function<bool(std::string*)> next_restored_line) {
    restored_ = restored;
    next_restored_line_ = std::move(next_restored_line);
  }

  bool Complete(std::uint64_t index, std::string line, std::string* error) {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.emplace(index, std::move(line));
    return Drain(error);
  }

  // Flush restored-only prefixes/suffixes (call once after all cells ran).
  bool Finish(std::string* error) {
    std::lock_guard<std::mutex> lock(mutex_);
    return Drain(error);
  }

  std::size_t written() const { return next_; }

 private:
  bool IsRestored(std::uint64_t index) const {
    return restored_ != nullptr &&
           std::binary_search(restored_->begin(), restored_->end(), index);
  }

  bool Drain(std::string* error) {
    while (next_ < indices_.size()) {
      const std::uint64_t index = indices_[next_];
      if (IsRestored(index)) {
        std::string line;
        if (!next_restored_line_(&line)) {
          *error = "resume stream ended before restored cell " + std::to_string(index);
          return false;
        }
        out_ << line << "\n";
      } else {
        auto it = pending_.find(index);
        if (it == pending_.end()) {
          break;  // waiting for an in-flight cell
        }
        out_ << it->second << "\n";
        pending_.erase(it);
      }
      ++next_;
      // Flush in batches, not per line: a flush is a write() syscall, and at
      // population scale one-per-cell costs as much as the cell itself. A
      // kill loses at most the last unflushed batch — those cells simply
      // re-run on resume, which the torn-line recovery already covers.
      if (next_ % kFlushBatch == 0) {
        out_.flush();
      }
    }
    if (next_ == indices_.size()) {
      out_.flush();
    }
    if (!out_) {
      *error = "shard record write failed";
      return false;
    }
    return true;
  }

  static constexpr std::size_t kFlushBatch = 32;

  std::ostream& out_;
  std::vector<std::uint64_t> indices_;  // this shard's cells, ascending
  const std::vector<std::uint64_t>* restored_ = nullptr;
  std::function<bool(std::string*)> next_restored_line_;
  std::mutex mutex_;
  std::map<std::uint64_t, std::string> pending_;
  std::size_t next_ = 0;
};

}  // namespace

FleetShardResult RunFleetShard(const Fleet& fleet, const FleetShardOptions& options) {
  using Clock = std::chrono::steady_clock;
  FleetShardResult result;
  if (!fleet.error().empty()) {
    result.error = fleet.error();
    return result;
  }
  if (options.shards == 0 || options.shard >= options.shards) {
    result.error = "shard index must satisfy 0 <= shard < shards";
    return result;
  }
  if (options.out_path.empty()) {
    result.error = "fleet shard needs an output path";
    return result;
  }
  if (options.chaos_delay_ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<long>(options.chaos_delay_ms * 1000.0)));
  }

  // The shard's scope this run: stride cells inside [cell_lo, cell_hi),
  // minus quarantined cells. A bisection probe narrows the window; the
  // quarantine manifest removes isolated cells for good.
  const std::uint64_t window_hi = options.cell_hi == 0
                                      ? fleet.cell_count()
                                      : std::min<std::uint64_t>(options.cell_hi,
                                                                fleet.cell_count());
  std::vector<std::uint64_t> scope;
  for (std::uint64_t i = options.shard; i < fleet.cell_count(); i += options.shards) {
    if (i < options.cell_lo || i >= window_hi) {
      continue;
    }
    if (std::binary_search(options.skip_cells.begin(), options.skip_cells.end(), i)) {
      continue;
    }
    scope.push_back(i);
  }
  result.cells_total = scope.size();

  // --- Resume pass: trust nothing — a kept record must parse, checksum, and
  // carry the seed this spec derives for its cell. The file is index-sorted
  // by the write contract; anything after an out-of-order line is suspect
  // and re-runs.
  std::vector<std::uint64_t> restored;
  {
    std::ifstream in(options.out_path, std::ios::binary);
    if (in) {
      std::string line;
      std::uint64_t last_index = 0;
      bool first = true;
      while (std::getline(in, line)) {
        if (line.empty()) {
          continue;
        }
        FleetCellRecord record;
        std::string parse_error;
        if (!FleetRecordFromLine(line, &record, &parse_error)) {
          result.warnings.push_back("shard record rejected (" + parse_error +
                                    "); re-running that cell");
          continue;
        }
        if (!first && record.index <= last_index) {
          result.warnings.push_back("shard records out of order at cell " +
                                    std::to_string(record.index) +
                                    "; ignoring the remainder");
          break;
        }
        first = false;
        last_index = record.index;
        if (record.index % options.shards != options.shard ||
            record.index >= fleet.cell_count()) {
          result.warnings.push_back("record for cell " + std::to_string(record.index) +
                                    " does not belong to this shard; dropped");
          continue;
        }
        if (const char* stale = StaleRecord(fleet, record)) {
          result.warnings.push_back("cell " + std::to_string(record.index) + ": " + stale +
                                    "; re-running");
          continue;
        }
        restored.push_back(record.index);
      }
    }
  }
  result.cells_restored = restored.size();

  std::vector<std::uint64_t> missing;
  for (const std::uint64_t index : scope) {
    if (!std::binary_search(restored.begin(), restored.end(), index)) {
      missing.push_back(index);
    }
  }
  if (missing.empty()) {
    // Complete shard: leave the file's bytes exactly as they are.
    return result;
  }

  // The writer emits the union of restored records (wherever they fall —
  // work from earlier probe windows is preserved) and this run's scope, all
  // in ascending global-index order.
  std::vector<std::uint64_t> indices;
  indices.reserve(restored.size() + scope.size());
  std::merge(restored.begin(), restored.end(), scope.begin(), scope.end(),
             std::back_inserter(indices));
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());

  // Output: fresh shards append straight to the final path (batched flush —
  // a killed worker keeps its prefix up to the last flushed batch); partial
  // resumes stream-rewrite old +
  // new records to a temp file and rename, so a second kill still finds the
  // original prefix intact.
  const bool rewrite = !restored.empty();
  const std::string write_path = rewrite ? options.out_path + ".tmp" : options.out_path;
  std::ofstream out(write_path, std::ios::trunc | std::ios::binary);
  if (!out) {
    result.error = "cannot write shard records: " + write_path;
    return result;
  }
  std::ifstream resume_stream;
  OrderedShardWriter writer(out, indices);
  if (rewrite) {
    resume_stream.open(options.out_path, std::ios::binary);
    // Re-verify nothing on the second pass: emit the byte-identical lines of
    // the records the first pass already verified, skipping rejected ones.
    auto* stream = &resume_stream;
    auto* fleet_ptr = &fleet;
    auto* opts = &options;
    writer.SetRestored(&restored, [stream, fleet_ptr, opts](std::string* line) {
      std::string candidate;
      while (std::getline(*stream, candidate)) {
        if (candidate.empty()) {
          continue;
        }
        FleetCellRecord record;
        std::string parse_error;
        if (!FleetRecordFromLine(candidate, &record, &parse_error)) {
          continue;
        }
        if (record.index >= fleet_ptr->cell_count() ||
            record.index % opts->shards != opts->shard ||
            StaleRecord(*fleet_ptr, record) != nullptr) {
          continue;
        }
        *line = std::move(candidate);
        return true;
      }
      return false;
    });
  }

  runtime::Supervisor supervisor(options.supervision);
  std::mutex result_mutex;
  std::string write_error;
  const Clock::time_point run_start = Clock::now();
  runtime::ParallelFor(options.jobs, missing.size(), [&](std::size_t w) {
    {
      std::lock_guard<std::mutex> lock(result_mutex);
      if (!write_error.empty()) {
        return;  // the shard file is already broken; don't waste the cells
      }
    }
    const std::uint64_t index = missing[w];
    const FleetCell cell = fleet.CellAt(index);
    // One warmed machine per pool worker, reused across every cell the
    // worker runs this call — the amortized-setup half of the tentpole.
    thread_local WarmCellRunner runner;
    std::string line;
    const auto body = [&](runtime::Watchdog& watchdog) {
      if (options.poison_cell >= 0 &&
          index == static_cast<std::uint64_t>(options.poison_cell)) {
        // Poisoned-cell fixture: take the whole process down, like a wild
        // write would — the in-process exception barrier cannot catch this.
        std::abort();
      }
      LabConfig config = fleet.CellConfig(cell);
      if (watchdog.armed()) {
        config.supervision.watchdog = &watchdog;
      }
      config.supervision.audit_every_s = options.audit_every_s;
      config.supervision.audit_at_end = options.audit_every_s > 0.0;
      const LabReport report = runner.Run(config);
      line = FleetRecordToLine(MakeRecord(fleet, cell, config, report));
    };
    const std::optional<runtime::CellFailure> failure =
        supervisor.RunCell(static_cast<std::size_t>(index), cell.seed, body);
    std::lock_guard<std::mutex> lock(result_mutex);
    ++result.cells_executed;
    if (failure) {
      result.failures.push_back(*failure);
    } else {
      std::string error;
      if (!writer.Complete(index, std::move(line), &error)) {
        if (write_error.empty()) {
          write_error = error;
        }
      }
    }
    if (options.chaos_kill_after_cells > 0 &&
        result.cells_executed >= options.chaos_kill_after_cells) {
      // Host-chaos fixture: die the way a crashing host does — mid-run,
      // after an arbitrary number of flushes, with no cleanup.
      raise(SIGKILL);
    }
    if (options.on_cell_done) {
      options.on_cell_done(cell, !failure);
    }
  });
  {
    std::string error;
    if (write_error.empty() && !writer.Finish(&error)) {
      write_error = error;
    }
  }
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - run_start).count();
  if (!write_error.empty()) {
    result.error = write_error;
    return result;
  }
  out.flush();
  out.close();
  if (rewrite) {
    resume_stream.close();
    if (!result.failures.empty()) {
      // Keep the original file: the rewrite is incomplete and the original
      // still holds every verified record for the next resume.
      std::remove(write_path.c_str());
    } else if (std::rename(write_path.c_str(), options.out_path.c_str()) != 0) {
      result.error = "cannot rename " + write_path + " over " + options.out_path;
    }
  }
  return result;
}

// --- Quarantine manifest -----------------------------------------------------

bool LoadFleetQuarantine(const std::string& path,
                         std::vector<FleetQuarantineEntry>* entries,
                         std::string* error) {
  entries->clear();
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot read quarantine manifest: " + path;
    }
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    static constexpr const char* kFields[] = {"cell", "seed", "taxonomy", "attempts"};
    FleetQuarantineEntry entry;
    obs::JsonCursor in(line);
    const bool read = ReadFields(in, kFields, 0x7, "quarantine line", [&](std::size_t field) {
      switch (field) {
        case 0:
          return ReadU64(in, "cell", &entry.cell);
        case 1:
          return ReadU64(in, "seed", &entry.seed);
        case 2:
          return in.ReadString(&entry.taxonomy) &&
                 (!entry.taxonomy.empty() || in.Fail("empty taxonomy"));
        default: {
          std::uint64_t attempts = 0;
          const bool ok = ReadIndex(in, "attempts", 2147483648.0, &attempts);
          entry.attempts = static_cast<int>(attempts);
          return ok;
        }
      }
    });
    if (!read || !in.Finish()) {
      if (error != nullptr) {
        std::size_t line_in_text = 0;
        std::size_t column = 0;
        in.ErrorLineColumn(&line_in_text, &column);
        *error = path + ": line " + std::to_string(line_no) + ", column " +
                 std::to_string(column) + ": " + in.error();
      }
      return false;
    }
    entries->push_back(std::move(entry));
  }
  std::sort(entries->begin(), entries->end(),
            [](const FleetQuarantineEntry& a, const FleetQuarantineEntry& b) {
              return a.cell < b.cell;
            });
  return true;
}

bool SaveFleetQuarantine(const std::string& path,
                         const std::vector<FleetQuarantineEntry>& entries,
                         std::string* error) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) {
      if (error != nullptr) {
        *error = "cannot write quarantine manifest: " + tmp;
      }
      return false;
    }
    for (const FleetQuarantineEntry& entry : entries) {
      out << "{\"cell\": \"" << U64String(entry.cell) << "\", \"seed\": \""
          << U64String(entry.seed) << "\", \"taxonomy\": \"" << Escape(entry.taxonomy)
          << "\", \"attempts\": " << entry.attempts << "}\n";
    }
    out.flush();
    if (!out) {
      if (error != nullptr) {
        *error = "quarantine manifest write failed: " + tmp;
      }
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) {
      *error = "cannot rename " + tmp + " over " + path;
    }
    return false;
  }
  return true;
}

// --- Speculative stitch ------------------------------------------------------

bool StitchShardFiles(const Fleet& fleet, std::size_t shard, std::size_t shards,
                      const std::string& main_path, const std::string& extra_path,
                      std::string* error) {
  if (!fleet.error().empty()) {
    if (error != nullptr) {
      *error = fleet.error();
    }
    return false;
  }
  // Verified record lines from both files, main winning duplicates
  // (map::emplace keeps the first insertion). Torn or foreign lines are
  // skipped — the completion run's resume pass is the final authority.
  std::map<std::uint64_t, std::string> lines;
  const auto collect = [&](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) {
        continue;
      }
      FleetCellRecord record;
      std::string parse_error;
      if (!FleetRecordFromLine(line, &record, &parse_error)) {
        continue;
      }
      if (record.index >= fleet.cell_count() || record.index % shards != shard ||
          StaleRecord(fleet, record) != nullptr) {
        continue;
      }
      lines.emplace(record.index, line);
    }
  };
  collect(main_path);
  collect(extra_path);
  const std::string tmp = main_path + ".stitch";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) {
      if (error != nullptr) {
        *error = "cannot write stitched shard: " + tmp;
      }
      return false;
    }
    for (const auto& [index, line] : lines) {
      out << line << "\n";
    }
    out.flush();
    if (!out) {
      if (error != nullptr) {
        *error = "stitched shard write failed: " + tmp;
      }
      return false;
    }
  }
  if (std::rename(tmp.c_str(), main_path.c_str()) != 0) {
    if (error != nullptr) {
      *error = "cannot rename " + tmp + " over " + main_path;
    }
    return false;
  }
  return true;
}

// --- Streaming merge ---------------------------------------------------------

bool MergeFleetShards(const Fleet& fleet, const std::vector<std::string>& shard_paths,
                      FleetReport* report, std::string* error) {
  return MergeFleetShards(fleet, shard_paths, FleetMergeOptions{}, report, error);
}

bool MergeFleetShards(const Fleet& fleet, const std::vector<std::string>& shard_paths,
                      const FleetMergeOptions& merge_options, FleetReport* report,
                      std::string* error) {
  *report = FleetReport{};
  if (!fleet.error().empty()) {
    if (error != nullptr) {
      *error = fleet.error();
    }
    return false;
  }
  if (shard_paths.empty()) {
    if (error != nullptr) {
      *error = "merge needs at least one shard path";
    }
    return false;
  }
  const std::size_t shards = shard_paths.size();
  std::vector<std::ifstream> streams(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    streams[k].open(shard_paths[k], std::ios::binary);
    if (!streams[k]) {
      if (error != nullptr) {
        *error = "cannot read shard file: " + shard_paths[k];
      }
      return false;
    }
  }

  FleetReport result;
  result.name = fleet.spec().name;
  result.fingerprint = fleet.fingerprint();
  result.cells = fleet.cell_count();
  result.cohorts.resize(fleet.spec().cohorts.size());
  for (std::size_t c = 0; c < fleet.spec().cohorts.size(); ++c) {
    result.cohorts[c].name = fleet.spec().cohorts[c].name;
    result.cohorts[c].os = fleet.spec().cohorts[c].os;
    result.cohorts[c].priority = fleet.spec().cohorts[c].priority;
    result.cohorts[c].planned = fleet.spec().cohorts[c].count;
  }

  const bool degraded = merge_options.allow_degraded;
  std::map<std::uint64_t, const FleetQuarantineEntry*> expected_quarantine;
  for (const FleetQuarantineEntry& q : merge_options.quarantined) {
    expected_quarantine.emplace(q.cell, &q);
  }
  const auto add_quarantine = [&result](FleetQuarantineEntry entry) {
    ++result.cells_quarantined;
    if (entry.cohort < result.cohorts.size()) {
      ++result.cohorts[entry.cohort].quarantined;
    }
    result.quarantine.push_back(std::move(entry));
  };
  const auto warn = [&result](std::string what) {
    result.merge_warnings.push_back(std::move(what));
  };

  // One buffered (parsed, checksummed) record per stream: the lookahead that
  // lets the degraded merge distinguish a duplicate/stale record from a
  // missing one without losing round-robin alignment.
  struct BufferedRecord {
    bool has = false;
    FleetCellRecord record;
  };
  std::vector<BufferedRecord> buffered(shards);

  // One line buffer for the whole merge: a sketch record's line is ~520 KB,
  // and getline into a fresh string regrows it every time.
  std::string line;
  // Global grid order: cell i lives at the front of stream i % shards, so
  // the k-way merge is a round-robin walk. Folding in this one fixed order —
  // whatever shard/job split produced the files — is what makes the merged
  // floating-point sums and sketch states bit-identical.
  for (std::uint64_t index = 0; index < fleet.cell_count(); ++index) {
    const std::size_t k = index % shards;
    std::ifstream& in = streams[k];
    const auto fail = [&](const std::string& what) {
      if (error != nullptr) {
        *error = "cell " + std::to_string(index) + " (shard " + std::to_string(k) +
                 "): " + what;
      }
      return false;
    };
    // The reason the last dropped line would explain this cell's gap.
    std::string drop_reason;
    std::string fatal;
    const auto fill = [&]() -> bool {  // false = strict-mode parse failure
      while (!buffered[k].has) {
        line.clear();
        while (std::getline(in, line)) {
          if (!line.empty()) {
            break;
          }
        }
        if (line.empty()) {
          return true;  // stream exhausted
        }
        FleetCellRecord record;
        std::string parse_error;
        if (!FleetRecordFromLine(line, &record, &parse_error)) {
          if (!degraded) {
            fatal = parse_error;
            return false;
          }
          drop_reason = parse_error.find("checksum mismatch") != std::string::npos
                            ? "checksum_mismatch"
                            : "corrupt_record";
          warn("shard " + std::to_string(k) + ": dropped line (" + parse_error + ")");
          continue;
        }
        buffered[k].has = true;
        buffered[k].record = std::move(record);
      }
      return true;
    };
    if (!fill()) {
      return fail(fatal);
    }
    if (degraded) {
      // Duplicate or out-of-order records sort behind the cursor: stale.
      while (buffered[k].has && buffered[k].record.index < index) {
        warn("shard " + std::to_string(k) + ": stale record for cell " +
             std::to_string(buffered[k].record.index) +
             " (duplicate or out of order); dropped");
        buffered[k].has = false;
        if (!fill()) {
          return fail(fatal);
        }
      }
    }

    const auto it_expected = expected_quarantine.find(index);
    const bool have = buffered[k].has && buffered[k].record.index == index;
    if (!have) {
      if (it_expected != expected_quarantine.end()) {
        // A cell the supervisor already isolated: an expected gap in both
        // strict and degraded mode, reported with its manifest taxonomy.
        FleetQuarantineEntry entry = *it_expected->second;
        entry.cohort = fleet.CellAt(index).cohort;
        add_quarantine(std::move(entry));
        continue;
      }
      if (!degraded) {
        if (!buffered[k].has) {
          return fail("missing record — incomplete shard, re-run it");
        }
        return fail("record is for cell " + std::to_string(buffered[k].record.index) +
                    " — shard file out of order");
      }
      const FleetCell cell = fleet.CellAt(index);
      FleetQuarantineEntry entry;
      entry.cell = index;
      entry.seed = cell.seed;
      entry.cohort = cell.cohort;
      entry.taxonomy = drop_reason.empty() ? "missing_record" : drop_reason;
      entry.attempts = 1;
      warn("cell " + std::to_string(index) + " (shard " + std::to_string(k) +
           ") quarantined by degraded merge: " + entry.taxonomy);
      add_quarantine(std::move(entry));
      continue;
    }

    FleetCellRecord record = std::move(buffered[k].record);
    buffered[k].has = false;
    const FleetCell cell = fleet.CellAt(index);
    const bool seed_mismatch = record.seed != cell.seed || record.cohort != cell.cohort;
    if (seed_mismatch || record.fingerprint != fleet.fingerprint()) {
      if (!degraded) {
        return fail(seed_mismatch ? "record seed/cohort does not match this spec"
                                  : "record was written under another spec (fingerprint " +
                                        std::to_string(record.fingerprint) + ")");
      }
      FleetQuarantineEntry entry;
      entry.cell = index;
      entry.seed = cell.seed;
      entry.cohort = cell.cohort;
      entry.taxonomy = seed_mismatch ? "seed_mismatch" : "spec_mismatch";
      entry.attempts = 1;
      warn("cell " + std::to_string(index) + " (shard " + std::to_string(k) +
           ") quarantined by degraded merge: " + entry.taxonomy);
      add_quarantine(std::move(entry));
      continue;
    }
    if (it_expected != expected_quarantine.end()) {
      // The manifest says poisoned, yet a verified record exists (an earlier
      // attempt completed it before the cell turned): keep the data, report
      // the disagreement.
      warn("cell " + std::to_string(index) +
           " is quarantined in the manifest but has a valid record; folding it");
    }
    FleetCohortReport& cohort = result.cohorts[record.cohort];
    if (cohort.cells == 0) {
      cohort.speed_mhz_min = record.speed_mhz;
      cohort.speed_mhz_max = record.speed_mhz;
    } else {
      cohort.speed_mhz_min = std::min(cohort.speed_mhz_min, record.speed_mhz);
      cohort.speed_mhz_max = std::max(cohort.speed_mhz_max, record.speed_mhz);
    }
    ++cohort.cells;
    cohort.counters.Merge(stats::SampleCounters{record.samples, record.stress_hours});
    cohort.thread.Merge(record.thread);
    cohort.dpc_interrupt.Merge(record.dpc_interrupt);
    cohort.thread_sketch.Merge(record.thread_sketch);
    cohort.fault_cells += record.fault_activations > 0 ? 1 : 0;
    cohort.fault_activations += record.fault_activations;
    cohort.anatomy_episodes += record.anatomy_episodes;
    for (std::size_t s = 0; s < obs::kAnatomyStageCount; ++s) {
      cohort.anatomy_stage_cycles[s] += record.anatomy_stage_cycles[s];
    }
    cohort.speed_mhz_sum += record.speed_mhz;
    ++result.cells_completed;
  }
  // Conservation audit, matrix-style: completed + quarantined must cover the
  // plan exactly — the fold above is the only writer, so a mismatch can only
  // mean broken merge arithmetic.
  for (std::size_t c = 0; c < result.cohorts.size(); ++c) {
    const FleetCohortReport& cohort = result.cohorts[c];
    if (cohort.cells + cohort.quarantined != cohort.planned) {
      if (error != nullptr) {
        if (cohort.quarantined == 0) {
          *error = "cohort " + cohort.name + " folded " + std::to_string(cohort.cells) +
                   " cells, expected " + std::to_string(cohort.planned);
        } else {
          *error = "cohort " + cohort.name + " folded " + std::to_string(cohort.cells) +
                   " cells + " + std::to_string(cohort.quarantined) +
                   " quarantined, expected " + std::to_string(cohort.planned);
        }
      }
      return false;
    }
  }
  *report = std::move(result);
  return true;
}

std::string FleetReportToJson(const FleetReport& report) {
  std::string out;
  out += "{\"format\": \"";
  out += kReportFormat;
  out += "\", \"version\": ";
  AppendInt(out, kFormatVersion);
  out += ",\n\"name\": \"";
  AppendEscaped(out, report.name);
  out += "\", \"fingerprint\": \"";
  AppendU64(out, report.fingerprint);
  out += "\", \"cells\": \"";
  AppendU64(out, report.cells);
  out += "\",\n\"cells_completed\": \"";
  AppendU64(out, report.cells_completed);
  out += "\", \"cells_quarantined\": \"";
  AppendU64(out, report.cells_quarantined);
  out += "\",\n\"quarantine\": [";
  for (std::size_t q = 0; q < report.quarantine.size(); ++q) {
    const FleetQuarantineEntry& entry = report.quarantine[q];
    out += q == 0 ? "\n" : ",\n";
    out += "{\"cell\": \"";
    AppendU64(out, entry.cell);
    out += "\", \"seed\": \"";
    AppendU64(out, entry.seed);
    out += "\", \"cohort\": ";
    AppendU64(out, entry.cohort);
    out += ", \"taxonomy\": \"";
    AppendEscaped(out, entry.taxonomy);
    out += "\", \"attempts\": ";
    AppendInt(out, entry.attempts);
    out += '}';
  }
  out += "],\n\"cohorts\": [";
  for (std::size_t c = 0; c < report.cohorts.size(); ++c) {
    const FleetCohortReport& cohort = report.cohorts[c];
    out += c == 0 ? "\n" : ",\n";
    out += "{\"name\": \"";
    AppendEscaped(out, cohort.name);
    out += "\", \"os\": \"";
    AppendEscaped(out, cohort.os);
    out += "\", \"priority\": ";
    AppendInt(out, cohort.priority);
    out += ", \"planned\": \"";
    AppendU64(out, cohort.planned);
    out += "\", \"cells\": \"";
    AppendU64(out, cohort.cells);
    out += "\", \"quarantined\": \"";
    AppendU64(out, cohort.quarantined);
    out += "\", \"samples\": \"";
    AppendU64(out, cohort.counters.samples);
    out += "\", \"stress_hours\": \"";
    AppendHexDouble(out, cohort.counters.stress_hours);
    out += "\", \"samples_per_hour\": \"";
    AppendHexDouble(out, cohort.counters.SamplesPerHour());
    out += "\",\n";
    // Readable tails for humans and dashboards; the exact states below are
    // the mergeable ground truth.
    char quantiles[256];
    const int written =
        std::snprintf(quantiles, sizeof(quantiles),
                      "\"thread_ms\": {\"p50\": %.6g, \"p99\": %.6g, \"p999\": %.6g, "
                      "\"p9999\": %.6g, \"max\": %.6g},\n",
                      cohort.thread.QuantileMs(0.5), cohort.thread.QuantileMs(0.99),
                      cohort.thread.QuantileMs(0.999), cohort.thread.QuantileMs(0.9999),
                      cohort.thread.max_ms());
    out.append(quantiles, static_cast<std::size_t>(written));
    out += "\"speed_mhz\": {\"min\": \"";
    AppendHexDouble(out, cohort.speed_mhz_min);
    out += "\", \"mean\": \"";
    AppendHexDouble(out, cohort.cells > 0
                             ? cohort.speed_mhz_sum / static_cast<double>(cohort.cells)
                             : 0.0);
    out += "\", \"max\": \"";
    AppendHexDouble(out, cohort.speed_mhz_max);
    out += "\"},\n\"fault_cells\": \"";
    AppendU64(out, cohort.fault_cells);
    out += "\", \"fault_activations\": \"";
    AppendU64(out, cohort.fault_activations);
    out += "\", \"anatomy_episodes\": \"";
    AppendU64(out, cohort.anatomy_episodes);
    out += "\", \"anatomy_stage_cycles\": [";
    for (std::size_t s = 0; s < obs::kAnatomyStageCount; ++s) {
      out += s == 0 ? "\"" : ", \"";
      AppendU64(out, cohort.anatomy_stage_cycles[s]);
      out += '"';
    }
    out += "],\n\"histograms\": {";
    AppendHistogram(out, "thread", cohort.thread.ExportState());
    out += ", ";
    AppendHistogram(out, "dpc_interrupt", cohort.dpc_interrupt.ExportState());
    out += "}, ";
    AppendSketch(out, "thread_sketch", cohort.thread_sketch.ExportState());
    out += '}';
  }
  out += "]}\n";
  return out;
}

}  // namespace wdmlat::lab
