// Fleet population runner: spec parsing and validation, coordinate-only cell
// seeds/draws, engine/pool warm reset, the core amortization guarantee — a
// warmed TestSystem reused across cells produces bit-identical reports to a
// freshly constructed one — and structured per-cell failure in a shard.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <utility>

#include "src/kernel/profile.h"
#include "src/lab/fleet.h"
#include "src/lab/lab.h"
#include "src/lab/report_io.h"
#include "src/sim/engine.h"
#include "src/sim/event_pool.h"
#include "src/workload/stress_profile.h"
#include "tests/temp_dir.h"

namespace wdmlat::lab {
namespace {

FleetSpec TwoCohortSpec() {
  FleetSpec spec;
  spec.name = "test";
  spec.master_seed = 7;
  FleetCohort a;
  a.name = "a";
  a.os = "nt4";
  a.workloads = {"office", "web"};
  a.count = 5;
  a.stress_minutes = 0.002;
  a.warmup_seconds = 0.1;
  a.speed_mhz_lo = 150.0;
  a.speed_mhz_hi = 450.0;
  FleetCohort b;
  b.name = "b";
  b.os = "win98";
  b.workloads = {"games"};
  b.count = 4;
  b.stress_minutes = 0.002;
  b.warmup_seconds = 0.1;
  b.fault_plan = "irq_storm";
  b.fault_prob = 0.5;
  spec.cohorts = {a, b};
  return spec;
}

TEST(FleetSpec, ParsesJsonAndRejectsBadFields) {
  FleetSpec spec;
  std::string error;
  ASSERT_TRUE(FleetSpecFromJson(
      R"({"name": "pop", "master_seed": 11, "cohorts": [
           {"name": "x", "os": "nt4", "workloads": ["office", "games"],
            "workload_weights": [3, 1], "count": 10, "speed_mhz": [100, 400],
            "pit_hz": 4000,
            "fault_plan": "irq_storm", "fault_prob": 0.25, "sketch": true}]})",
      &spec, &error))
      << error;
  EXPECT_EQ(spec.name, "pop");
  EXPECT_EQ(spec.master_seed, 11u);
  ASSERT_EQ(spec.cohorts.size(), 1u);
  EXPECT_EQ(spec.cohorts[0].workloads.size(), 2u);
  EXPECT_EQ(spec.cohorts[0].workload_weights.size(), 2u);
  EXPECT_EQ(spec.cohorts[0].count, 10u);
  EXPECT_DOUBLE_EQ(spec.cohorts[0].speed_mhz_lo, 100.0);
  EXPECT_DOUBLE_EQ(spec.cohorts[0].speed_mhz_hi, 400.0);
  EXPECT_DOUBLE_EQ(spec.cohorts[0].pit_hz, 4000.0);
  EXPECT_TRUE(spec.cohorts[0].sketch);

  // Unknown OS, unknown workload, bad weights, fault_prob without a plan,
  // inverted speed range: each must fail at parse time with a message.
  const char* bad[] = {
      R"({"cohorts": [{"os": "beos"}]})",
      R"({"cohorts": [{"workloads": ["mining"]}]})",
      R"({"cohorts": [{"workloads": ["office", "web"], "workload_weights": [1]}]})",
      R"({"cohorts": [{"fault_prob": 0.5}]})",
      R"({"cohorts": [{"speed_mhz": [400, 100]}]})",
      R"({"cohorts": [{"fault_plan": "not_a_plan", "fault_prob": 0.1}]})",
      R"({"cohorts": [{"pit_hz": -1}]})",
      R"({"cohorts": []})",
      // Integers must be exact, non-negative, below 2^53 and, for the
      // priority, a real-time priority (16..31): no cast may wrap,
      // truncate or round them.
      R"({"cohorts": [{"count": -1}]})",
      R"({"cohorts": [{"count": 2.9}]})",
      R"({"cohorts": [{"count": 9007199254740992}]})",
      R"({"cohorts": [{"count": 1e300}]})",
      R"({"cohorts": [{"count": "4"}]})",
      R"({"master_seed": -5, "cohorts": [{}]})",
      R"({"master_seed": 2.5, "cohorts": [{}]})",
      R"({"master_seed": 18446744073709551615, "cohorts": [{}]})",
      R"({"cohorts": [{"priority": 1e10}]})",
      R"({"cohorts": [{"priority": 15}]})",
      R"({"cohorts": [{"priority": 32}]})",
      R"({"cohorts": [{"priority": 28.5}]})",
      R"({"cohorts": [{"count": 6000000000000000}, {"count": 6000000000000000}]})",
      R"({"cohorts": [{"sketch": 1}]})",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(FleetSpecFromJson(text, &spec, &error)) << text;
    EXPECT_NE(error.find("line 1, column "), std::string::npos) << text << ": " << error;
  }
  EXPECT_FALSE(FleetSpecFromJson("{\"cohorts\": [{\"count\": -1}]}", &spec, &error));
  EXPECT_EQ(error, "fleet spec at line 1, column 24: field \"count\" is not an integer in range");

  // The edges of every range are accepted exactly.
  ASSERT_TRUE(FleetSpecFromJson(
      R"({"master_seed": 9007199254740991, "cohorts": [
           {"priority": 16, "count": 3}, {"priority": 31}]})",
      &spec, &error))
      << error;
  EXPECT_EQ(spec.master_seed, 9007199254740991u);
  EXPECT_EQ(spec.cohorts[0].priority, 16);
  EXPECT_EQ(spec.cohorts[0].count, 3u);
  EXPECT_EQ(spec.cohorts[1].priority, 31);
  EXPECT_EQ(spec.cohorts[1].name, "cohort1");
}

TEST(FleetSpec, FingerprintTracksEverySeedRelevantKnob) {
  const FleetSpec base = TwoCohortSpec();
  const std::uint64_t fp = FleetFingerprint(base);
  EXPECT_EQ(fp, FleetFingerprint(base));  // stable

  FleetSpec mutate = base;
  mutate.master_seed ^= 1;
  EXPECT_NE(fp, FleetFingerprint(mutate));
  mutate = base;
  mutate.cohorts[0].count += 1;
  EXPECT_NE(fp, FleetFingerprint(mutate));
  mutate = base;
  mutate.cohorts[1].fault_prob = 0.6;
  EXPECT_NE(fp, FleetFingerprint(mutate));
  mutate = base;
  mutate.cohorts[0].speed_mhz_hi = 451.0;
  EXPECT_NE(fp, FleetFingerprint(mutate));
  mutate = base;
  mutate.cohorts[0].pit_hz = 4000.0;
  EXPECT_NE(fp, FleetFingerprint(mutate));
}

TEST(FleetCells, SeedsAndDrawsDependOnlyOnCoordinates) {
  const Fleet fleet(TwoCohortSpec());
  ASSERT_TRUE(fleet.error().empty()) << fleet.error();
  ASSERT_EQ(fleet.cell_count(), 9u);

  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < fleet.cell_count(); ++i) {
    const FleetCell cell = fleet.CellAt(i);
    EXPECT_EQ(cell.index, i);
    EXPECT_EQ(cell.seed, FleetCellSeed(7, cell.cohort, cell.member));
    seeds.insert(cell.seed);
    // Materializing twice (or in any order) gives the same member.
    const FleetCell again = fleet.CellAt(i);
    EXPECT_EQ(cell.seed, again.seed);
    EXPECT_EQ(cell.speed_mhz, again.speed_mhz);
    EXPECT_EQ(cell.workload_index, again.workload_index);
    EXPECT_EQ(cell.fault_active, again.fault_active);
    if (cell.cohort == 0) {
      EXPECT_GE(cell.speed_mhz, 150.0);
      EXPECT_LE(cell.speed_mhz, 450.0);
      EXPECT_LT(cell.workload_index, 2u);
      EXPECT_FALSE(cell.fault_active);
    } else {
      EXPECT_DOUBLE_EQ(cell.speed_mhz, 300.0);
      EXPECT_EQ(cell.workload_index, 0u);
    }
  }
  EXPECT_EQ(seeds.size(), fleet.cell_count());  // no collisions in this grid

  // Cohort-1 cells with an active fault get the plan; others run clean.
  for (std::uint64_t i = 5; i < 9; ++i) {
    const FleetCell cell = fleet.CellAt(i);
    const LabConfig config = fleet.CellConfig(cell);
    EXPECT_EQ(config.faults != nullptr, cell.fault_active);
    EXPECT_EQ(config.seed, cell.seed);
  }
}

TEST(FleetCells, SpeedScalingSlowsKernelCosts) {
  FleetSpec spec = TwoCohortSpec();
  spec.cohorts[0].speed_mhz_lo = spec.cohorts[0].speed_mhz_hi = 150.0;
  const Fleet fleet{std::move(spec)};
  ASSERT_TRUE(fleet.error().empty());
  const FleetCell cell = fleet.CellAt(0);
  ASSERT_DOUBLE_EQ(cell.speed_mhz, 150.0);
  const LabConfig config = fleet.CellConfig(cell);
  // A 150 MHz member pays 2x the reference profile's mean costs.
  const kernel::KernelProfile reference = kernel::MakeNt4Profile();
  EXPECT_NEAR(config.os.context_switch_cost.MeanUs(),
              2.0 * reference.context_switch_cost.MeanUs(), 1e-9);
  EXPECT_NEAR(config.os.isr_dispatch_overhead.MeanUs(),
              2.0 * reference.isr_dispatch_overhead.MeanUs(), 1e-9);
  EXPECT_DOUBLE_EQ(config.os.clock_isr_per_timer_us,
                   2.0 * reference.clock_isr_per_timer_us);
  // Rates stay wall-anchored: the clock still ticks at the same Hz.
  EXPECT_DOUBLE_EQ(config.os.default_clock_hz, reference.default_clock_hz);
}

TEST(FleetRecords, LineRoundTripsBitExactAndRejectsCorruption) {
  const Fleet fleet(TwoCohortSpec());
  const FleetCell cell = fleet.CellAt(3);
  WarmCellRunner runner;
  const LabConfig config = fleet.CellConfig(cell);
  const LabReport report = runner.Run(config);

  FleetCellRecord record;
  record.index = cell.index;
  record.cohort = cell.cohort;
  record.seed = cell.seed;
  record.fingerprint = fleet.fingerprint();
  record.samples = report.samples;
  record.stress_hours = 0.25;
  record.speed_mhz = cell.speed_mhz;
  record.thread = report.thread;
  record.dpc_interrupt = report.dpc_interrupt;
  record.anatomy_stage_cycles[2] = 12345;

  const std::string line = FleetRecordToLine(record);
  FleetCellRecord parsed;
  std::string error;
  ASSERT_TRUE(FleetRecordFromLine(line, &parsed, &error)) << error;
  EXPECT_EQ(parsed.index, record.index);
  EXPECT_EQ(parsed.cohort, record.cohort);
  EXPECT_EQ(parsed.seed, record.seed);
  EXPECT_EQ(parsed.fingerprint, fleet.fingerprint());
  EXPECT_EQ(parsed.samples, record.samples);
  EXPECT_EQ(parsed.stress_hours, record.stress_hours);  // hexfloat: exact bits
  EXPECT_EQ(parsed.speed_mhz, record.speed_mhz);
  EXPECT_EQ(parsed.anatomy_stage_cycles[2], 12345u);
  EXPECT_EQ(parsed.thread.ToCsv(), record.thread.ToCsv());
  EXPECT_EQ(parsed.thread.mean_ms(), record.thread.mean_ms());
  EXPECT_EQ(parsed.dpc_interrupt.ToCsv(), record.dpc_interrupt.ToCsv());

  // A flipped payload byte fails the checksum, a truncated line fails parse.
  std::string corrupt = line;
  corrupt[line.size() / 2] ^= 1;
  EXPECT_FALSE(FleetRecordFromLine(corrupt, &parsed, &error));
  EXPECT_FALSE(FleetRecordFromLine(line.substr(0, line.size() - 20), &parsed, &error));
  // A line without the spec fingerprint cannot say which spec wrote it.
  const std::string member = ", \"fingerprint\": \"" + std::to_string(fleet.fingerprint()) + "\"";
  std::string unbound = line;
  ASSERT_NE(unbound.find(member), std::string::npos);
  unbound.erase(unbound.find(member), member.size());
  EXPECT_FALSE(FleetRecordFromLine(unbound, &parsed, &error));
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
}

TEST(EngineReset, ResetEngineBehavesLikeFresh) {
  // Schedule + cancel a pile of events (growing the pool and the far tier),
  // reset, then verify the calendar audits clean and a scripted run fires in
  // the same order as a fresh engine.
  sim::Engine engine;
  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 2000; ++i) {
    handles.push_back(engine.ScheduleAt(
        static_cast<sim::Cycles>(1000 + 77777ull * i), [] {}));
  }
  for (std::size_t i = 0; i < handles.size(); i += 2) {
    handles[i].Cancel();
  }
  engine.RunUntil(50'000'000);
  engine.Reset();
  EXPECT_EQ(engine.now(), 0u);
  EXPECT_EQ(engine.events_processed(), 0u);
  EXPECT_EQ(engine.events_pending(), 0u);
  std::vector<std::string> violations;
  engine.AuditCalendar(&violations);
  EXPECT_TRUE(violations.empty());
  for (const sim::EventHandle& handle : handles) {
    EXPECT_FALSE(handle.pending());  // stale generations read as dead
  }

  // Same script on the reset engine and on a brand-new one: identical order.
  std::vector<int> reset_order;
  std::vector<int> fresh_order;
  const auto script = [](sim::Engine& e, std::vector<int>* order) {
    for (int i = 0; i < 64; ++i) {
      e.ScheduleAt(static_cast<sim::Cycles>(100 + (i * 37) % 500),
                   [order, i] { order->push_back(i); });
    }
    e.RunUntil(10'000);
  };
  script(engine, &reset_order);
  sim::Engine fresh;
  script(fresh, &fresh_order);
  EXPECT_EQ(reset_order, fresh_order);
}

// Every LabReport field, doubles spelled as hexfloats: equal strings mean
// bit-identical reports.
std::string ReportBits(const LabReport& report) {
  using namespace report_json;
  std::string out = report.os_name + "|" + report.workload_name + "|";
  AppendInt(out, report.thread_priority);
  out += report.has_interrupt_latency ? "|irq|" : "|-|";
  AppendU64(out, report.samples);
  out += '|';
  AppendHexDouble(out, report.samples_per_hour);
  out += '|';
  AppendU64(out, report.fault_activations);
  out += '|' + report.usage.category + '|';
  for (const double value :
       {report.usage.compression, report.usage.day_hours, report.usage.week_hours}) {
    AppendHexDouble(out, value);
    out += '|';
  }
  const std::pair<const char*, const stats::LatencyHistogram*> histograms[] = {
      {"dpc_interrupt", &report.dpc_interrupt},
      {"thread", &report.thread},
      {"thread_interrupt", &report.thread_interrupt},
      {"interrupt", &report.interrupt},
      {"isr_to_dpc", &report.isr_to_dpc},
      {"true_pit_interrupt_latency", &report.true_pit_interrupt_latency}};
  for (const auto& [name, histogram] : histograms) {
    AppendHistogram(out, name, histogram->ExportState());
  }
  for (const obs::EpisodeSummary& ep : report.episodes) {
    out += "|episode|";
    for (const double value : {ep.latency_ms, ep.reported_at_ms, ep.true_ms}) {
      AppendHexDouble(out, value);
      out += '|';
    }
    out += ep.true_module + '|' + ep.true_function + '|' + ep.cause_module + '|' +
           ep.cause_function + '|';
    AppendU64(out, ep.cause_samples);
    out += ep.attributed ? "|a" : "|-";
    out += ep.module_match ? "m" : "-";
  }
  const auto blame = [&out](const obs::AnatomyEpisode::Blame& b) {
    out += '|' + b.module + '|' + b.function + '|';
    AppendU64(out, b.cycles);
  };
  for (const obs::AnatomyEpisode& ep : report.anatomy) {
    out += "|anatomy|";
    AppendHexDouble(out, ep.latency_ms);
    out += '|';
    AppendU64(out, ep.window_begin);
    out += '|';
    AppendU64(out, ep.window_end);
    out += ep.truncated ? "|t" : "|-";
    for (std::size_t s = 0; s < obs::kAnatomyStageCount; ++s) {
      out += '|';
      AppendU64(out, ep.stage_cycles[s]);
      blame(ep.stage_blame[s]);
    }
    blame(ep.culprit);
  }
  out += '|';
  AppendSketch(out, "thread_sketch", report.thread_sketch.ExportState());
  return out;
}

TEST(WarmCellRunner, WarmReuseIsBitIdenticalToFreshConstruction) {
  // The amortization guarantee: run a mixed sequence of cells (different OS,
  // workload, speed, faults, episodes, sketches) through ONE warmed runner,
  // and every report field must match a fresh RunLatencyExperiment run bit
  // for bit.
  FleetSpec spec = TwoCohortSpec();
  spec.cohorts[0].episode_threshold_us = 150.0;
  spec.cohorts[1].sketch = true;
  const Fleet fleet(spec);
  ASSERT_TRUE(fleet.error().empty());
  WarmCellRunner runner;
  for (std::uint64_t i = 0; i < fleet.cell_count(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    const FleetCell cell = fleet.CellAt(i);
    const LabConfig config = fleet.CellConfig(cell);
    const LabReport warm = runner.Run(config);
    const LabReport fresh = RunLatencyExperiment(config);
    EXPECT_EQ(ReportBits(warm), ReportBits(fresh));
  }
  EXPECT_EQ(runner.constructions(), 1u);
  EXPECT_EQ(runner.resets(), fleet.cell_count() - 1);
}

TEST(FleetShard, TimedOutCellsFailStructuredWhileOthersComplete) {
  // A cell deadline that only the short cohort fits inside: the long
  // cohort's cells (ten virtual hours each) time out and fail as structured
  // [timeout] failures, while every short cell completes with the same
  // record bytes an unsupervised run of that cell writes.
  FleetSpec spec;
  spec.name = "deadline";
  spec.master_seed = 11;
  FleetCohort quick;
  quick.name = "quick";
  quick.os = "nt4";
  quick.workloads = {"games"};
  quick.count = 3;
  quick.stress_minutes = 0.001;
  quick.warmup_seconds = 0.05;
  FleetCohort endless = quick;
  endless.name = "endless";
  endless.os = "win98";
  endless.count = 2;
  endless.stress_minutes = 600.0;
  spec.cohorts = {quick, endless};
  const Fleet fleet(spec);
  ASSERT_TRUE(fleet.error().empty());

  const std::string dir = test::TempDirFor("deadline");
  FleetShardOptions options;
  options.jobs = 2;
  options.out_path = FleetShardPath(dir, 0, 1);
  options.supervision.cell_timeout_ms = 1500.0;
  const FleetShardResult result = RunFleetShard(fleet, options);
  EXPECT_TRUE(result.error.empty()) << result.error;
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.cells_executed, 5u);
  ASSERT_EQ(result.failures.size(), 2u);
  std::set<std::size_t> failed;
  for (const runtime::CellFailure& failure : result.failures) {
    failed.insert(failure.cell);
    EXPECT_EQ(failure.seed, fleet.CellAt(failure.cell).seed);
    EXPECT_EQ(failure.kind, runtime::FailureKind::kTimeout) << failure.Render();
  }
  EXPECT_EQ(failed, (std::set<std::size_t>{3, 4}));

  // The short cells' records, as an unsupervised run of just those cells
  // writes them (the warm runners reset cleanly after a timed-out cell).
  FleetShardOptions clean;
  clean.out_path = FleetShardPath(test::TempDirFor("deadline_clean"), 0, 1);
  clean.cell_hi = 3;
  ASSERT_TRUE(RunFleetShard(fleet, clean).ok());
  const auto read = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  };
  const std::string records = read(options.out_path);
  EXPECT_EQ(std::count(records.begin(), records.end(), '\n'), 3);
  EXPECT_EQ(records, read(clean.out_path));

  // The strict merge names the gap instead of folding a partial population.
  FleetReport report;
  std::string error;
  EXPECT_FALSE(MergeFleetShards(fleet, {options.out_path}, &report, &error));
  EXPECT_NE(error.find("cell 3"), std::string::npos) << error;
}

}  // namespace
}  // namespace wdmlat::lab
