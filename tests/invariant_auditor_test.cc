// sim::InvariantAuditor and the per-layer audit hooks it aggregates: the
// engine calendar (including its floor), the event pool, the kernel
// dispatcher's IRQL/lock discipline and ready summary, and the interrupt
// controller's pending count — plus the tentpole passivity claim that a
// supervised run with auditing armed is bit-identical to an unsupervised run.
// The corruption tests reach the audited fields through test peers.

#include "src/sim/invariant_auditor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/hw/interrupt_controller.h"
#include "src/kernel/profile.h"
#include "src/kernel/ready_queue.h"
#include "src/kernel/smp.h"
#include "src/lab/lab.h"
#include "src/lab/test_system.h"
#include "src/sim/engine.h"
#include "src/workload/stress_profile.h"

namespace wdmlat::sim {
class EngineTestPeer {
 public:
  static Cycles& floor(Engine& engine) { return engine.floor_; }
};
}  // namespace wdmlat::sim

namespace wdmlat::kernel {
class ReadyQueueTestPeer {
 public:
  static std::uint32_t& summary(ReadyQueue& queue) { return queue.summary_; }
};
}  // namespace wdmlat::kernel

namespace wdmlat::hw {
class InterruptControllerTestPeer {
 public:
  static int& pending_count(InterruptController& pic) { return pic.pending_count_; }
};
}  // namespace wdmlat::hw

namespace wdmlat {
namespace {

TEST(InvariantAuditorTest, FreshEngineAuditsClean) {
  sim::Engine engine;
  // Some live calendar state: scheduled, fired, and cancelled events.
  int fired = 0;
  engine.ScheduleAt(sim::MsToCycles(1.0), [&] { ++fired; });
  engine.ScheduleAt(sim::MsToCycles(50.0), [&] { ++fired; });
  sim::EventHandle cancelled = engine.ScheduleAt(sim::MsToCycles(60.0), [&] { ++fired; });
  cancelled.Cancel();
  engine.RunUntil(sim::MsToCycles(10.0));
  EXPECT_EQ(fired, 1);

  sim::InvariantAuditor auditor(engine);
  const sim::AuditReport report = auditor.Audit();
  EXPECT_TRUE(report.ok()) << report.Render();
  EXPECT_EQ(auditor.passes(), 1u);
  EXPECT_EQ(auditor.violations_seen(), 0u);
}

TEST(InvariantAuditorTest, BusySystemAuditsCleanMidRun) {
  lab::TestSystem system(kernel::MakeWin98Profile(), 1999);
  sim::InvariantAuditor auditor(system.engine());
  kernel::Dispatcher* dispatcher = &system.kernel().dispatcher();
  auditor.AddCheck("dispatcher",
                   [dispatcher](std::vector<std::string>* v) { dispatcher->AuditDiscipline(v); });

  // Audit repeatedly between slices of a live run: the calendar is full of
  // clock ticks and timers, the pool is churning, and the dispatcher is at
  // rest between events — every pass must be clean.
  for (int slice = 0; slice < 5; ++slice) {
    system.RunFor(0.2);
    const sim::AuditReport report = auditor.Audit();
    EXPECT_TRUE(report.ok()) << report.Render();
  }
  EXPECT_EQ(auditor.passes(), 5u);
}

TEST(InvariantAuditorTest, ExternalCheckViolationIsNamedAndCounted) {
  sim::Engine engine;
  sim::InvariantAuditor auditor(engine);
  auditor.AddCheck("fixture", [](std::vector<std::string>* v) {
    v->push_back("injected violation");
  });
  const sim::AuditReport report = auditor.Audit();
  ASSERT_FALSE(report.ok());
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0], "fixture: injected violation");
  EXPECT_EQ(auditor.violations_seen(), 1u);

  const std::string rendered = report.Render();
  EXPECT_NE(rendered.find("audit pass 1"), std::string::npos);
  EXPECT_NE(rendered.find("fixture: injected violation"), std::string::npos);
}

TEST(InvariantAuditorTest, DispatcherDisciplineCleanAtIdle) {
  lab::TestSystem system(kernel::MakeNt4Profile(), 7);
  system.RunFor(0.5);
  std::vector<std::string> violations;
  system.kernel().dispatcher().AuditDiscipline(&violations);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

// The core's completion lane must be armed exactly when one activity is
// marked running. Flipping the lane behind the dispatcher's back (the boot
// core opened the engine's first lane) must be reported.
TEST(InvariantAuditorTest, DispatcherLaneOutOfStepWithRunningActivityIsReported) {
  lab::TestSystem system(kernel::MakeWin98Profile(), 7);
  system.RunFor(0.5);
  sim::Engine& engine = system.engine();
  const sim::Engine::LaneId boot_lane = 0;
  if (engine.lane_armed(boot_lane)) {
    engine.DisarmLane(boot_lane);
  } else {
    engine.ArmLane(boot_lane, 1);
  }
  std::vector<std::string> violations;
  system.kernel().dispatcher().AuditDiscipline(&violations);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("completion lane"), std::string::npos) << violations[0];
}

// A summary bit set over an empty queue must be reported by the owning
// core's dispatcher audit, for each core's queue on SMP.
TEST(InvariantAuditorTest, ReadySummaryBitOverAnEmptyQueueIsReported) {
  lab::TestSystem system(kernel::MakeNt4SmpProfile(2), 7);
  system.RunFor(0.5);
  kernel::Smp* smp = system.kernel().smp();
  ASSERT_NE(smp, nullptr);
  for (int core = 0; core < system.kernel().core_count(); ++core) {
    std::uint32_t& summary = kernel::ReadyQueueTestPeer::summary(smp->ready_queue(core));
    const std::uint32_t saved = summary;
    const int prio = __builtin_ctz(~saved & ~1u);  // an empty priority above idle
    summary = saved | (std::uint32_t{1} << prio);
    std::vector<std::string> violations;
    system.kernel().dispatcher(core).AuditDiscipline(&violations);
    summary = saved;
    ASSERT_EQ(violations.size(), 1u) << "core " << core;
    EXPECT_NE(violations[0].find("ready summary bit " + std::to_string(prio) + " set"),
              std::string::npos)
        << violations[0];
    violations.clear();
    system.kernel().dispatcher(core).AuditDiscipline(&violations);
    EXPECT_TRUE(violations.empty()) << violations.front();
  }
}

// The other direction: a queued thread under a clear summary bit.
TEST(InvariantAuditorTest, ReadySummaryBitClearOverAQueuedThreadIsReported) {
  kernel::KThread thread("t", 12);
  kernel::ReadyQueue queue;
  queue.Push(&thread);
  kernel::ReadyQueueTestPeer::summary(queue) = 0;
  std::vector<std::string> violations;
  queue.Audit(&violations);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("ready summary bit 12 clear"), std::string::npos)
      << violations[0];
}

// The interrupt controller's pending count must equal its latched lines.
TEST(InvariantAuditorTest, PicPendingCountOutOfStepIsReported) {
  lab::TestSystem system(kernel::MakeWin98Profile(), 7);
  system.RunFor(0.5);
  hw::InterruptController& pic = system.kernel().pic();
  std::vector<std::string> violations;
  pic.Audit(&violations);
  EXPECT_TRUE(violations.empty()) << violations.front();
  int& count = hw::InterruptControllerTestPeer::pending_count(pic);
  ++count;
  pic.Audit(&violations);
  --count;
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("pending count"), std::string::npos) << violations[0];
}

// The calendar floor must not exceed any live ring or overflow entry.
TEST(InvariantAuditorTest, CalendarFloorAboveALiveEntryIsReported) {
  sim::Engine engine;
  const sim::Cycles near = sim::MsToCycles(1.0);
  const sim::Cycles far = 2 * sim::Engine::kHorizonCycles;
  engine.ScheduleAt(near, [] {});
  engine.ScheduleAt(far, [] {});
  std::vector<std::string> violations;
  engine.AuditCalendar(&violations);
  EXPECT_TRUE(violations.empty()) << violations.front();

  sim::Cycles& floor = sim::EngineTestPeer::floor(engine);
  floor = near + 1;
  engine.AuditCalendar(&violations);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("live ring event"), std::string::npos) << violations[0];
  EXPECT_NE(violations[0].find("below the calendar floor"), std::string::npos) << violations[0];

  violations.clear();
  floor = far + 1;
  engine.AuditCalendar(&violations);
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_NE(violations[1].find("live overflow event"), std::string::npos) << violations[1];
}

TEST(InvariantAuditorTest, EngineAuditCalendarDirectly) {
  sim::Engine engine;
  std::vector<sim::EventHandle> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(engine.ScheduleAt(sim::UsToCycles(10.0 * (i + 1)), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    ids[i].Cancel();  // lazy-purge entries stay in the heap as dead
  }
  engine.RunUntil(sim::UsToCycles(500.0));
  std::vector<std::string> violations;
  engine.AuditCalendar(&violations);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

// All three ladder tiers under audit at once — ring buckets with lazy-dead
// entries, a populated far-overflow heap, and (via callbacks) the active
// drain batch with its cursor parked mid-burst while tail entries die.
TEST(InvariantAuditorTest, LadderTiersAuditCleanIncludingMidBatch) {
  sim::Engine engine;
  sim::InvariantAuditor auditor(engine);

  // Far tier: events beyond the ring horizon.
  for (int i = 0; i < 16; ++i) {
    engine.ScheduleAfter(
        sim::Engine::kHorizonCycles + static_cast<sim::Cycles>(i) * sim::Engine::kBucketWidth,
        [] {});
  }
  // Near ring: one event per epoch across a span of buckets, every fourth
  // cancelled so the buckets hold lazy-purge corpses.
  std::vector<sim::EventHandle> ring;
  for (sim::Cycles i = 1; i <= 64; ++i) {
    ring.push_back(engine.ScheduleAfter(i * sim::Engine::kBucketWidth, [] {}));
  }
  for (std::size_t i = 0; i < ring.size(); i += 4) {
    ring[i].Cancel();
  }

  // Same-instant burst: each fire audits from inside the batched drain and
  // cancels an unserved tail entry, so the audit sees a served prefix, a
  // live cursor, and fresh corpses behind it.
  const sim::Cycles tick = engine.now() + 100;
  int mid_batch_audits = 0;
  std::vector<sim::EventHandle> burst;
  for (int i = 0; i < 32; ++i) {
    burst.push_back(engine.ScheduleAt(tick, [&] {
      const sim::AuditReport report = auditor.Audit();
      ASSERT_TRUE(report.ok()) << report.Render();
      ++mid_batch_audits;
      if (!burst.empty()) {
        burst.back().Cancel();
        burst.pop_back();
      }
    }));
  }
  engine.RunUntil(tick);
  EXPECT_GT(mid_batch_audits, 8);

  // Post-drain: the far tier is still populated, the ring partially dead.
  const sim::AuditReport after = auditor.Audit();
  EXPECT_TRUE(after.ok()) << after.Render();
  engine.RunUntilIdle();
  const sim::AuditReport drained = auditor.Audit();
  EXPECT_TRUE(drained.ok()) << drained.Render();
}

// The passivity claim: arming the watchdog and the auditor slices the
// measurement phase, but RunUntil fires exactly the events at or before its
// deadline — so the measured distributions must be bit-identical to the
// single-call path.
TEST(InvariantAuditorTest, SupervisedRunIsBitIdenticalToUnsupervised) {
  lab::LabConfig config;
  config.os = kernel::MakeWin98Profile();
  config.stress = workload::GamesStress();
  config.thread_priority = 28;
  config.stress_minutes = 0.05;
  config.warmup_seconds = 1.0;
  config.seed = 1999;

  const lab::LabReport plain = lab::RunLatencyExperiment(config);

  runtime::Watchdog watchdog;
  watchdog.Arm(600'000.0);
  config.supervision.watchdog = &watchdog;
  config.supervision.audit_every_s = 0.5;
  config.supervision.audit_at_end = true;
  const lab::LabReport supervised = lab::RunLatencyExperiment(config);

  EXPECT_EQ(plain.samples, supervised.samples);
  EXPECT_EQ(plain.samples_per_hour, supervised.samples_per_hour);
  EXPECT_EQ(plain.thread.ToCsv(), supervised.thread.ToCsv());
  EXPECT_EQ(plain.dpc_interrupt.ToCsv(), supervised.dpc_interrupt.ToCsv());
  EXPECT_EQ(plain.thread_interrupt.ToCsv(), supervised.thread_interrupt.ToCsv());
  EXPECT_EQ(plain.interrupt.ToCsv(), supervised.interrupt.ToCsv());
  EXPECT_EQ(plain.isr_to_dpc.ToCsv(), supervised.isr_to_dpc.ToCsv());
  EXPECT_EQ(plain.true_pit_interrupt_latency.ToCsv(),
            supervised.true_pit_interrupt_latency.ToCsv());
}

// The fixture path the CI smoke test drives: a forced audit violation fails
// the cell with kInvariantViolation instead of crashing the process.
TEST(InvariantAuditorTest, ForcedViolationThrowsInvariantViolation) {
  lab::LabConfig config;
  config.os = kernel::MakeWin98Profile();
  config.stress = workload::GamesStress();
  config.thread_priority = 28;
  config.stress_minutes = 0.05;
  config.warmup_seconds = 1.0;
  config.seed = 1999;
  config.supervision.force_audit_violation = true;

  EXPECT_THROW(lab::RunLatencyExperiment(config), runtime::InvariantViolation);
}

}  // namespace
}  // namespace wdmlat
