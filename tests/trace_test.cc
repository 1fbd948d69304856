// Tests for the ETW-style kernel event tracing.

#include "src/kernel/trace.h"

#include <gtest/gtest.h>

#include "src/kernel/kernel.h"
#include "tests/test_util.h"

namespace wdmlat::kernel {
namespace {

using testutil::MiniSystem;

TEST(TraceTest, RecordsIsrEnterExitPairsWithDurations) {
  MiniSystem sys;
  TraceSession session;
  sys.kernel().dispatcher().set_trace_sink(&session);
  sys.kernel().IoConnectInterrupt(sys.line_a(), static_cast<Irql>(12), Label{"T", "_isr"},
                                  [] { return sim::UsToCycles(40.0); });
  sys.engine().ScheduleAt(sim::UsToCycles(100.0), [&] { sys.pic().Assert(sys.line_a()); });
  sys.RunForUs(900.0);
  EXPECT_EQ(session.count(TraceEventType::kIsrEnter), 1u);
  EXPECT_EQ(session.count(TraceEventType::kIsrExit), 1u);
  bool found = false;
  for (const TraceEvent& event : session.Snapshot()) {
    if (event.type == TraceEventType::kIsrExit && event.label == Label{"T", "_isr"}) {
      found = true;
      EXPECT_EQ(event.arg, sys.line_a());
      EXPECT_EQ(event.duration, sim::UsToCycles(40.0));
    }
  }
  EXPECT_TRUE(found);
}

TEST(TraceTest, RecordsSectionsAndLockouts) {
  MiniSystem sys;
  TraceSession session;
  sys.kernel().dispatcher().set_trace_sink(&session);
  sys.engine().ScheduleAt(sim::UsToCycles(100.0), [&] {
    sys.kernel().InjectKernelSection(Irql::kDispatch, 200.0, Label{"VMM", "_mmFindContig"});
    sys.kernel().LockDispatch(500.0);
  });
  sys.RunForUs(900.0);
  EXPECT_EQ(session.count(TraceEventType::kSectionStart), 1u);
  EXPECT_EQ(session.count(TraceEventType::kSectionEnd), 1u);
  EXPECT_EQ(session.count(TraceEventType::kDispatchLockout), 1u);
  const std::string summary = session.Summary();
  EXPECT_NE(summary.find("VMM!_mmFindContig"), std::string::npos);
}

TEST(TraceTest, SectionEndDurationIncludesIsrPauses) {
  MiniSystem sys;  // 1 kHz clock: the PIT interrupts DISPATCH-level sections
  TraceSession session;
  sys.kernel().dispatcher().set_trace_sink(&session);
  sys.engine().ScheduleAt(sim::MsToCycles(1.5), [&] {
    sys.kernel().InjectKernelSection(Irql::kDispatch, 3000.0, Label{"T", "_long"});
  });
  sys.RunForMs(8.0);
  for (const TraceEvent& event : session.Snapshot()) {
    if (event.type == TraceEventType::kSectionEnd && event.label == Label{"T", "_long"}) {
      // Wall duration exceeds the 3000 us CPU time: clock ISRs paused it.
      EXPECT_GT(event.duration, sim::UsToCycles(3000.0));
      EXPECT_LT(event.duration, sim::UsToCycles(3200.0));
      return;
    }
  }
  FAIL() << "section-end event not found";
}

TEST(TraceTest, CountsDpcsAndContextSwitches) {
  MiniSystem sys;
  TraceSession session;
  sys.kernel().dispatcher().set_trace_sink(&session);
  KDpc dpc([] {}, sim::DurationDist::Constant(10.0), Label{"T", "_d"});
  sys.engine().ScheduleAt(sim::UsToCycles(100.0), [&] { sys.kernel().KeInsertQueueDpc(&dpc); });
  bool ran = false;
  sys.kernel().PsCreateSystemThread("traced", 10, [&]() -> ThreadBody {
    ran = true;
    co_return;
  });
  sys.RunForMs(2.0);
  EXPECT_TRUE(ran);
  EXPECT_EQ(session.count(TraceEventType::kDpcStart), session.count(TraceEventType::kDpcEnd));
  EXPECT_GE(session.count(TraceEventType::kDpcStart), 1u);
  EXPECT_GE(session.count(TraceEventType::kContextSwitch), 1u);
  EXPECT_GE(session.count(TraceEventType::kThreadReady), 1u);
}

TEST(TraceTest, RingWrapsKeepingNewestEvents) {
  TraceSession session(8);
  for (int i = 0; i < 20; ++i) {
    TraceEvent event;
    event.type = TraceEventType::kThreadReady;
    event.tsc = static_cast<sim::Cycles>(i);
    session.OnTraceEvent(event);
  }
  const auto events = session.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().tsc, 12u);
  EXPECT_EQ(events.back().tsc, 19u);
  EXPECT_EQ(session.total_events(), 20u);
}

TEST(TraceTest, TopTimeConsumersAggregatesAndSorts) {
  TraceSession session;
  auto add = [&](const Label& label, double us) {
    TraceEvent event;
    event.type = TraceEventType::kSectionEnd;
    event.label = label;
    event.duration = sim::UsToCycles(us);
    session.OnTraceEvent(event);
  };
  add(Label{"A", "_a"}, 100.0);
  add(Label{"B", "_b"}, 500.0);
  add(Label{"A", "_a"}, 150.0);
  const auto top = session.TopTimeConsumers();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].label, (Label{"B", "_b"}));
  EXPECT_EQ(top[1].occurrences, 2u);
  EXPECT_EQ(top[1].total, sim::UsToCycles(250.0));
}

TEST(TraceTest, NoSinkMeansNoCost) {
  // Smoke: nothing crashes and the system behaves identically without a
  // sink (the default).
  MiniSystem sys;
  sys.RunForMs(10.0);
  SUCCEED();
}

}  // namespace
}  // namespace wdmlat::kernel
