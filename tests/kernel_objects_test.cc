// Tests for kernel objects: events, timers, threads, work items, IRPs.

#include <gtest/gtest.h>

#include <vector>

#include "src/kernel/kernel.h"
#include "tests/test_util.h"

namespace wdmlat::kernel {
namespace {

using testutil::MiniSystem;

TEST(EventTest, SynchronizationEventWakesExactlyOneWaiter) {
  MiniSystem sys;
  KEvent event;  // synchronization, non-signaled
  std::vector<int> woken;
  sys.kernel().PsCreateSystemThread("w1", 10, [&]() -> ThreadBody {
    co_await sys.kernel().Wait(&event);
    woken.push_back(1);
  });
  sys.kernel().PsCreateSystemThread("w2", 10, [&]() -> ThreadBody {
    co_await sys.kernel().Wait(&event);
    woken.push_back(2);
  });
  sys.engine().ScheduleAt(sim::MsToCycles(1.5), [&] { sys.kernel().KeSetEvent(&event); });
  sys.RunForMs(5.0);
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], 1);  // FIFO wait satisfaction
  sys.engine().ScheduleAfter(0, [&] { sys.kernel().KeSetEvent(&event); });
  sys.RunForMs(5.0);
  ASSERT_EQ(woken.size(), 2u);
  EXPECT_EQ(woken[1], 2);
  EXPECT_FALSE(event.signaled());  // auto-clearing
}

TEST(EventTest, NotificationEventWakesAllWaitersAndStaysSignaled) {
  MiniSystem sys;
  KEvent event(EventType::kNotification);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    sys.kernel().PsCreateSystemThread("w", 10, [&]() -> ThreadBody {
      co_await sys.kernel().Wait(&event);
      ++woken;
    });
  }
  sys.engine().ScheduleAt(sim::MsToCycles(1.5), [&] { sys.kernel().KeSetEvent(&event); });
  sys.RunForMs(5.0);
  EXPECT_EQ(woken, 3);
  EXPECT_TRUE(event.signaled());
}

TEST(EventTest, WaitOnSignaledSyncEventIsImmediateAndConsumes) {
  MiniSystem sys;
  KEvent event(EventType::kSynchronization, /*initial_state=*/true);
  sim::Cycles waited_at = 0;
  sim::Cycles resumed_at = 0;
  sys.kernel().PsCreateSystemThread("w", 10, [&]() -> ThreadBody {
    waited_at = sys.kernel().GetCycleCount();
    co_await sys.kernel().Wait(&event);
    resumed_at = sys.kernel().GetCycleCount();
  });
  sys.RunForMs(2.0);
  EXPECT_EQ(waited_at, resumed_at);  // no block, no dispatch
  EXPECT_FALSE(event.signaled());
}

TEST(EventTest, ResetClearsSignaledState) {
  MiniSystem sys;
  KEvent event(EventType::kNotification, true);
  sys.kernel().KeResetEvent(&event);
  EXPECT_FALSE(event.signaled());
}

TEST(TimerTest, SingleShotFiresAtNextTickAtOrAfterDue) {
  MiniSystem sys;  // 1 kHz clock
  KTimer timer;
  sim::Cycles fired_at = 0;
  KDpc dpc([&] { fired_at = sys.kernel().GetCycleCount(); }, sim::DurationDist::Constant(1.0),
           Label{"T", "_d"});
  // Set at 0.3 ms for 2.5 ms => due 2.8 ms => fires at the 3 ms tick.
  sys.engine().ScheduleAt(sim::MsToCycles(0.3),
                          [&] { sys.kernel().KeSetTimerMs(&timer, 2.5, &dpc); });
  sys.RunForMs(6.0);
  ASSERT_NE(fired_at, 0u);
  EXPECT_GE(fired_at, sim::MsToCycles(3.0));
  EXPECT_LT(fired_at, sim::MsToCycles(3.1));
}

TEST(TimerTest, CancelPreventsFiring) {
  MiniSystem sys;
  KTimer timer;
  int fires = 0;
  KDpc dpc([&] { ++fires; }, sim::DurationDist::Constant(1.0), Label{"T", "_d"});
  sys.engine().ScheduleAt(sim::MsToCycles(0.3),
                          [&] { sys.kernel().KeSetTimerMs(&timer, 5.0, &dpc); });
  sys.engine().ScheduleAt(sim::MsToCycles(2.0), [&] {
    EXPECT_TRUE(sys.kernel().KeCancelTimer(&timer));
    EXPECT_FALSE(sys.kernel().KeCancelTimer(&timer));  // already cancelled
  });
  sys.RunForMs(10.0);
  EXPECT_EQ(fires, 0);
}

TEST(TimerTest, ReSettingAnActiveTimerReplacesTheDueTime) {
  MiniSystem sys;
  KTimer timer;
  std::vector<sim::Cycles> fires;
  KDpc dpc([&] { fires.push_back(sys.kernel().GetCycleCount()); },
           sim::DurationDist::Constant(1.0), Label{"T", "_d"});
  sys.engine().ScheduleAt(sim::MsToCycles(0.3),
                          [&] { sys.kernel().KeSetTimerMs(&timer, 2.0, &dpc); });
  sys.engine().ScheduleAt(sim::MsToCycles(1.0),
                          [&] { sys.kernel().KeSetTimerMs(&timer, 5.0, &dpc); });
  sys.RunForMs(10.0);
  // Only the re-set arming fires: due 6 ms, at the 6 ms tick.
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_GE(fires[0], sim::MsToCycles(6.0));
  EXPECT_LT(fires[0], sim::MsToCycles(6.1));
}

TEST(TimerTest, PeriodicTimerFiresRepeatedlyWithoutDrift) {
  MiniSystem sys;
  KTimer timer;
  std::vector<sim::Cycles> fires;
  KDpc dpc([&] { fires.push_back(sys.kernel().GetCycleCount()); },
           sim::DurationDist::Constant(1.0), Label{"T", "_d"});
  sys.engine().ScheduleAt(sim::MsToCycles(0.2),
                          [&] { sys.kernel().KeSetTimerPeriodicMs(&timer, 1.0, 2.0, &dpc); });
  sys.RunForMs(21.0);
  ASSERT_GE(fires.size(), 9u);
  // Expiries land on ticks every 2 ms; inter-fire spacing stays 2 ms.
  for (std::size_t i = 1; i < fires.size(); ++i) {
    const double gap_ms = sim::CyclesToMs(fires[i] - fires[i - 1]);
    EXPECT_NEAR(gap_ms, 2.0, 0.2);
  }
}

TEST(ThreadTest, SleepBlocksForAtLeastTheRequestedTime) {
  MiniSystem sys;
  sim::Cycles slept_at = 0;
  sim::Cycles resumed_at = 0;
  sys.kernel().PsCreateSystemThread("sleeper", 10, [&]() -> ThreadBody {
    slept_at = sys.kernel().GetCycleCount();
    co_await sys.kernel().Sleep(5.0);
    resumed_at = sys.kernel().GetCycleCount();
  });
  sys.RunForMs(10.0);
  ASSERT_NE(resumed_at, 0u);
  const double slept_ms = sim::CyclesToMs(resumed_at - slept_at);
  EXPECT_GE(slept_ms, 5.0);
  EXPECT_LT(slept_ms, 6.5);  // tick quantization + dispatch
}

TEST(ThreadTest, SetPriorityThreadAffectsDispatchOrder) {
  MiniSystem sys;
  std::vector<int> order;
  // Notification event: both waiters become ready at the same instant, so
  // dispatch order is purely a priority decision.
  KEvent start(EventType::kNotification);
  KThread* t1 = sys.kernel().PsCreateSystemThread("t1", 5, [&]() -> ThreadBody {
    co_await sys.kernel().Wait(&start);
    order.push_back(1);
  });
  sys.kernel().PsCreateSystemThread("t2", 9, [&]() -> ThreadBody {
    co_await sys.kernel().Wait(&start);
    order.push_back(2);
  });
  sys.engine().ScheduleAt(sim::MsToCycles(1.2), [&] {
    sys.kernel().KeSetPriorityThread(t1, 12);
  });
  sys.engine().ScheduleAt(sim::MsToCycles(2.2), [&] { sys.kernel().KeSetEvent(&start); });
  sys.RunForMs(30.0);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // t1 now outranks t2
  EXPECT_EQ(order[1], 2);
}

TEST(ThreadTest, RealTimeThreadsGetNoWaitBoost) {
  MiniSystem sys;
  KEvent event;
  KThread* rt = sys.kernel().PsCreateSystemThread("rt", 24, [&]() -> ThreadBody {
    co_await sys.kernel().Wait(&event);
  });
  sys.RunForMs(1.0);
  sys.engine().ScheduleAfter(0, [&] { sys.kernel().KeSetEvent(&event); });
  sys.RunForMs(1.0);
  EXPECT_EQ(rt->priority(), 24);
}

TEST(ThreadTest, NormalThreadWaitBoostDecaysAtNextWait) {
  MiniSystem sys;
  KEvent event;
  KThread* worker = nullptr;
  int wakes = 0;
  worker = sys.kernel().PsCreateSystemThread("normal", 8, [&]() -> ThreadBody {
    for (;;) {
      co_await sys.kernel().Wait(&event);
      ++wakes;
    }
  });
  sys.RunForMs(1.0);
  sys.engine().ScheduleAfter(0, [&] {
    sys.kernel().KeSetEvent(&event);
    // Boost is visible while readied.
    EXPECT_EQ(worker->priority(), 9);
    EXPECT_EQ(worker->base_priority(), 8);
  });
  sys.RunForMs(2.0);
  EXPECT_EQ(wakes, 1);
  // Back on the wait list: boost decayed.
  EXPECT_EQ(worker->priority(), 8);
}

TEST(WorkItemTest, WorkItemsRunOnWorkerThreadInOrder) {
  MiniSystem sys;
  // Track execution order through the dispatcher's label.
  std::vector<sim::Cycles> stamps;
  sys.engine().ScheduleAt(sim::MsToCycles(0.5), [&] {
    sys.kernel().ExQueueWorkItem(100.0, Label{"T", "_w1"});
    sys.kernel().ExQueueWorkItem(100.0, Label{"T", "_w2"});
  });
  sys.RunForMs(5.0);
  EXPECT_EQ(sys.kernel().WorkQueueDepth(), 0u);
}

TEST(WorkItemTest, WorkerPriorityMatchesProfile) {
  MiniSystem sys;
  EXPECT_EQ(sys.kernel().worker_thread()->priority(), kDefaultRealTimePriority);
  EXPECT_EQ(sys.kernel().worker_thread()->base_priority(),
            sys.kernel().profile().worker_thread_priority);
}

TEST(WorkItemTest, WorkItemDelaysEqualPriorityRtThread) {
  MiniSystem sys;
  KEvent wake;
  sim::Cycles signaled_at = 0;
  sim::Cycles ran_at = 0;
  sys.kernel().PsCreateSystemThread("rt24", 24, [&]() -> ThreadBody {
    co_await sys.kernel().Wait(&wake);
    ran_at = sys.kernel().GetCycleCount();
  });
  // Give the worker 3 ms of work, then signal the 24 thread shortly after it
  // starts: the thread must wait for the worker to block (same priority, no
  // preemption).
  sys.engine().ScheduleAt(sim::MsToCycles(1.0), [&] {
    sys.kernel().ExQueueWorkItem(3000.0, Label{"T", "_big"});
  });
  sys.engine().ScheduleAt(sim::MsToCycles(1.5), [&] {
    signaled_at = sys.kernel().GetCycleCount();
    sys.kernel().KeSetEvent(&wake);
  });
  sys.RunForMs(10.0);
  ASSERT_NE(ran_at, 0u);
  const double delay_ms = sim::CyclesToMs(ran_at - signaled_at);
  EXPECT_GT(delay_ms, 2.0);  // waited out most of the 3 ms work item
  EXPECT_LT(delay_ms, 3.5);
}

TEST(IrpTest, CompletionRoutineRunsOnComplete) {
  MiniSystem sys;
  Irp irp;
  irp.asb[0] = 42;
  bool completed = false;
  irp.on_complete = [&](Irp* done) {
    EXPECT_EQ(done->asb[0], 42u);
    completed = true;
  };
  sys.kernel().IoCompleteRequest(&irp);
  EXPECT_TRUE(completed);
}

TEST(ThreadTest, ManyThreadsAllRunToCompletion) {
  MiniSystem sys;
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    sys.kernel().PsCreateSystemThread("t" + std::to_string(i), 1 + (i % 15), [&]() -> ThreadBody {
      co_await sys.kernel().Compute(100.0);
      ++completed;
    });
  }
  sys.RunForMs(50.0);
  EXPECT_EQ(completed, 50);
}

}  // namespace
}  // namespace wdmlat::kernel
