// Tests for user APCs and alertable waits (the ReadFileEx completion
// mechanism).

#include <gtest/gtest.h>

#include <vector>

#include "src/kernel/kernel.h"
#include "tests/test_util.h"

namespace wdmlat::kernel {
namespace {

using testutil::MiniSystem;

TEST(ApcTest, ApcInterruptsAnAlertableWait) {
  MiniSystem sys;
  KEvent never;
  bool apc_ran = false;
  sim::Cycles resumed_at = 0;
  KThread* app = sys.kernel().PsCreateSystemThread("app", 10, [&]() -> ThreadBody {
    co_await sys.kernel().WaitAlertable(&never);
    resumed_at = sys.kernel().GetCycleCount();
  });
  const sim::Cycles queue_at = sim::MsToCycles(2.0);
  sys.engine().ScheduleAt(queue_at, [&] {
    sys.kernel().QueueUserApc(app, [&] { apc_ran = true; });
  });
  sys.RunForMs(10.0);
  EXPECT_TRUE(apc_ran);
  ASSERT_NE(resumed_at, 0u);
  // Wake happened promptly after the APC (one dispatch).
  EXPECT_LT(sim::CyclesToMs(resumed_at - queue_at), 0.1);
  EXPECT_FALSE(never.signaled());
  EXPECT_EQ(never.waiter_count(), 0u);  // wait was aborted cleanly
}

TEST(ApcTest, ApcsDeliverBeforeTheWaitResumes) {
  MiniSystem sys;
  KEvent never;
  std::vector<int> order;
  KThread* app = sys.kernel().PsCreateSystemThread("app", 10, [&]() -> ThreadBody {
    co_await sys.kernel().WaitAlertable(&never);
    order.push_back(99);  // the body resumed
  });
  sys.engine().ScheduleAt(sim::MsToCycles(2.0), [&] {
    sys.kernel().QueueUserApc(app, [&] { order.push_back(1); });
    sys.kernel().QueueUserApc(app, [&] { order.push_back(2); });
  });
  sys.RunForMs(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 99}));
}

TEST(ApcTest, PendingApcsDeliverImmediatelyAtWait) {
  MiniSystem sys;
  KEvent never;
  std::vector<int> order;
  KThread* app = sys.kernel().PsCreateSystemThread("app", 10, [&]() -> ThreadBody {
    // Compute first so the APC is queued while the thread is busy.
    co_await sys.kernel().Compute(5000.0);
    co_await sys.kernel().WaitAlertable(&never);
    order.push_back(99);
  });
  sys.engine().ScheduleAt(sim::MsToCycles(1.0), [&] {
    sys.kernel().QueueUserApc(app, [&] { order.push_back(1); });
  });
  sys.RunForMs(20.0);
  // The wait never blocked: APC delivered synchronously at the call.
  EXPECT_EQ(order, (std::vector<int>{1, 99}));
}

TEST(ApcTest, NonAlertableWaitIgnoresApcsUntilAlertable) {
  MiniSystem sys;
  KEvent gate;
  KEvent never;
  std::vector<int> order;
  KThread* app = sys.kernel().PsCreateSystemThread("app", 10, [&]() -> ThreadBody {
    co_await sys.kernel().Wait(&gate);  // plain, non-alertable
    order.push_back(0);
    co_await sys.kernel().WaitAlertable(&never);
    order.push_back(99);
  });
  sys.engine().ScheduleAt(sim::MsToCycles(1.0), [&] {
    sys.kernel().QueueUserApc(app, [&] { order.push_back(1); });
  });
  sys.RunForMs(5.0);
  // Still blocked on the non-alertable wait: no delivery.
  EXPECT_TRUE(order.empty());
  sys.engine().ScheduleAfter(0, [&] { sys.kernel().KeSetEvent(&gate); });
  sys.RunForMs(5.0);
  // Woken normally, then the alertable wait delivered the pending APC.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 99}));
}

TEST(ApcTest, AlertableWaitStillSatisfiedByTheEvent) {
  MiniSystem sys;
  KEvent event;
  bool resumed = false;
  sys.kernel().PsCreateSystemThread("app", 10, [&]() -> ThreadBody {
    co_await sys.kernel().WaitAlertable(&event);
    resumed = true;
  });
  sys.engine().ScheduleAt(sim::MsToCycles(2.0), [&] { sys.kernel().KeSetEvent(&event); });
  sys.RunForMs(10.0);
  EXPECT_TRUE(resumed);
}

TEST(ApcTest, ReadFileExStyleCompletionLoop) {
  // The paper's control-application pattern: issue ReadFileEx, wait
  // alertably, record in the completion APC, repeat.
  MiniSystem sys;
  KEvent never;
  int completions = 0;
  KThread* app = nullptr;
  KTimer timer;
  KDpc dpc(
      [&] {
        // "Device" completes: deliver the completion APC to the app.
        sys.kernel().QueueUserApc(app, [&] { ++completions; });
      },
      sim::DurationDist::Constant(2.0), Label{"T", "_complete"});
  app = sys.kernel().PsCreateSystemThread("app", 10, [&]() -> ThreadBody {
    for (;;) {
      sys.kernel().KeSetTimerMs(&timer, 2.0, &dpc);  // the pending I/O
      co_await sys.kernel().WaitAlertable(&never);
    }
  });
  sys.RunForMs(100.0);
  EXPECT_GT(completions, 25);
}

}  // namespace
}  // namespace wdmlat::kernel
