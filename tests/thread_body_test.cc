// The thread-body contract: a body is a coroutine the KThread owns. It is
// destroyed with its Kernel (never resumed after), satisfied waits continue
// inline without a dispatch or any recursion, a capturing lambda body may
// use its captures across suspensions, and falling off the end terminates
// the thread.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "tests/test_util.h"

namespace wdmlat::kernel {
namespace {

using testutil::MiniSystem;

// Counts its destructions: a local of a body parked in a wait.
class DestructionProbe {
 public:
  explicit DestructionProbe(int* destroyed) : destroyed_(destroyed) {}
  DestructionProbe(const DestructionProbe&) = delete;
  DestructionProbe& operator=(const DestructionProbe&) = delete;
  ~DestructionProbe() { ++*destroyed_; }

 private:
  int* destroyed_;
};

TEST(ThreadBodyTest, SuspendedBodyIsDestroyedOnceWithItsKernelAndNeverResumed) {
  int destroyed = 0;
  bool resumed = false;
  KEvent never;
  auto sys = std::make_unique<MiniSystem>();
  KThread* thread = sys->kernel().PsCreateSystemThread("parked", 10, [&]() -> ThreadBody {
    const DestructionProbe probe(&destroyed);
    // A heap-owning local too, so a leaked frame shows under LSan.
    const auto buffer = std::make_unique<std::vector<int>>(1024, 7);
    co_await sys->kernel().Wait(&never);
    resumed = true;
  });
  sys->RunForMs(5.0);
  EXPECT_EQ(thread->state(), ThreadState::kWaiting);
  EXPECT_EQ(never.waiter_count(), 1u);
  EXPECT_EQ(destroyed, 0);

  sys.reset();  // destroys the Kernel, its threads and their frames
  EXPECT_EQ(destroyed, 1);
  EXPECT_FALSE(resumed);
}

// One body runs `kWaits` waits of each kind that are already satisfied
// when made; none may block, dispatch, advance time or nest a call.
TEST(ThreadBodyTest, AMillionSatisfiedWaitsFinishWithinOneDispatch) {
  constexpr int kWaits = 1'000'000;
  MiniSystem sys;
  Kernel& k = sys.kernel();
  KEvent event(EventType::kSynchronization);
  KMutex free_mutex;
  KMutex owned_mutex;
  KSemaphore semaphore(kWaits);
  std::uint64_t dispatches_before = 0;
  std::uint64_t dispatches_after = 0;
  sim::Cycles started_at = 0;
  sim::Cycles finished_at = 0;
  bool finished = false;
  KThread* thread = k.PsCreateSystemThread("spinner", 10, [&]() -> ThreadBody {
    KThread* self = k.KeGetCurrentThread();
    dispatches_before = self->dispatch_count();
    started_at = k.GetCycleCount();
    for (int i = 0; i < kWaits; ++i) {
      k.KeSetEvent(&event);  // no waiter: the event stays signaled
      co_await k.Wait(&event);
    }
    EXPECT_FALSE(event.signaled());  // each wait consumed its signal
    for (int i = 0; i < kWaits; ++i) {
      co_await k.WaitForMutex(&free_mutex);
      k.KeReleaseMutex(&free_mutex);
    }
    for (int i = 0; i < kWaits; ++i) {
      co_await k.WaitForMutex(&owned_mutex);  // recursive after the first
    }
    EXPECT_EQ(owned_mutex.recursion(), kWaits);
    for (int i = 0; i < kWaits; ++i) {
      k.KeReleaseMutex(&owned_mutex);
    }
    for (int i = 0; i < kWaits; ++i) {
      co_await k.WaitForSemaphore(&semaphore);
    }
    EXPECT_EQ(semaphore.count(), 0);
    dispatches_after = self->dispatch_count();
    finished_at = k.GetCycleCount();
    finished = true;
  });
  sys.RunForMs(5.0);
  ASSERT_TRUE(finished);
  EXPECT_EQ(dispatches_after, dispatches_before);
  EXPECT_EQ(thread->dispatch_count(), 1u);
  EXPECT_EQ(finished_at, started_at);  // no simulated time passed
  EXPECT_FALSE(free_mutex.held());
  EXPECT_FALSE(owned_mutex.held());
  EXPECT_EQ(thread->state(), ThreadState::kTerminated);
}

TEST(ThreadBodyTest, CapturingLambdaBodyUsesItsCapturesAcrossSuspensions) {
  MiniSystem sys;
  KEvent tick;
  std::vector<std::string> seen;
  // By-reference captures plus by-value ones that live only in the closure:
  // the thread keeps the closure as long as the frame that reads them.
  sys.kernel().PsCreateSystemThread(
      "capturer", 12,
      [&, prefix = std::string("tick-"), rounds = 3]() -> ThreadBody {
        for (int i = 0; i < rounds; ++i) {
          co_await sys.kernel().Wait(&tick);
          co_await sys.kernel().Compute(50.0);
          seen.push_back(prefix + std::to_string(i));
        }
      });
  for (int i = 0; i < 3; ++i) {
    sys.engine().ScheduleAt(sim::MsToCycles(1.0 + i), [&] { sys.kernel().KeSetEvent(&tick); });
  }
  sys.RunForMs(10.0);
  EXPECT_EQ(seen, (std::vector<std::string>{"tick-0", "tick-1", "tick-2"}));
}

TEST(ThreadBodyTest, FallingOffTheEndTerminatesTheThread) {
  MiniSystem sys;
  KEvent never;
  bool computed = false;
  int loops = 0;
  KThread* falls_off = sys.kernel().PsCreateSystemThread("falls off", 10, [&]() -> ThreadBody {
    co_await sys.kernel().Compute(200.0);
    computed = true;
  });
  KThread* returns = sys.kernel().PsCreateSystemThread("returns", 9, [&]() -> ThreadBody {
    for (;;) {
      co_await sys.kernel().Compute(100.0);
      if (++loops == 3) {
        co_return;
      }
    }
    co_await sys.kernel().Wait(&never);  // never reached
  });
  sys.RunForMs(5.0);
  EXPECT_TRUE(computed);
  EXPECT_EQ(loops, 3);
  EXPECT_EQ(falls_off->state(), ThreadState::kTerminated);
  EXPECT_EQ(returns->state(), ThreadState::kTerminated);
  EXPECT_EQ(never.waiter_count(), 0u);
  EXPECT_EQ(sys.kernel().KeGetCurrentThread(), nullptr);
}

}  // namespace
}  // namespace wdmlat::kernel
