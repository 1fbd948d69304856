// Differential check of kernel::ReadyQueue's ready summary.
//
// ReadyQueue answers "highest ready priority" from a 32-bit summary word
// instead of scanning its 32 deques. This test pins it to a reference that
// keeps the scans: the same per-priority deques, searched from priority 31
// down on every query and across every priority on Remove. Both are driven
// by a seeded random stream of push-back, push-front, Pop, Peek,
// top_priority and Remove-after-a-priority-change, with priorities 1 and 31
// drawn often, and must agree after every op; ReadyQueue::Audit must stay
// clean throughout.

#include "src/kernel/ready_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/profile.h"
#include "src/lab/test_system.h"
#include "src/sim/rng.h"

namespace wdmlat::kernel {
namespace {

// The pre-summary ReadyQueue: every query scans the deques.
class ScanningReadyQueue {
 public:
  void Push(KThread* thread, bool front) {
    auto& queue = queues_[thread->priority()];
    if (front) {
      queue.push_front(thread);
    } else {
      queue.push_back(thread);
    }
  }
  int top_priority() const {
    for (int prio = kMaxPriority; prio >= kMinPriority; --prio) {
      if (!queues_[prio].empty()) {
        return prio;
      }
    }
    return -1;
  }
  KThread* Peek() const {
    const int top = top_priority();
    return top < 0 ? nullptr : queues_[top].front();
  }
  KThread* Pop() {
    const int top = top_priority();
    if (top < 0) {
      return nullptr;
    }
    KThread* thread = queues_[top].front();
    queues_[top].pop_front();
    return thread;
  }
  bool Remove(KThread* thread) {
    for (auto& queue : queues_) {
      auto it = std::find(queue.begin(), queue.end(), thread);
      if (it != queue.end()) {
        queue.erase(it);
        return true;
      }
    }
    return false;
  }
  std::uint32_t summary() const {
    std::uint32_t bits = 0;
    for (int prio = 0; prio <= kMaxPriority; ++prio) {
      if (!queues_[prio].empty()) {
        bits |= std::uint32_t{1} << prio;
      }
    }
    return bits;
  }
  std::size_t size() const {
    std::size_t total = 0;
    for (const auto& queue : queues_) {
      total += queue.size();
    }
    return total;
  }

 private:
  std::array<std::deque<KThread*>, kMaxPriority + 1> queues_;
};

int DrawPriority(sim::Rng& rng) {
  switch (rng.UniformInt(0, 3)) {
    case 0:
      return kMinPriority;
    case 1:
      return kMaxPriority;
    default:
      return static_cast<int>(rng.UniformInt(kMinPriority, kMaxPriority));
  }
}

std::string Name(const KThread* thread) { return thread == nullptr ? "null" : thread->name(); }

class ReadyQueueDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReadyQueueDifferentialTest, SummaryMatchesScanningReference) {
  // A thread's priority changes only through the kernel. The threads here
  // never enter its ready queues (they stay kInitialized), so
  // KeSetPriorityThread only rewrites their priority.
  lab::TestSystem system(MakeNt4Profile(), 5);
  Kernel& kernel = system.kernel();

  sim::Rng rng(GetParam());
  constexpr int kThreads = 40;
  std::vector<std::unique_ptr<KThread>> threads;
  std::vector<bool> queued(kThreads, false);
  for (int i = 0; i < kThreads; ++i) {
    threads.push_back(std::make_unique<KThread>(std::to_string(i), DrawPriority(rng)));
  }

  ReadyQueue queue;
  ScanningReadyQueue reference;
  const auto index_of = [&](const KThread* thread) {
    for (int i = 0; i < kThreads; ++i) {
      if (threads[i].get() == thread) {
        return i;
      }
    }
    return -1;
  };

  for (int op = 0; op < 200'000; ++op) {
    const std::uint64_t kind = rng.UniformInt(0, 99);
    const int pick = static_cast<int>(rng.UniformInt(0, kThreads - 1));
    KThread* thread = threads[pick].get();
    std::string what;
    if (kind < 40) {
      // Push back or front; a queued thread is left where it is.
      if (!queued[pick]) {
        const bool front = kind < 12;
        queue.Push(thread, front);
        reference.Push(thread, front);
        queued[pick] = true;
        what = std::string(front ? "push_front " : "push_back ") + thread->name();
      }
    } else if (kind < 60) {
      KThread* got = queue.Pop();
      KThread* want = reference.Pop();
      ASSERT_EQ(got, want) << "op " << op << ": Pop returned " << Name(got) << ", reference "
                           << Name(want);
      if (got != nullptr) {
        queued[index_of(got)] = false;
      }
      what = "pop";
    } else if (kind < 70) {
      ASSERT_EQ(queue.Peek(), reference.Peek()) << "op " << op << ": Peek";
      what = "peek";
    } else if (kind < 80) {
      ASSERT_EQ(queue.top_priority(), reference.top_priority()) << "op " << op;
      what = "top_priority";
    } else {
      // Priority change, then Remove (and usually re-queue at the new
      // priority, as a requeue does). Unqueued threads exercise the miss.
      kernel.KeSetPriorityThread(thread, DrawPriority(rng));
      const bool removed = queue.Remove(thread);
      ASSERT_EQ(removed, reference.Remove(thread)) << "op " << op << ": Remove";
      ASSERT_EQ(removed, static_cast<bool>(queued[pick])) << "op " << op;
      queued[pick] = false;
      if (removed && kind < 95) {
        queue.Push(thread, false);
        reference.Push(thread, false);
        queued[pick] = true;
      }
      what = "reprioritise+remove " + thread->name();
    }
    ASSERT_EQ(queue.summary(), reference.summary()) << "op " << op << " (" << what << ")";
    ASSERT_EQ(queue.size(), reference.size()) << "op " << op << " (" << what << ")";
    ASSERT_EQ(queue.empty(), reference.size() == 0) << "op " << op;
    ASSERT_EQ(queue.top_priority(), reference.top_priority()) << "op " << op << " (" << what << ")";
    if ((op & 0xFF) == 0) {
      std::vector<std::string> violations;
      queue.Audit(&violations);
      ASSERT_TRUE(violations.empty()) << "op " << op << ": " << violations.front();
    }
  }
  // Drain: both must hand threads back in the same order.
  while (KThread* want = reference.Pop()) {
    ASSERT_EQ(queue.Pop(), want);
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.summary(), 0u);
  EXPECT_EQ(queue.top_priority(), -1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadyQueueDifferentialTest,
                         ::testing::Values(0x5EEDull, 7ull, 2026ull));

// The edges of the summary word: priority 1 is bit 1 (bit 0 stays clear,
// priority 0 being the idle level), priority 31 the top bit, and a thread
// removed after moving between the two must clear the bit it was queued
// under, not the one its priority now names.
TEST(ReadyQueueTest, SummaryEdgeBitsAndRemoveAfterPriorityChange) {
  lab::TestSystem system(MakeNt4Profile(), 5);
  KThread low("low", kMinPriority);
  KThread high("high", kMaxPriority);
  ReadyQueue queue;
  queue.Push(&low);
  EXPECT_EQ(queue.summary(), 0x2u);
  EXPECT_EQ(queue.top_priority(), kMinPriority);
  queue.Push(&high);
  EXPECT_EQ(queue.summary(), 0x80000002u);
  EXPECT_EQ(queue.Peek(), &high);

  system.kernel().KeSetPriorityThread(&high, kMinPriority);
  EXPECT_TRUE(queue.Remove(&high));
  EXPECT_EQ(queue.summary(), 0x2u);
  EXPECT_EQ(queue.Peek(), &low);
  EXPECT_FALSE(queue.Remove(&high));
  EXPECT_EQ(queue.Pop(), &low);
  EXPECT_EQ(queue.summary(), 0u);
  EXPECT_EQ(queue.Pop(), nullptr);
  EXPECT_EQ(queue.Peek(), nullptr);
  std::vector<std::string> violations;
  queue.Audit(&violations);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

}  // namespace
}  // namespace wdmlat::kernel
