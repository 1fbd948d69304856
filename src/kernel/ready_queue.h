// Per-priority ready queues for the fixed-priority preemptive scheduler.
//
// Beside the 32 deques sits a 32-bit ready summary with bit p set exactly
// when priority p's deque is non-empty (NT 4.0 keeps the same word as
// KiReadySummary). The dispatcher asks for the highest ready priority on
// every reevaluation, so top_priority, Peek and Pop read the summary's
// highest set bit instead of scanning the deques; Push, Pop and Remove keep
// the bit in step.

#ifndef SRC_KERNEL_READY_QUEUE_H_
#define SRC_KERNEL_READY_QUEUE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/kernel/thread.h"

namespace wdmlat::kernel {

static_assert(kMaxPriority < 32, "the ready summary holds one bit per priority");

class ReadyQueue {
 public:
  // Push at the back (normal readying / quantum-end round robin) or front
  // (a preempted thread resumes ahead of its peers, as on NT).
  void Push(KThread* thread, bool front = false);

  // Highest-priority ready thread without removing it; nullptr if empty.
  KThread* Peek() const {
    return summary_ == 0 ? nullptr : queues_[top_priority()].front();
  }

  // Remove and return the highest-priority ready thread; nullptr if empty.
  KThread* Pop();

  // Remove a specific thread (priority change while ready). Returns true if
  // it was present. The thread is looked up in every non-empty queue, not
  // just its current priority's: its priority may have changed since it was
  // queued.
  bool Remove(KThread* thread);

  // Highest priority with a ready thread, or -1.
  int top_priority() const { return summary_ == 0 ? -1 : 31 - __builtin_clz(summary_); }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  // One bit per priority with a ready thread.
  std::uint32_t summary() const { return summary_; }

  // Visit every queued thread, highest priority first (SMP invariant audits
  // and work stealing need to inspect runqueue contents).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (int prio = kMaxPriority; prio >= 0; --prio) {
      for (KThread* thread : queues_[prio]) {
        fn(thread);
      }
    }
  }

  // Invariant audit: each summary bit is set exactly when its priority's
  // queue is non-empty, and size() matches the queued threads. Appends one
  // line per violation.
  void Audit(std::vector<std::string>* violations) const;

 private:
  friend class ReadyQueueTestPeer;  // corruption tests for Audit

  void ClearIfEmpty(int prio) {
    if (queues_[prio].empty()) {
      summary_ &= ~(std::uint32_t{1} << prio);
    }
  }

  std::array<std::deque<KThread*>, kMaxPriority + 1> queues_;
  std::size_t count_ = 0;
  std::uint32_t summary_ = 0;
};

}  // namespace wdmlat::kernel

#endif  // SRC_KERNEL_READY_QUEUE_H_
