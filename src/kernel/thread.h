// Kernel threads.
//
// WDM threads execute at Win32 priorities 1-15 (normal, timesliced) or 16-31
// (real time); 24 is the default real-time priority and the paper measures
// priorities 24 and 28 (Section 4.1). A thread body is a C++20 coroutine
// (ThreadBody): it runs in zero simulated time from the thread's "first
// instruction" after a dispatch up to its next `co_await` of a Kernel
// compute segment or wait, which takes the thread off the CPU until the
// segment elapses or the wait is satisfied. Falling off the end (or
// `co_return`) terminates the thread.

#ifndef SRC_KERNEL_THREAD_H_
#define SRC_KERNEL_THREAD_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "src/kernel/event.h"
#include "src/kernel/irql.h"
#include "src/kernel/label.h"
#include "src/sim/time.h"

namespace wdmlat::kernel {

class KDpc;
class KTimer;

inline constexpr int kMinPriority = 1;
inline constexpr int kMaxNormalPriority = 15;
inline constexpr int kMinRealTimePriority = 16;
inline constexpr int kDefaultRealTimePriority = 24;  // WDM default (paper 2.2)
inline constexpr int kMaxPriority = 31;

enum class ThreadState : std::uint8_t {
  kInitialized,
  kReady,
  kRunning,
  kWaiting,
  kTerminated,
};

// The coroutine type of a thread body. The frame starts suspended (the
// body's first statement runs at the thread's first dispatch) and stays
// suspended at its end until the owning KThread destroys it; an exception a
// body does not catch propagates out of the dispatch that resumed it.
class [[nodiscard]] ThreadBody {
 public:
  struct promise_type {
    ThreadBody get_return_object() {
      return ThreadBody(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { throw; }
  };

  ThreadBody() = default;
  ThreadBody(ThreadBody&& other) noexcept : frame_(std::exchange(other.frame_, {})) {}
  ThreadBody& operator=(ThreadBody&& other) noexcept {
    std::swap(frame_, other.frame_);
    return *this;
  }
  ~ThreadBody() {
    if (frame_) {
      frame_.destroy();
    }
  }

  std::coroutine_handle<> frame() const { return frame_; }

 private:
  explicit ThreadBody(std::coroutine_handle<promise_type> frame) : frame_(frame) {}

  std::coroutine_handle<promise_type> frame_;
};

class KThread {
 public:
  // A user APC (ReadFileEx completion routine): a plain callback run in the
  // thread's context when an alertable wait delivers it.
  using ApcRoutine = std::function<void()>;

  KThread(std::string name, int priority);
  ~KThread();

  KThread(const KThread&) = delete;
  KThread& operator=(const KThread&) = delete;

  const std::string& name() const { return name_; }
  int priority() const { return priority_; }
  int base_priority() const { return base_priority_; }
  ThreadState state() const { return state_; }
  bool real_time() const { return base_priority_ >= kMinRealTimePriority; }

  std::uint64_t dispatch_count() const { return dispatch_count_; }

  // Time at which the thread's current/last wait was satisfied (the instant
  // of the KeSetEvent that readied it) — ground truth for thread latency.
  sim::Cycles wait_signaled_at() const { return wait_signaled_at_; }

  // --- SMP (ignored on uniprocessor profiles) -------------------------------
  // Bit `c` set: the thread may run on core `c`. Default: any core.
  std::uint32_t affinity() const { return affinity_; }
  // Core the thread last started executing on (-1 before its first dispatch).
  int last_core() const { return last_core_; }
  // Core whose runqueue currently holds the thread (meaningful while kReady).
  int ready_core() const { return ready_core_; }

 private:
  friend class Kernel;
  friend class Dispatcher;
  friend class ReadyQueue;
  friend class Smp;

  std::string name_;
  int priority_;
  int base_priority_;
  ThreadState state_ = ThreadState::kInitialized;

  // Where the body continues: at the next dispatch (its first statement, or
  // the end of a wait), or when its compute segment elapses. Null while the
  // body runs.
  std::coroutine_handle<> resume_;

  // User APCs pending delivery; delivered when the thread performs or
  // completes an alertable wait.
  std::deque<ApcRoutine> user_apcs_;
  bool alertable_ = false;
  // The event this thread is blocked on (nullptr for semaphore/mutex waits,
  // which are not alertable); lets an APC abort the wait.
  KEvent* waiting_on_ = nullptr;

  // Saved/pending compute segment (set by Kernel::Compute, or saved on
  // preemption).
  bool has_segment_ = false;
  sim::Cycles seg_remaining_ = 0;
  Irql seg_irql_ = Irql::kPassive;
  Label seg_label_{};

  sim::Cycles readied_at_ = 0;
  sim::Cycles wait_signaled_at_ = 0;
  std::uint64_t dispatch_count_ = 0;

  std::uint32_t affinity_ = ~0u;
  int last_core_ = -1;
  int ready_core_ = 0;

  // Private plumbing for Kernel::Sleep.
  std::unique_ptr<KEvent> sleep_event_;
  std::unique_ptr<KTimer> sleep_timer_;
  std::unique_ptr<KDpc> sleep_dpc_;

  // The thread's entry callable and the body it returned. Declared last:
  // the frame is destroyed first, while everything it may refer to (a
  // capturing lambda's captures, this thread) is still alive.
  std::function<ThreadBody()> entry_;
  ThreadBody body_;
};

}  // namespace wdmlat::kernel

#endif  // SRC_KERNEL_THREAD_H_
