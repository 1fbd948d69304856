// The CPU execution model / dispatcher: the heart of the simulation.
//
// A single CPU executes, at any instant, exactly one of (from most to least
// privileged):
//   1. the top entry of the interrupt stack — an ISR at its device IRQL, or
//      an injected kernel section (a legacy cli region or a raised-IRQL code
//      path from a driver/VMM);
//   2. the running DPC (at DISPATCH level);
//   3. the current thread's compute segment (at the segment's IRQL,
//      usually PASSIVE), or the in-progress context switch (at DISPATCH);
//   4. nothing (idle).
//
// Each timed entity is preemptible: when a more privileged entity becomes
// runnable, the active one is paused (its remaining work saved) and resumed
// when the stack above it drains. Only the innermost entity ever runs, so a
// core has exactly one pending completion; it lives in a single engine
// deadline lane (sim::Engine::ArmLane) that resuming arms and pausing
// disarms, and its handler is the running frame's phase — no per-frame
// event, callback or allocation. Pending interrupts are accepted only when
// the effective IRQL drops below their line's IRQL — the time from assertion
// to ISR entry is the paper's interrupt latency. DPCs drain FIFO when no ISR
// is active — queueing delay is the paper's DPC latency. Threads dispatch
// when nothing above them is active, the scheduler picks them, and thread
// dispatching is not locked out — on Windows 98, legacy VMM critical sections
// lock dispatching for milliseconds while DPCs still run, which is exactly
// the asymmetry the paper measures (Section 4.2).

#ifndef SRC_KERNEL_DISPATCHER_H_
#define SRC_KERNEL_DISPATCHER_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/hw/interrupt_controller.h"
#include "src/kernel/dpc.h"
#include "src/kernel/interrupt.h"
#include "src/kernel/irql.h"
#include "src/kernel/label.h"
#include "src/kernel/ready_queue.h"
#include "src/kernel/thread.h"
#include "src/kernel/trace.h"
#include "src/sim/engine.h"
#include "src/sim/rng.h"

namespace wdmlat::kernel {

class Smp;

class Dispatcher {
 public:
  struct Config {
    sim::DurationDist isr_dispatch_overhead;
    sim::DurationDist context_switch_cost;
    sim::DurationDist dpc_dispatch_cost;
    sim::Cycles quantum = 20 * sim::kCyclesPerMs;
  };

  Dispatcher(sim::Engine& engine, sim::Rng rng, hw::InterruptController& pic,
             ReadyQueue& ready, DpcQueue& dpcs, Config config);

  ~Dispatcher() { engine_.CloseLane(lane_); }
  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  // --- Wiring ---------------------------------------------------------------
  void RegisterInterrupt(KInterrupt* interrupt);

  // SMP attachment (kernel::Smp, cores > 1 only). With no Smp attached the
  // dispatcher runs the exact uniprocessor code path: every SMP hook below
  // is a null check, interrupt acceptance uses the PIC's unrouted scan, and
  // emitted trace events carry core 0.
  void AttachSmp(Smp* smp, int core);
  int core() const { return core_; }

  // Spin-wait window (set by Smp while this core spins for a held spinlock
  // at DISPATCH level): DPC drain and thread dispatch are blocked, but
  // interrupts above DISPATCH are still accepted.
  void BeginSpinWait() { spin_waiting_ = true; }
  void EndSpinWait() { spin_waiting_ = false; }
  bool spin_waiting() const { return spin_waiting_; }

  // Trace emission for Smp (spinlock grants, IPI deliveries on this core).
  void EmitSmpEvent(TraceEventType type, Label label, sim::Cycles duration) {
    Emit(type, label, -1, duration);
  }

  // --- Notifications (also wired to the PIC and DPC queue automatically) ---
  void OnInterruptPending();
  void OnDpcQueued();
  // Re-run dispatch decisions after external state changes (priority change
  // etc.).
  void Poke();
  // Run `fn` with the dispatch decision deferred until it returns, so a
  // batch of state changes (e.g. readying all waiters of a notification
  // event) is folded into a single scheduling decision, as a real kernel
  // does under the dispatcher lock.
  void RunGated(const std::function<void()>& fn);
  // Quantum accounting, called by the clock ISR with the tick period.
  void OnClockTick(sim::Cycles period);

  // --- Introspection ---------------------------------------------------------
  Irql EffectiveIrql() const;
  // Label of the innermost executing activity.
  Label CurrentLabel() const;
  // Label of the activity beneath the top interrupt frame: what the latest
  // interrupt interrupted. This is what the cause tool's IDT hook samples.
  Label InterruptedLabel() const;
  KThread* current_thread() const { return current_; }
  // True while the current thread's body runs (between a resume and its
  // next suspension).
  bool in_thread_body() const { return in_body_; }
  bool dispatch_locked() const { return lock_until_ > engine_.now(); }
  bool idle() const;

  // IRQL / dispatcher-lock discipline audit for sim::InvariantAuditor, run
  // from engine-idle context (between simulation slices, never from inside a
  // Gate). Validates: no gate is open, interrupt-stack IRQLs strictly
  // increase bottom-to-top and stay above DISPATCH, exactly the innermost
  // activity (top frame, else DPC, else thread) is marked running, paused
  // activities below it are not, the core's completion lane is armed
  // exactly when one activity is marked running, and the core's ready
  // summary matches its ready queues (ReadyQueue::Audit). Appends one line
  // per violation.
  void AuditDiscipline(std::vector<std::string>* violations) const;

  // --- Legacy / stress injection ---------------------------------------------
  // Run a kernel code section at `irql` for `length` cycles, preempting
  // whatever is below that level. Returns false (and runs nothing) if the
  // CPU is already at or above `irql`.
  bool InjectSection(Irql irql, sim::Cycles length, Label label);
  // Disable thread dispatching for `duration` (Windows 98 Win16Mutex / VMM
  // critical section model). Overlapping lockouts extend the window. The
  // unlabelled form blames the innermost executing activity; callers that
  // take the lockout from engine-event context (the fault injector) pass an
  // explicit label so the trace blames them rather than whatever they
  // happened to interrupt.
  void LockDispatch(sim::Cycles duration);
  void LockDispatch(sim::Cycles duration, Label label);

  // --- Thread control (called by the Kernel facade) ---------------------------
  // Move a waiting/new thread to the ready state. `signaled_at` is the
  // instant of the event signal that readied it (ground truth for thread
  // latency; pass the current time for plain starts).
  void ReadyThread(KThread* thread, sim::Cycles signaled_at);
  // The following two are called from a thread body's awaiter as the body
  // suspends: `body` resumes when the segment elapses, or when the wait is
  // satisfied and the thread is dispatched again.
  void CurrentThreadSetSegment(sim::Cycles length, Irql irql, Label label,
                               std::coroutine_handle<> body);
  void CurrentThreadBlock(std::coroutine_handle<> body);
  // Reposition a ready thread after a priority change.
  void RequeueReadyThread(KThread* thread);

  // --- Event tracing -----------------------------------------------------------
  // Install (or remove, with nullptr) a structured trace sink receiving every
  // dispatcher transition. Zero cost when unset.
  void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }

  // --- Ground-truth observers (tests, NT interrupt-latency collection) -------
  std::function<void(int line, sim::Cycles asserted, sim::Cycles isr_entry)> on_isr_entry;
  std::function<void(const KDpc& dpc, sim::Cycles enqueued, sim::Cycles start)> on_dpc_start;
  std::function<void(const KThread& thread, sim::Cycles signaled, sim::Cycles dispatched)>
      on_thread_dispatch;

  // --- Statistics --------------------------------------------------------------
  std::uint64_t interrupts_accepted() const { return interrupts_accepted_; }
  std::uint64_t spurious_interrupts() const { return spurious_interrupts_; }
  std::uint64_t context_switches() const { return context_switches_; }
  std::uint64_t dpcs_dispatched() const { return dpcs_dispatched_; }
  std::uint64_t sections_skipped() const { return sections_skipped_; }
  std::uint64_t sections_run() const { return sections_run_; }

 private:
  enum class ThreadPhase : std::uint8_t { kNone, kSwitch, kSegment };
  // What a frame's completion does when its remaining work elapses: an ISR
  // frame runs the trap/dispatch overhead, then the ISR body, then pops; a
  // DPC frame runs the dequeue overhead, then the DPC body, then finishes;
  // a section runs once and pops.
  enum class FramePhase : std::uint8_t { kIsrDispatch, kIsrBody, kSection, kDpcFetch, kDpcBody };

  struct Frame {
    FramePhase phase = FramePhase::kSection;
    Irql irql = Irql::kHigh;
    Label label{};
    bool running = false;
    int line = -1;                     // ISR frames
    KInterrupt* interrupt = nullptr;   // ISR frames
    KDpc* dpc = nullptr;               // DPC frames
    sim::Cycles queued_at = 0;         // ISR: line assertion; DPC: enqueue
    sim::Cycles started_at = 0;        // section: creation; ISR/DPC: body entry
    sim::Cycles remaining = 0;
  };

  // Re-entrancy gate: every public entry point opens one; the outermost gate
  // runs the reevaluation loop on exit, so state changes made inside
  // thread bodies and handlers are folded into a single consistent pass.
  class Gate {
   public:
    explicit Gate(Dispatcher* d) : d_(d), outer_(!d->busy_) { d_->busy_ = true; }
    ~Gate() {
      if (!outer_) {
        d_->pending_ = true;
        return;
      }
      do {
        d_->pending_ = false;
        d_->ReevaluateOnce();
      } while (d_->pending_);
      d_->busy_ = false;
    }

   private:
    Dispatcher* d_;
    bool outer_;
  };
  friend class Gate;

  void ReevaluateOnce();
  // Label of the DPC/thread level beneath the interrupt stack.
  Label BelowStackLabel() const;
  void AcceptInterrupt(int line);
  void IsrEntry();
  void PopFrame();
  void StartNextDpc();
  void DpcEntry();
  void FinishDpc();
  void MaybeDispatchThread();
  void SwitchTo(KThread* thread);
  void PreemptCurrent(bool to_front);
  // Take the current thread off the CPU in `state` (ready, waiting, done).
  void StopCurrent(ThreadState state);
  void ThreadEntry();
  // Resume the current thread's body where it last suspended; when it
  // suspends again, it is computing, waiting, or done.
  void ResumeBody();
  void OnThreadElapsed();
  // The lane handler: the innermost activity's remaining work has elapsed.
  void OnCompletion();

  // Current-core context tracking for Smp (no-ops when unattached).
  void PushCoreContext();
  void PopCoreContext();

  // The core's single active completion — top frame, else DPC frame, else
  // the current thread's switch or segment — lives in one engine lane:
  // Resume* arms it with the activity's remaining work, Pause* disarms it
  // and banks what is left.
  void PauseActive();
  void EnsureActiveRunning();
  void PauseFrame(Frame& frame);
  void ResumeFrame(Frame& frame);
  void PauseThreadTimer();
  void ResumeThreadTimer();
  sim::Cycles& ActiveThreadRemaining();

  sim::Engine& engine_;
  sim::Rng rng_;
  hw::InterruptController& pic_;
  ReadyQueue& ready_;
  DpcQueue& dpcs_;
  Config cfg_;

  std::vector<KInterrupt*> interrupts_;  // indexed by line

  sim::Engine::LaneId lane_;
  std::vector<Frame> stack_;
  std::optional<Frame> dpc_frame_;

  KThread* current_ = nullptr;
  ThreadPhase thread_phase_ = ThreadPhase::kNone;
  sim::Cycles switch_remaining_ = 0;
  Irql thread_irql_ = Irql::kPassive;
  bool thread_running_ = false;
  sim::Cycles quantum_remaining_ = 0;
  bool quantum_expired_ = false;

  sim::Cycles lock_until_ = 0;

  Smp* smp_ = nullptr;
  int core_ = 0;
  bool spin_waiting_ = false;

  TraceSink* trace_sink_ = nullptr;
  void Emit(TraceEventType type, Label label, int arg, sim::Cycles duration) {
    if (trace_sink_ != nullptr) {
      trace_sink_->OnTraceEvent(TraceEvent{type, engine_.now(), label, arg, duration, core_});
    }
  }

  bool busy_ = false;
  bool pending_ = false;
  bool in_body_ = false;

  std::uint64_t interrupts_accepted_ = 0;
  std::uint64_t spurious_interrupts_ = 0;
  std::uint64_t context_switches_ = 0;
  std::uint64_t dpcs_dispatched_ = 0;
  std::uint64_t sections_skipped_ = 0;
  std::uint64_t sections_run_ = 0;
};

}  // namespace wdmlat::kernel

#endif  // SRC_KERNEL_DISPATCHER_H_
