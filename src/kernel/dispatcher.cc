#include "src/kernel/dispatcher.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/kernel/smp.h"

namespace wdmlat::kernel {

Dispatcher::Dispatcher(sim::Engine& engine, sim::Rng rng, hw::InterruptController& pic,
                       ReadyQueue& ready, DpcQueue& dpcs, Config config)
    : engine_(engine), rng_(rng), pic_(pic), ready_(ready), dpcs_(dpcs), cfg_(config) {
  lane_ = engine_.OpenLane([](void* self) { static_cast<Dispatcher*>(self)->OnCompletion(); },
                           this);
  pic_.set_pending_notifier([this] { OnInterruptPending(); });
  dpcs_.set_notifier([this] { OnDpcQueued(); });
}

void Dispatcher::RegisterInterrupt(KInterrupt* interrupt) {
  assert(interrupt != nullptr);
  const int line = interrupt->line();
  if (line >= static_cast<int>(interrupts_.size())) {
    interrupts_.resize(line + 1, nullptr);
  }
  assert(interrupts_[line] == nullptr && "line already connected");
  interrupts_[line] = interrupt;
  Gate gate(this);  // the line may already be pending
}

void Dispatcher::AttachSmp(Smp* smp, int core) {
  smp_ = smp;
  core_ = core;
}

void Dispatcher::PushCoreContext() {
  if (smp_ != nullptr) {
    smp_->PushContext(core_);
  }
}

void Dispatcher::PopCoreContext() {
  if (smp_ != nullptr) {
    smp_->PopContext();
  }
}

void Dispatcher::OnInterruptPending() { Gate gate(this); }

void Dispatcher::OnDpcQueued() { Gate gate(this); }

void Dispatcher::Poke() { Gate gate(this); }

void Dispatcher::RunGated(const std::function<void()>& fn) {
  Gate gate(this);
  fn();
}

void Dispatcher::OnClockTick(sim::Cycles period) {
  // Called from inside the clock ISR handler; a gate is already open.
  if (current_ != nullptr && thread_phase_ == ThreadPhase::kSegment) {
    if (quantum_remaining_ <= period) {
      quantum_expired_ = true;
      quantum_remaining_ = cfg_.quantum;
    } else {
      quantum_remaining_ -= period;
    }
  }
}

Irql Dispatcher::EffectiveIrql() const {
  if (!stack_.empty()) {
    return stack_.back().irql;
  }
  if (dpc_frame_) {
    return Irql::kDispatch;
  }
  if (current_ != nullptr && thread_phase_ != ThreadPhase::kNone) {
    return thread_irql_;
  }
  return Irql::kPassive;
}

Label Dispatcher::CurrentLabel() const {
  return stack_.empty() ? BelowStackLabel() : stack_.back().label;
}

Label Dispatcher::InterruptedLabel() const {
  // With one interrupt frame (or none), what it interrupted is the
  // DPC/thread level.
  return stack_.size() >= 2 ? stack_[stack_.size() - 2].label : BelowStackLabel();
}

Label Dispatcher::BelowStackLabel() const {
  if (dpc_frame_) {
    return dpc_frame_->label;
  }
  if (current_ != nullptr) {
    if (thread_phase_ == ThreadPhase::kSwitch) {
      return kDispatcherLabel;
    }
    if (current_->has_segment_) {
      return current_->seg_label_;
    }
  }
  return kIdleLabel;
}

bool Dispatcher::idle() const {
  return stack_.empty() && !dpc_frame_ && current_ == nullptr;
}

void Dispatcher::AuditDiscipline(std::vector<std::string>* violations) const {
  if (busy_) {
    violations->push_back("gate is open (busy) outside any dispatcher entry point");
  }
  if (in_body_) {
    violations->push_back("thread body marked running at a quiescent point");
  }
  if (spin_waiting_ && dpc_frame_) {
    violations->push_back("core spinning for its DPC queue lock while a DPC frame is active");
  }
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    const Frame& frame = stack_[i];
    if (i > 0 && frame.irql <= stack_[i - 1].irql) {
      violations->push_back("interrupt stack IRQLs not strictly increasing: frame " +
                            std::to_string(i) + " at " + IrqlName(frame.irql) + " (" +
                            std::to_string(ToLevel(frame.irql)) + ") atop frame " +
                            std::to_string(i - 1) + " at " +
                            std::to_string(ToLevel(stack_[i - 1].irql)));
    }
    if (frame.irql > Irql::kHigh) {
      violations->push_back("frame " + std::to_string(i) + " carries IRQL " +
                            std::to_string(ToLevel(frame.irql)) + " above HIGH");
    }
    if (frame.running && i + 1 != stack_.size()) {
      violations->push_back("paused frame " + std::to_string(i) +
                            " below the top of the interrupt stack is marked running");
    }
  }
  if (!stack_.empty()) {
    if (dpc_frame_ && dpc_frame_->running) {
      violations->push_back("DPC frame marked running beneath an active interrupt stack");
    }
    if (thread_running_) {
      violations->push_back("thread timer running beneath an active interrupt stack");
    }
  } else if (dpc_frame_ && dpc_frame_->running && thread_running_) {
    violations->push_back("thread timer running while a DPC is running");
  }
  // The lane holds the one running activity's completion, and nothing else.
  const auto running = std::count_if(stack_.begin(), stack_.end(),
                                     [](const Frame& frame) { return frame.running; }) +
                       (dpc_frame_ && dpc_frame_->running) + thread_running_;
  if (engine_.lane_armed(lane_) != (running == 1)) {
    violations->push_back(std::string("completion lane ") +
                          (engine_.lane_armed(lane_) ? "armed" : "disarmed") + " while " +
                          std::to_string(running) + " activities are marked running");
  }
  ready_.Audit(violations);
}

bool Dispatcher::InjectSection(Irql irql, sim::Cycles length, Label label) {
  Gate gate(this);
  if (EffectiveIrql() >= irql) {
    ++sections_skipped_;
    return false;
  }
  PauseActive();
  stack_.push_back(Frame{.phase = FramePhase::kSection, .irql = irql, .label = label,
                         .started_at = engine_.now(), .remaining = length});
  ++sections_run_;
  Emit(TraceEventType::kSectionStart, label, -1, length);
  return true;
}

void Dispatcher::LockDispatch(sim::Cycles duration) {
  // Label the lockout with the innermost executing activity: callers (VMM
  // sound path, stress injectors) take the lockout from inside their labelled
  // section, so the trace attributes the lockout to the code path that
  // actually requested it rather than to the dispatcher.
  LockDispatch(duration, CurrentLabel());
}

void Dispatcher::LockDispatch(sim::Cycles duration, Label label) {
  Gate gate(this);
  Emit(TraceEventType::kDispatchLockout, label, -1, duration);
  const sim::Cycles until = engine_.now() + duration;
  if (until > lock_until_) {
    lock_until_ = until;
    // Wake the dispatcher when the lockout expires so readied threads run.
    engine_.ScheduleAt(until, [this] { Poke(); });
  }
}

void Dispatcher::ReadyThread(KThread* thread, sim::Cycles signaled_at) {
  Gate gate(this);
  assert(thread->state_ == ThreadState::kWaiting ||
         thread->state_ == ThreadState::kInitialized);
  thread->state_ = ThreadState::kReady;
  thread->readied_at_ = engine_.now();
  thread->wait_signaled_at_ = signaled_at;
  ready_.Push(thread);
  Emit(TraceEventType::kThreadReady, kDispatcherLabel, thread->priority(), 0);
}

void Dispatcher::CurrentThreadSetSegment(sim::Cycles length, Irql irql, Label label,
                                         std::coroutine_handle<> body) {
  assert(in_body_ && current_ != nullptr);
  assert(!current_->has_segment_ && "one compute segment at a time");
  current_->has_segment_ = true;
  current_->seg_remaining_ = length;
  current_->seg_irql_ = irql;
  current_->seg_label_ = label;
  CurrentThreadBlock(body);
}

void Dispatcher::CurrentThreadBlock(std::coroutine_handle<> body) {
  assert(in_body_ && current_ != nullptr);
  assert(!current_->resume_ && "a thread suspends in one segment or wait at a time");
  current_->resume_ = body;
}

void Dispatcher::RequeueReadyThread(KThread* thread) {
  Gate gate(this);
  if (thread->state_ == ThreadState::kReady) {
    const bool removed = ready_.Remove(thread);
    assert(removed);
    (void)removed;
    ready_.Push(thread);
  }
}

// --- Core reevaluation -------------------------------------------------------

void Dispatcher::ReevaluateOnce() {
  // 1. Accept pending interrupts, most privileged first. SMP cores only see
  // the lines the interrupt controller routed to them.
  while (true) {
    const int line = smp_ == nullptr ? pic_.HighestPending(EffectiveIrql())
                                     : pic_.HighestPendingFor(EffectiveIrql(), core_);
    if (line == hw::InterruptController::kNoLine) {
      break;
    }
    AcceptInterrupt(line);
  }
  // 2. Drain the DPC queue when nothing above DISPATCH is active and the
  // thread level is below DISPATCH. On SMP the dequeue takes this core's DPC
  // queue lock; if a fault-injected hold has it, the core spins (blocking
  // this step and thread dispatch) until the release pokes it.
  const bool thread_allows_dpc =
      current_ == nullptr || thread_phase_ == ThreadPhase::kNone || thread_irql_ < Irql::kDispatch;
  if (stack_.empty() && !dpc_frame_ && !dpcs_.empty() && thread_allows_dpc && !spin_waiting_) {
    if (smp_ == nullptr) {
      StartNextDpc();
    } else if (smp_->TryAcquireDpcLock(this)) {
      StartNextDpc();
      smp_->ReleaseDpcLock(this);
    }
  }
  // 3. Thread dispatch decisions.
  if (stack_.empty() && !dpc_frame_ && !spin_waiting_) {
    MaybeDispatchThread();
  }
  // 4. Make sure whatever is now on top is actually executing.
  EnsureActiveRunning();
}

void Dispatcher::AcceptInterrupt(int line) {
  const sim::Cycles asserted = pic_.Acknowledge(line);
  KInterrupt* ki = line < static_cast<int>(interrupts_.size()) ? interrupts_[line] : nullptr;
  if (ki == nullptr) {
    ++spurious_interrupts_;
    return;
  }
  PauseActive();
  stack_.push_back(Frame{.phase = FramePhase::kIsrDispatch, .irql = ki->irql(),
                         .label = kTrapDispatchLabel, .line = line, .interrupt = ki,
                         .queued_at = asserted,
                         .remaining = cfg_.isr_dispatch_overhead.Sample(rng_)});
  ++interrupts_accepted_;
  Emit(TraceEventType::kIsrAccept, kTrapDispatchLabel, line, 0);
}

void Dispatcher::IsrEntry() {
  // The ISR and its hooks may push higher-IRQL sections (reallocating
  // stack_), so the frame is re-found by index after they run.
  const std::size_t index = stack_.size() - 1;
  Frame& frame = stack_[index];
  KInterrupt* ki = frame.interrupt;
  frame.phase = FramePhase::kIsrBody;
  frame.label = ki->label();
  frame.started_at = engine_.now();
  ++ki->fire_count_;
  Emit(TraceEventType::kIsrEnter, frame.label, frame.line, 0);
  if (on_isr_entry) {
    on_isr_entry(frame.line, frame.queued_at, engine_.now());
  }
  PushCoreContext();
  for (const auto& hook : ki->pre_hooks_) {
    hook();
  }
  const sim::Cycles body = ki->isr_ ? ki->isr_() : 0;
  PopCoreContext();
  stack_[index].remaining = body;
}

void Dispatcher::PopFrame() {
  const Frame& frame = stack_.back();  // a section's line is -1
  Emit(frame.phase == FramePhase::kIsrBody ? TraceEventType::kIsrExit : TraceEventType::kSectionEnd,
       frame.label, frame.line, engine_.now() - frame.started_at);
  stack_.pop_back();
}

void Dispatcher::StartNextDpc() {
  KDpc* dpc = dpcs_.Pop();
  assert(dpc != nullptr);
  const sim::Cycles enqueued = dpc->enqueue_time();
  PauseActive();
  dpc_frame_ = Frame{.phase = FramePhase::kDpcFetch, .irql = Irql::kDispatch,
                     .label = kDispatcherLabel,  // dequeue overhead phase
                     .dpc = dpc, .queued_at = enqueued,
                     .remaining = cfg_.dpc_dispatch_cost.Sample(rng_)};
  ++dpcs_dispatched_;
  Emit(TraceEventType::kDpcFetch, kDispatcherLabel, -1, 0);
}

void Dispatcher::DpcEntry() {
  Frame& frame = *dpc_frame_;
  KDpc* dpc = frame.dpc;
  const sim::Cycles enqueued = frame.queued_at;
  frame.phase = FramePhase::kDpcBody;
  frame.label = dpc->label();
  ++dpc->dispatch_count_;
  if (on_dpc_start) {
    on_dpc_start(*dpc, enqueued, engine_.now());
  }
  Emit(TraceEventType::kDpcStart, dpc->label(), -1, engine_.now() - enqueued);
  if (dpc->routine_) {
    PushCoreContext();
    dpc->routine_();
    PopCoreContext();
  }
  frame.remaining = dpc->body_.Sample(rng_);
  frame.started_at = engine_.now();
}

void Dispatcher::FinishDpc() {
  KDpc* dpc = dpc_frame_->dpc;
  const sim::Cycles started = dpc_frame_->started_at;
  dpc_frame_.reset();
  Emit(TraceEventType::kDpcEnd, dpc->label(), -1, engine_.now() - started);
  if (dpc->on_complete_) {
    PushCoreContext();
    dpc->on_complete_();
    PopCoreContext();
  }
}

void Dispatcher::MaybeDispatchThread() {
  const bool locked = lock_until_ > engine_.now();
  if (current_ == nullptr) {
    if (locked) {
      return;
    }
    // An idle SMP core may steal a ready thread from a loaded sibling.
    if (ready_.empty() && (smp_ == nullptr || !smp_->StealInto(core_))) {
      return;
    }
    SwitchTo(ready_.Pop());
    return;
  }
  if (thread_phase_ == ThreadPhase::kSwitch) {
    return;  // let the in-progress dispatch finish
  }
  if (thread_irql_ >= Irql::kDispatch) {
    return;  // a raised-IRQL segment cannot be switched away from
  }
  if (locked) {
    return;
  }
  const int top = ready_.top_priority();
  if (top < 0) {
    quantum_expired_ = false;
    return;
  }
  if (top > current_->priority_) {
    PreemptCurrent(/*to_front=*/true);
    SwitchTo(ready_.Pop());
  } else if (quantum_expired_ && top == current_->priority_) {
    quantum_expired_ = false;
    PreemptCurrent(/*to_front=*/false);
    SwitchTo(ready_.Pop());
  } else {
    quantum_expired_ = false;
  }
}

void Dispatcher::SwitchTo(KThread* thread) {
  assert(current_ == nullptr);
  assert(thread->state_ == ThreadState::kReady);
  current_ = thread;
  thread->state_ = ThreadState::kRunning;
  thread->last_core_ = core_;
  thread_phase_ = ThreadPhase::kSwitch;
  thread_irql_ = Irql::kDispatch;
  switch_remaining_ = cfg_.context_switch_cost.Sample(rng_);
  thread_running_ = false;
  quantum_remaining_ = cfg_.quantum;
  quantum_expired_ = false;
  ++context_switches_;
  Emit(TraceEventType::kContextSwitch, kDispatcherLabel, thread->priority(), 0);
}

void Dispatcher::PreemptCurrent(bool to_front) {
  assert(current_ != nullptr && thread_phase_ == ThreadPhase::kSegment);
  PauseThreadTimer();
  KThread* thread = current_;
  thread->readied_at_ = engine_.now();
  ready_.Push(thread, to_front);
  StopCurrent(ThreadState::kReady);
}

void Dispatcher::StopCurrent(ThreadState state) {
  KThread* thread = current_;
  thread->state_ = state;
  current_ = nullptr;
  thread_phase_ = ThreadPhase::kNone;
  thread_irql_ = Irql::kPassive;
  Emit(TraceEventType::kThreadStop, kDispatcherLabel, thread->priority(), 0);
}

void Dispatcher::ThreadEntry() {
  KThread* thread = current_;
  ++thread->dispatch_count_;
  if (thread->has_segment_) {
    // Resuming a compute segment that was preempted earlier.
    thread_phase_ = ThreadPhase::kSegment;
    thread_irql_ = thread->seg_irql_;
    Emit(TraceEventType::kThreadRun, thread->seg_label_, thread->priority(), 0);
    return;
  }
  thread_phase_ = ThreadPhase::kSegment;
  thread_irql_ = Irql::kPassive;
  Emit(TraceEventType::kThreadRun, kDispatcherLabel, thread->priority(),
       engine_.now() - thread->wait_signaled_at_);
  if (on_thread_dispatch) {
    on_thread_dispatch(*thread, thread->wait_signaled_at_, engine_.now());
  }
  ResumeBody();
}

void Dispatcher::ResumeBody() {
  assert(!in_body_);
  KThread* thread = current_;
  const std::coroutine_handle<> body = std::exchange(thread->resume_, {});
  assert(body && !body.done());
  in_body_ = true;
  PushCoreContext();
  body.resume();
  PopCoreContext();
  in_body_ = false;
  if (body.done()) {
    StopCurrent(ThreadState::kTerminated);
  } else if (thread->has_segment_) {
    thread_phase_ = ThreadPhase::kSegment;
    thread_irql_ = thread->seg_irql_;
  } else {
    assert(thread->resume_ && "a body suspends only by awaiting the Kernel");
    StopCurrent(ThreadState::kWaiting);
  }
}

void Dispatcher::OnThreadElapsed() {
  thread_running_ = false;
  assert(current_ != nullptr);
  if (thread_phase_ == ThreadPhase::kSwitch) {
    ThreadEntry();
    return;
  }
  assert(thread_phase_ == ThreadPhase::kSegment && current_->has_segment_);
  current_->has_segment_ = false;
  thread_irql_ = Irql::kPassive;
  ResumeBody();
}

void Dispatcher::OnCompletion() {
  Gate gate(this);
  Frame* frame = !stack_.empty() ? &stack_.back() : dpc_frame_ ? &*dpc_frame_ : nullptr;
  if (frame == nullptr) {
    OnThreadElapsed();
    return;
  }
  assert(frame->running);
  frame->running = false;
  switch (frame->phase) {
    case FramePhase::kIsrDispatch:
      return IsrEntry();
    case FramePhase::kDpcFetch:
      return DpcEntry();
    case FramePhase::kDpcBody:
      return FinishDpc();
    case FramePhase::kIsrBody:
    case FramePhase::kSection:
      return PopFrame();
  }
}

// --- Pause / resume machinery -------------------------------------------------

void Dispatcher::PauseActive() {
  if (!stack_.empty()) {
    PauseFrame(stack_.back());
    return;
  }
  if (dpc_frame_) {
    PauseFrame(*dpc_frame_);
    return;
  }
  PauseThreadTimer();
}

void Dispatcher::EnsureActiveRunning() {
  if (!stack_.empty()) {
    ResumeFrame(stack_.back());
    return;
  }
  if (dpc_frame_) {
    ResumeFrame(*dpc_frame_);
    return;
  }
  if (current_ != nullptr && thread_phase_ != ThreadPhase::kNone) {
    ResumeThreadTimer();
  }
}

void Dispatcher::PauseFrame(Frame& frame) {
  if (frame.running) {
    frame.remaining = engine_.DisarmLane(lane_);
    frame.running = false;
  }
}

void Dispatcher::ResumeFrame(Frame& frame) {
  if (!frame.running) {
    frame.running = true;
    engine_.ArmLane(lane_, frame.remaining);
  }
}

sim::Cycles& Dispatcher::ActiveThreadRemaining() {
  return thread_phase_ == ThreadPhase::kSwitch ? switch_remaining_ : current_->seg_remaining_;
}

void Dispatcher::PauseThreadTimer() {
  if (thread_running_) {
    ActiveThreadRemaining() = engine_.DisarmLane(lane_);
    thread_running_ = false;
  }
}

void Dispatcher::ResumeThreadTimer() {
  if (thread_running_) {
    return;
  }
  assert(current_ != nullptr && thread_phase_ != ThreadPhase::kNone);
  // A segment phase with no segment means the body is running on
  // this very timestamp; it will resolve before the gate closes.
  if (thread_phase_ == ThreadPhase::kSegment && !current_->has_segment_) {
    return;
  }
  thread_running_ = true;
  engine_.ArmLane(lane_, ActiveThreadRemaining());
}

}  // namespace wdmlat::kernel
