#include "src/kernel/kernel.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace wdmlat::kernel {

namespace {
constexpr Label kWorkerLabel{"NTOSKRNL", "_ExpWorkerThread"};
constexpr Label kTimerExpirationLabel{"NTOSKRNL", "_KiTimerExpiration"};
}  // namespace

Kernel::Kernel(sim::Engine& engine, sim::Rng rng, hw::InterruptController& pic, hw::Pit& pit,
               int pit_line, KernelProfile profile)
    : engine_(engine), rng_(rng), pic_(pic), pit_(pit), profile_(std::move(profile)) {
  Dispatcher::Config config;
  config.isr_dispatch_overhead = profile_.isr_dispatch_overhead;
  config.context_switch_cost = profile_.context_switch_cost;
  config.dpc_dispatch_cost = profile_.dpc_dispatch_cost;
  config.quantum = sim::MsToCycles(profile_.quantum_ms);
  dispatcher_ =
      std::make_unique<Dispatcher>(engine_, rng_.Fork(), pic_, ready_, dpcs_, config);

  clock_interrupt_ = IoConnectInterrupt(pit_line, Irql::kClock, kClockIsrLabel,
                                        [this]() -> sim::Cycles { return ClockIsr(); });

  pit_.SetFrequencyHz(profile_.default_clock_hz);
  pit_.Start();

  worker_thread_ = PsCreateSystemThread("System worker", profile_.worker_thread_priority,
                                        [this] { return WorkerLoop(); });

  if (IsSmp(profile_)) {
    // Construct the SMP extension last: every RNG fork it makes comes after
    // the uniprocessor forks above, so cores == 1 profiles reproduce the
    // pre-SMP streams bit for bit. The boot-time threads above started on
    // core 0, as they should.
    smp_ = std::make_unique<Smp>(engine_, rng_, pic_, profile_, pit_line, *dispatcher_,
                                 ready_, dpcs_, config, interrupts_);
  }
}

Kernel::~Kernel() = default;

sim::Cycles Kernel::ClockIsr() {
  dispatcher_->OnClockTick(pit_.period());
  if (smp_) {
    smp_->OnClockTick(pit_.period());  // quantum broadcast, as a clock IPI
  }
  const int expired =
      timers_.ExpireDue(engine_.now(), [this](KTimer* /*timer*/, KDpc* dpc) {
        if (dpc != nullptr) {
          QueueDpc(dpc);
        }
      });
  return profile_.clock_isr_body.Sample(rng_) +
         sim::UsToCycles(profile_.clock_isr_per_timer_us * expired);
}

bool Kernel::QueueDpc(KDpc* dpc) {
  return smp_ ? smp_->InsertDpc(dpc) : dpcs_.Insert(dpc, engine_.now());
}

void Kernel::ReadyThread(KThread* thread, sim::Cycles signaled_at) {
  if (smp_) {
    smp_->ReadyThread(thread, signaled_at);
  } else {
    dispatcher_->ReadyThread(thread, signaled_at);
  }
}

void Kernel::KeSetEvent(KEvent* event) {
  assert(event != nullptr);
  const sim::Cycles now = engine_.now();
  if (event->waiters_.empty()) {
    event->signaled_ = true;
    return;
  }
  auto wake = [this, now](KThread* waiter) {
    // NT boosts normal-band threads when an event wait is satisfied; the
    // boost decays at the thread's next wait. Real-time threads are never
    // boosted.
    if (waiter->base_priority_ <= kMaxNormalPriority && profile_.wait_boost > 0) {
      waiter->priority_ =
          std::min(kMaxNormalPriority, waiter->base_priority_ + profile_.wait_boost);
    }
    ReadyThread(waiter, now);
  };
  if (event->type_ == EventType::kSynchronization) {
    KThread* waiter = event->waiters_.front();
    event->waiters_.pop_front();
    wake(waiter);  // auto-clearing: the signal is consumed by this wait
  } else {
    event->signaled_ = true;
    // Ready every waiter before any dispatch decision, as the real
    // dispatcher does while holding the dispatcher lock.
    CurrentDispatcher().RunGated([&] {
      for (KThread* waiter : event->waiters_) {
        wake(waiter);
      }
      event->waiters_.clear();
    });
  }
}

bool Kernel::KeReleaseSemaphore(KSemaphore* semaphore, int count) {
  assert(semaphore != nullptr && count > 0);
  if (semaphore->count_ + count > semaphore->limit_) {
    return false;  // STATUS_SEMAPHORE_LIMIT_EXCEEDED
  }
  const sim::Cycles now = engine_.now();
  CurrentDispatcher().RunGated([&] {
    semaphore->count_ += count;
    while (semaphore->count_ > 0 && !semaphore->waiters_.empty()) {
      KThread* waiter = semaphore->waiters_.front();
      semaphore->waiters_.pop_front();
      --semaphore->count_;
      ReadyThread(waiter, now);
    }
  });
  return true;
}

bool Kernel::Suspend(KSemaphore* semaphore, std::coroutine_handle<> body) {
  Dispatcher& dispatcher = CurrentDispatcher();
  KThread* current = dispatcher.current_thread();
  assert(current != nullptr && dispatcher.in_thread_body());
  if (semaphore->count_ > 0) {
    --semaphore->count_;
    return false;
  }
  current->priority_ = current->base_priority_;
  semaphore->waiters_.push_back(current);
  dispatcher.CurrentThreadBlock(body);
  return true;
}

void Kernel::KeReleaseMutex(KMutex* mutex) {
  [[maybe_unused]] KThread* current = CurrentDispatcher().current_thread();
  assert(current != nullptr);
  assert(mutex->owner_ == current && "mutex released by non-owner");
  if (--mutex->recursion_ > 0) {
    return;
  }
  if (mutex->waiters_.empty()) {
    mutex->owner_ = nullptr;
    return;
  }
  KThread* next = mutex->waiters_.front();
  mutex->waiters_.pop_front();
  mutex->owner_ = next;
  mutex->recursion_ = 1;
  ReadyThread(next, engine_.now());
}

bool Kernel::Suspend(KMutex* mutex, std::coroutine_handle<> body) {
  Dispatcher& dispatcher = CurrentDispatcher();
  KThread* current = dispatcher.current_thread();
  assert(current != nullptr && dispatcher.in_thread_body());
  if (mutex->owner_ == nullptr) {
    mutex->owner_ = current;
    mutex->recursion_ = 1;
    return false;
  }
  if (mutex->owner_ == current) {
    ++mutex->recursion_;  // recursive acquisition
    return false;
  }
  current->priority_ = current->base_priority_;
  mutex->waiters_.push_back(current);
  dispatcher.CurrentThreadBlock(body);
  return true;
}

void Kernel::KeSetTimerMs(KTimer* timer, double ms, KDpc* dpc) {
  timers_.Set(timer, engine_.now() + sim::MsToCycles(ms), 0, dpc);
}

void Kernel::KeSetTimerPeriodicMs(KTimer* timer, double first_ms, double period_ms, KDpc* dpc) {
  timers_.Set(timer, engine_.now() + sim::MsToCycles(first_ms), sim::MsToCycles(period_ms), dpc);
}

KThread* Kernel::PsCreateSystemThread(std::string name, int priority,
                                      std::function<ThreadBody()> entry) {
  auto thread = std::make_unique<KThread>(std::move(name), priority);
  KThread* raw = thread.get();
  // Call the entry where it will live: the frame may refer to it.
  raw->entry_ = std::move(entry);
  raw->body_ = raw->entry_();
  raw->resume_ = raw->body_.frame();
  threads_.push_back(std::move(thread));
  ReadyThread(raw, engine_.now());
  return raw;
}

void Kernel::KeSetPriorityThread(KThread* thread, int priority) {
  assert(priority >= kMinPriority && priority <= kMaxPriority);
  thread->base_priority_ = priority;
  thread->priority_ = priority;
  if (smp_) {
    smp_->RequeueReadyThread(thread);
    smp_->PokeAll();
  } else {
    dispatcher_->RequeueReadyThread(thread);
    dispatcher_->Poke();
  }
}

void Kernel::KeSetAffinityThread(KThread* thread, std::uint32_t affinity) {
  assert(affinity != 0 && "affinity mask must allow at least one core");
  if (smp_) {
    smp_->SetAffinity(thread, affinity);
  } else {
    thread->affinity_ = affinity;  // bookkeeping only on UP
  }
}

bool Kernel::Suspend(const Segment& segment, std::coroutine_handle<> body) {
  CurrentDispatcher().CurrentThreadSetSegment(segment.length, segment.irql, segment.label,
                                              body);
  return true;
}

bool Kernel::Suspend(KEvent* event, std::coroutine_handle<> body) {
  Dispatcher& dispatcher = CurrentDispatcher();
  KThread* current = dispatcher.current_thread();
  assert(current != nullptr && dispatcher.in_thread_body());
  if (event->signaled_) {
    if (event->type_ == EventType::kSynchronization) {
      event->signaled_ = false;
    }
    // Wait satisfied immediately: no block, no dispatch.
    return false;
  }
  // Boost decays when the thread waits again.
  current->priority_ = current->base_priority_;
  event->waiters_.push_back(current);
  dispatcher.CurrentThreadBlock(body);
  return true;
}

bool Kernel::Suspend(const AlertableWait& wait, std::coroutine_handle<> body) {
  Dispatcher& dispatcher = CurrentDispatcher();
  KThread* current = dispatcher.current_thread();
  assert(current != nullptr && dispatcher.in_thread_body());
  if (!current->user_apcs_.empty()) {
    // APCs pending: EndAlertableWait delivers them at once; the wait
    // returns WAIT_IO_COMPLETION.
    return false;
  }
  if (wait.event->signaled_) {
    if (wait.event->type_ == EventType::kSynchronization) {
      wait.event->signaled_ = false;
    }
    return false;
  }
  current->priority_ = current->base_priority_;
  current->alertable_ = true;
  current->waiting_on_ = wait.event;
  wait.event->waiters_.push_back(current);
  dispatcher.CurrentThreadBlock(body);
  return true;
}

void Kernel::EndAlertableWait() {
  KThread* thread = CurrentDispatcher().current_thread();
  thread->alertable_ = false;
  thread->waiting_on_ = nullptr;
  while (!thread->user_apcs_.empty()) {
    KThread::ApcRoutine apc = std::move(thread->user_apcs_.front());
    thread->user_apcs_.pop_front();
    apc();
  }
}

void Kernel::QueueUserApc(KThread* thread, KThread::ApcRoutine apc) {
  assert(thread != nullptr);
  thread->user_apcs_.push_back(std::move(apc));
  if (thread->state_ == ThreadState::kWaiting && thread->alertable_ &&
      thread->waiting_on_ != nullptr) {
    // Abort the alertable wait: remove the thread from the event's waiter
    // list and ready it; the body's EndAlertableWait delivers the APCs.
    auto& waiters = thread->waiting_on_->waiters_;
    for (auto it = waiters.begin(); it != waiters.end(); ++it) {
      if (*it == thread) {
        waiters.erase(it);
        break;
      }
    }
    ReadyThread(thread, engine_.now());
  }
}

Kernel::Awaiter<KEvent*> Kernel::Sleep(double ms) {
  KThread* current = CurrentDispatcher().current_thread();
  assert(current != nullptr);
  if (!current->sleep_event_) {
    current->sleep_event_ = std::make_unique<KEvent>(EventType::kSynchronization);
    current->sleep_timer_ = std::make_unique<KTimer>();
    KEvent* event = current->sleep_event_.get();
    current->sleep_dpc_ = std::make_unique<KDpc>([this, event] { KeSetEvent(event); },
                                                 sim::DurationDist::Constant(0.5),
                                                 kTimerExpirationLabel);
  }
  KeSetTimerMs(current->sleep_timer_.get(), ms, current->sleep_dpc_.get());
  return Wait(current->sleep_event_.get());
}

KInterrupt* Kernel::IoConnectInterrupt(int line, Irql irql, Label label,
                                       KInterrupt::ServiceRoutine isr) {
  auto interrupt = std::make_unique<KInterrupt>(line, irql, label, std::move(isr));
  KInterrupt* raw = interrupt.get();
  interrupts_.push_back(std::move(interrupt));
  dispatcher_->RegisterInterrupt(raw);
  if (smp_) {
    smp_->RegisterInterrupt(raw);  // mirror onto the non-boot cores
  }
  return raw;
}

void Kernel::ExQueueWorkItem(double us, Label label) {
  work_queue_.push_back(WorkItem{sim::UsToCycles(us), label});
  KeSetEvent(&work_event_);
}

ThreadBody Kernel::WorkerLoop() {
  for (;;) {
    while (work_queue_.empty()) {
      co_await Wait(&work_event_);
    }
    const WorkItem item = work_queue_.front();
    work_queue_.pop_front();
    co_await Awaiter<Segment>(*this, {item.duration, Irql::kPassive, item.label});
  }
}

bool Kernel::InjectKernelSection(Irql irql, double us, Label label) {
  return CurrentDispatcher().InjectSection(irql, sim::UsToCycles(us), label);
}

void Kernel::LockDispatch(double us) {
  CurrentDispatcher().LockDispatch(sim::UsToCycles(us));
}

void Kernel::LockDispatch(double us, Label label) {
  CurrentDispatcher().LockDispatch(sim::UsToCycles(us), label);
}

void Kernel::StartSelfNoise() {
  auto add = [this](double rate, sim::DurationDist len, auto action) {
    if (rate <= 0.0) {
      return;
    }
    auto process = std::make_unique<sim::PoissonProcess>(
        engine_, rng_.Fork(), rate,
        [this, len, action]() mutable { action(this, len.SampleUs(rng_)); });
    process->Start();
    self_noise_.push_back(std::move(process));
  };
  add(profile_.masked_section_rate_per_s, profile_.masked_section_len,
      [](Kernel* k, double us) {
        k->InjectKernelSection(Irql::kHigh, us, Label{"HAL", "_masked_section"});
      });
  add(profile_.dispatch_section_rate_per_s, profile_.dispatch_section_len,
      [](Kernel* k, double us) {
        k->InjectKernelSection(Irql::kDispatch, us, Label{"NTOSKRNL", "_dispatch_section"});
      });
  add(profile_.lockout_rate_per_s, profile_.lockout_len, [](Kernel* k, double us) {
    k->LockDispatch(us);
  });
}

}  // namespace wdmlat::kernel
