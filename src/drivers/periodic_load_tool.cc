#include "src/drivers/periodic_load_tool.h"

#include <cassert>

namespace wdmlat::drivers {

using kernel::Label;

PeriodicTask::PeriodicTask(kernel::Kernel& kernel, Config config)
    : kernel_(kernel),
      cfg_(config),
      dpc_([this] { OnTimerExpiry(); },
           // DPC modality: the computation runs in the DPC body itself —
           // exactly the multi-millisecond "interrupt context" processing
           // the paper describes for Windows 98 soft modems. Thread
           // modality: the DPC only signals the thread.
           cfg_.modality == Modality::kDpc
               ? sim::DurationDist::Constant(cfg_.compute_ms * 1000.0)
               : sim::DurationDist::Constant(2.0),
           cfg_.modality == Modality::kDpc ? Label{"SOFTMODM", "_DatapumpDpc"}
                                           : Label{"SOFTMODM", "_WakeDatapump"}) {
  if (cfg_.modality == Modality::kDpc) {
    dpc_.set_on_complete([this] { OnComputationDone(); });
  }
}

void PeriodicTask::Start() {
  assert(!running_);
  running_ = true;
  started_at_ = kernel_.GetCycleCount();
  if (cfg_.modality == Modality::kThread) {
    thread_ = kernel_.PsCreateSystemThread("Datapump", cfg_.thread_priority,
                                           [this] { return ThreadLoop(); });
  }
  kernel_.KeSetTimerPeriodicMs(&timer_, cfg_.period_ms, cfg_.period_ms, &dpc_);
}

void PeriodicTask::Stop() {
  running_ = false;
  kernel_.KeCancelTimer(&timer_);
}

double PeriodicTask::miss_rate_per_s() const {
  const double seconds = sim::CyclesToSec(kernel_.GetCycleCount() - started_at_);
  return seconds <= 0.0 ? 0.0 : static_cast<double>(deadline_misses_) / seconds;
}

// Runs at the first instruction of the timer DPC.
void PeriodicTask::OnTimerExpiry() {
  if (!running_) {
    return;
  }
  ++cycles_started_;
  // The cycle nominally began when the clock ISR expired the timer (the
  // DPC's enqueue instant).
  if (cfg_.modality == Modality::kDpc) {
    // The computation is this DPC's body; execution is serial, so a single
    // start slot pairs correctly with on_complete.
    current_cycle_start_ = dpc_.enqueue_time();
    computation_in_flight_ = true;
  } else {
    pending_starts_.push_back(dpc_.enqueue_time());
    kernel_.KeSetEvent(&wake_);
  }
}

void PeriodicTask::OnComputationDone() {
  if (!running_) {
    return;
  }
  CompleteCycle(current_cycle_start_);
  computation_in_flight_ = false;
}

void PeriodicTask::CompleteCycle(sim::Cycles start) {
  ++cycles_completed_;
  const double latency_ms = sim::CyclesToMs(kernel_.GetCycleCount() - start);
  completion_.RecordMs(latency_ms);
  if (latency_ms > tolerance_ms()) {
    ++deadline_misses_;
  }
}

kernel::ThreadBody PeriodicTask::ThreadLoop() {
  co_await kernel_.Wait(&wake_);
  while (running_) {
    if (pending_starts_.empty()) {
      // The synchronization event coalesces signals; everything already
      // drained — wait for the next cycle.
      co_await kernel_.Wait(&wake_);
      continue;
    }
    const sim::Cycles start = pending_starts_.front();
    pending_starts_.pop_front();
    co_await kernel_.Compute(cfg_.compute_ms * 1000.0);
    if (running_) {
      CompleteCycle(start);
    }
  }
}

}  // namespace wdmlat::drivers
