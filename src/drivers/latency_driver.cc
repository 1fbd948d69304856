#include "src/drivers/latency_driver.h"

#include <cassert>
#include <utility>

namespace wdmlat::drivers {

using kernel::Label;

namespace {
constexpr Label kDpcLabel{"LATDRV", "_LatDpcRoutine"};
}  // namespace

LatencyDriver::LatencyDriver(kernel::Kernel& kernel, Config config)
    : kernel_(kernel),
      cfg_(config),
      dpc_([this] { LatDpcRoutine(); }, sim::DurationDist::Constant(1.5), kDpcLabel,
           kernel::KDpc::Importance::kMedium) {}

void LatencyDriver::Start() {
  assert(!started_);
  started_ = true;
  start_time_ = kernel_.GetCycleCount();
  warmup_remaining_ = cfg_.warmup_samples;

  // DriverEntry (2.2.1): register with the I/O manager and set the PIT
  // interrupt interval to 1 ms. The control application reaches LatRead via
  // a Win32 ReadFileEx on \\.\LatMeter, which the I/O manager routes as an
  // IRP_MJ_READ to this dispatch table.
  driver_object_ = kernel_.io().IoCreateDriver("LATDRV");
  driver_object_->SetMajorFunction(
      kernel::IrpMajor::kRead,
      [this](kernel::DeviceObject& /*device*/, kernel::Irp& irp) { LatRead(&irp); });
  device_object_ = kernel_.io().IoCreateDevice(driver_object_, "\\Device\\LatMeter");
  kernel_.SetClockFrequency(cfg_.pit_hz);

  // Windows 9x only: install our own timer handler ahead of the OS PIT ISR.
  if (cfg_.use_legacy_interrupt_hook && kernel_.profile().has_legacy_timer_hook) {
    hook_installed_ = true;
    kernel_.clock_interrupt()->AddPreHook([this] {
      if (hook_armed_ && kernel_.GetCycleCount() >= hook_due_) {
        hook_isr_tsc_ = kernel_.GetCycleCount();
        hook_captured_ = true;
        hook_armed_ = false;
      }
    });
  }

  // Create a kernel mode thread executing LatThreadFunc() (2.2.1/2.2.4).
  lat_thread_ = kernel_.PsCreateSystemThread("LatThread", cfg_.thread_priority,
                                             [this] { return LatThreadFunc(); });

  // The control application: opens the device and loops on ReadFileEx. The
  // I/O manager delivers the ReadFileEx completion routine as a user APC to
  // the issuing thread, which waits alertably (the classic ReadFileEx +
  // SleepEx pattern).
  irp_.on_complete = [this](kernel::Irp* /*irp*/) {
    kernel_.QueueUserApc(app_thread_, [this] { RecordSample(); });
  };
  app_thread_ = kernel_.PsCreateSystemThread("LatControlApp", cfg_.app_priority,
                                             [this] { return AppLoop(); });
}

void LatencyDriver::Stop() { stopped_ = true; }

double LatencyDriver::samples_per_hour() const {
  const double hours = sim::CyclesToSec(kernel_.GetCycleCount() - start_time_) / 3600.0;
  return hours <= 0.0 ? 0.0 : static_cast<double>(samples_) / hours;
}

void LatencyDriver::SetLongLatencyCallback(double threshold_ms,
                                           std::function<void(double)> callback) {
  long_watches_.clear();
  AddLongLatencyCallback(threshold_ms, std::move(callback));
}

void LatencyDriver::AddLongLatencyCallback(double threshold_ms,
                                           std::function<void(double)> callback) {
  long_watches_.push_back(LongLatencyWatch{threshold_ms, std::move(callback)});
}

// Driver I/O read routine (2.2.2).
void LatencyDriver::LatRead(kernel::Irp* irp) {
  irp->asb[0] = kernel_.GetCycleCount();
  hook_due_ = irp->asb[0] + sim::MsToCycles(cfg_.timer_delay_ms);
  hook_captured_ = false;
  hook_armed_ = hook_installed_;
  // The PIT ISR will enqueue LatDpcRoutine in the DPC queue.
  kernel_.KeSetTimerMs(&timer_, cfg_.timer_delay_ms, &dpc_);
}

// Timer DPC (2.2.3).
void LatencyDriver::LatDpcRoutine() {
  irp_.asb[1] = kernel_.GetCycleCount();
  if (hook_captured_) {
    irp_.asb[3] = hook_isr_tsc_;
  }
  g_irp_ = &irp_;
  kernel_.KeSetEvent(&event_);
}

// Thread (2.2.4).
kernel::ThreadBody LatencyDriver::LatThreadFunc() {
  for (;;) {
    co_await kernel_.Wait(&event_);
    g_irp_->asb[2] = kernel_.GetCycleCount();
    // This completes the read, sending the data to the user mode app.
    kernel::Irp* irp = g_irp_;
    g_irp_ = nullptr;
    kernel_.IoCompleteRequest(irp);
  }
}

// Control application: issue a read, wait for completion, record, repeat.
kernel::ThreadBody LatencyDriver::AppLoop() {
  while (!stopped_) {
    // User->kernel transition and driver dispatch cost, then the I/O manager
    // routes the IRP_MJ_READ to the driver in this thread's context; the
    // completion APC (which records the sample) is delivered by the
    // alertable wait.
    co_await kernel_.Compute(cfg_.read_dispatch_us);
    kernel_.io().IoCallDriver(kernel_.io().TopOfStack("\\Device\\LatMeter"), &irp_,
                              kernel::IrpMajor::kRead);
    co_await kernel_.WaitAlertable(&io_done_);
    co_await kernel_.Compute(cfg_.app_processing_us);
  }
}

void LatencyDriver::RecordSample() {
  if (warmup_remaining_ > 0) {
    --warmup_remaining_;
    start_time_ = kernel_.GetCycleCount();
    irp_.asb[3] = 0;
    return;
  }
  const sim::Cycles estimated_expiry = irp_.asb[0] + sim::MsToCycles(cfg_.timer_delay_ms);
  const sim::Cycles dpc_tsc = irp_.asb[1];
  const sim::Cycles thread_tsc = irp_.asb[2];
  assert(dpc_tsc >= estimated_expiry);
  assert(thread_tsc >= dpc_tsc);

  const double dpc_int_ms = sim::CyclesToMs(dpc_tsc - estimated_expiry);
  const double thread_ms = sim::CyclesToMs(thread_tsc - dpc_tsc);
  dpc_interrupt_.RecordMs(dpc_int_ms);
  thread_.RecordMs(thread_ms);
  thread_interrupt_.RecordMs(sim::CyclesToMs(thread_tsc - estimated_expiry));

  if (hook_installed_ && irp_.asb[3] >= estimated_expiry && dpc_tsc >= irp_.asb[3]) {
    interrupt_.RecordMs(sim::CyclesToMs(irp_.asb[3] - estimated_expiry));
    isr_to_dpc_.RecordMs(sim::CyclesToMs(dpc_tsc - irp_.asb[3]));
  }
  last_stamps_ = SampleStamps{estimated_expiry, irp_.asb[3], dpc_tsc, thread_tsc};
  irp_.asb[3] = 0;

  ++samples_;
  if (on_sample) {
    on_sample(thread_ms);
  }
  for (const LongLatencyWatch& watch : long_watches_) {
    if (watch.callback && watch.threshold_ms > 0.0 && thread_ms >= watch.threshold_ms) {
      watch.callback(thread_ms);
    }
  }
}

}  // namespace wdmlat::drivers
