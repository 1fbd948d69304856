// The WDM interrupt / DPC / thread latency measurement tool
// (paper Sections 2.2.1 - 2.2.5 and Figure 3).
//
// Measurement cycle, exactly as in the paper:
//   1. The control application issues a ReadFileEx; the driver's I/O read
//      routine reads the TSC into IRP->ASB[0] and calls KeSetTimer with
//      ARBITRARY_DELAY (LatRead, 2.2.2).
//   2. The PIT ISR, at the first tick at or after the due time, enqueues the
//      timer DPC. On Windows 98 the driver has also installed its own timer
//      handler through the legacy interface, which stamps the ISR-entry TSC
//      (the NT driver cannot, so NT records only DPC interrupt latency).
//   3. The DPC reads the TSC into ASB[1] and signals the Synchronization
//      Event (LatDpcRoutine, 2.2.3).
//   4. The real-time priority kernel thread wakes from its wait, reads the
//      TSC into ASB[2] and completes the IRP (LatThreadFunc, 2.2.4).
//   5. The control app computes the latencies from the ASB triplet using the
//      estimated expiry timestamp ASB[0] + ARBITRARY_DELAY, records them,
//      and issues the next read.
//
// The estimated-expiry method has the ±1 PIT period resolution the paper
// acknowledges ("we accepted this imprecision with only minor qualms"); the
// ground-truth dispatcher observers are available separately for validating
// the tool in tests.

#ifndef SRC_DRIVERS_LATENCY_DRIVER_H_
#define SRC_DRIVERS_LATENCY_DRIVER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/stats/histogram.h"

namespace wdmlat::drivers {

class LatencyDriver {
 public:
  struct Config {
    // Priority of the measured kernel-mode thread (24 or 28 in the paper).
    int thread_priority = kernel::kDefaultRealTimePriority;
    // ARBITRARY_DELAY in LatRead.
    double timer_delay_ms = 1.0;
    // "We reset it to 1 KHz (1 ms. period)".
    double pit_hz = 1000.0;
    // Control application per-sample processing and the driver read
    // dispatch cost (user->kernel transition + buffer setup).
    double app_processing_us = 25.0;
    double read_dispatch_us = 4.0;
    // Win32 priority of the control application thread.
    int app_priority = 15;
    // Install the legacy 9x timer-ISR hook when the profile supports it,
    // enabling raw interrupt-latency measurement.
    bool use_legacy_interrupt_hook = true;
    // Discard the first samples: the PIT reprogramming to pit_hz only takes
    // effect at the next tick, so the very first expiry still reflects the
    // boot-time clock rate.
    int warmup_samples = 16;
  };

  LatencyDriver(kernel::Kernel& kernel, Config config);

  // DriverEntry + control app launch. Reprograms the PIT.
  void Start();
  // Stop issuing new reads (in-flight sample completes and is discarded).
  void Stop();

  // --- Collected distributions -----------------------------------------------
  // Hardware interrupt (estimated) to first DPC instruction.
  const stats::LatencyHistogram& dpc_interrupt_latency() const { return dpc_interrupt_; }
  // DPC signal to the thread's first instruction after the wait.
  const stats::LatencyHistogram& thread_latency() const { return thread_; }
  // Hardware interrupt (estimated) to thread first instruction.
  const stats::LatencyHistogram& thread_interrupt_latency() const { return thread_interrupt_; }
  // Windows 98 only (legacy hook): hardware interrupt to ISR first
  // instruction, and ISR to DPC.
  const stats::LatencyHistogram& interrupt_latency() const { return interrupt_; }
  const stats::LatencyHistogram& isr_to_dpc_latency() const { return isr_to_dpc_; }
  bool measures_interrupt_latency() const { return hook_installed_; }

  std::uint64_t sample_count() const { return samples_; }
  // Observed sampling rate (samples per hour of virtual time since Start).
  double samples_per_hour() const;

  // Cause-tool / flight-recorder integration: `callback(ms)` runs when a
  // recorded thread latency is at or above `threshold_ms`. Set replaces all
  // registered callbacks; Add appends (callbacks fire in registration
  // order, each against its own threshold).
  void SetLongLatencyCallback(double threshold_ms, std::function<void(double)> callback);
  void AddLongLatencyCallback(double threshold_ms, std::function<void(double)> callback);

  // Per-sample observer: runs for every recorded (post-warmup) sample with
  // the thread latency in ms, before the long-latency watches. Feeds the
  // streaming quantile sketch without touching the measurement chain.
  std::function<void(double thread_ms)> on_sample;

  // The TSC stamps of the most recently recorded sample, valid while the
  // long-latency watches run: the exact [dpc_tsc, thread_tsc] window the
  // anatomy decomposes. isr_tsc is 0 when the legacy hook missed this cycle.
  struct SampleStamps {
    sim::Cycles estimated_expiry = 0;  // asb[0] + ARBITRARY_DELAY
    sim::Cycles isr_tsc = 0;           // asb[3] (98 legacy hook only)
    sim::Cycles dpc_tsc = 0;           // asb[1]
    sim::Cycles thread_tsc = 0;        // asb[2]
  };
  const SampleStamps& last_stamps() const { return last_stamps_; }

 private:
  void LatRead(kernel::Irp* irp);
  void LatDpcRoutine();
  kernel::ThreadBody LatThreadFunc();
  kernel::ThreadBody AppLoop();
  void RecordSample();

  kernel::Kernel& kernel_;
  Config cfg_;

  kernel::KTimer timer_;                                  // gTimer
  kernel::KEvent event_{kernel::EventType::kSynchronization};  // gEvent
  kernel::KDpc dpc_;
  kernel::Irp irp_;
  kernel::Irp* g_irp_ = nullptr;  // ghIRP
  kernel::KEvent io_done_{kernel::EventType::kSynchronization};

  kernel::KThread* lat_thread_ = nullptr;
  kernel::KThread* app_thread_ = nullptr;
  kernel::DriverObject* driver_object_ = nullptr;
  kernel::DeviceObject* device_object_ = nullptr;

  bool started_ = false;
  bool stopped_ = false;
  bool hook_installed_ = false;

  // Legacy hook state.
  bool hook_armed_ = false;
  sim::Cycles hook_due_ = 0;
  sim::Cycles hook_isr_tsc_ = 0;
  bool hook_captured_ = false;

  sim::Cycles start_time_ = 0;
  std::uint64_t samples_ = 0;
  int warmup_remaining_ = 0;

  stats::LatencyHistogram dpc_interrupt_;
  stats::LatencyHistogram thread_;
  stats::LatencyHistogram thread_interrupt_;
  stats::LatencyHistogram interrupt_;
  stats::LatencyHistogram isr_to_dpc_;

  struct LongLatencyWatch {
    double threshold_ms = 0.0;
    std::function<void(double)> callback;
  };
  std::vector<LongLatencyWatch> long_watches_;
  SampleStamps last_stamps_;
};

}  // namespace wdmlat::drivers

#endif  // SRC_DRIVERS_LATENCY_DRIVER_H_
