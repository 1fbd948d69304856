// Periodic-computation modeling tool (paper Section 6.1, Future Work).
//
// "We have also developed a tool that models periodic computation at
// configurable modalities (e.g., threads, DPCs) and priorities within
// modalities, and reports the number of deadlines that have been missed.
// With this tool we can model a soft modem and examine its impact on other
// kernel mode services. We will also be able to use the tool to validate our
// quality of service predictions in this paper."
//
// A PeriodicTask emulates a datapump: every `period_ms` a hardware timer
// expires; the task's computation (`compute_ms` of CPU) must finish within
// its latency tolerance or a buffer underruns. Two modalities:
//
//  * kDpc    — the computation runs in a DPC queued by the timer expiry
//              (interrupt processing, as a Windows 98 soft modem must);
//  * kThread — the DPC merely signals a kernel thread at a configurable
//              real-time priority, which performs the computation.
//
// A deadline miss is recorded when the computation of cycle k has not
// completed by the expiry of cycle k + (buffers - 1) — exactly the
// "all buffered data must be consumed" criterion of Section 1.

#ifndef SRC_DRIVERS_PERIODIC_LOAD_TOOL_H_
#define SRC_DRIVERS_PERIODIC_LOAD_TOOL_H_

#include <cstdint>

#include "src/kernel/kernel.h"
#include "src/stats/histogram.h"

namespace wdmlat::drivers {

enum class Modality { kDpc, kThread };

class PeriodicTask {
 public:
  struct Config {
    Modality modality = Modality::kThread;
    // Datapump cycle and per-cycle computation ("the datapump requires 25%
    // of a system with a 300 MHz Pentium II": compute = 0.25 * period).
    double period_ms = 16.0;
    double compute_ms = 4.0;
    // Buffering: tolerance = (buffers - 1) * period.
    int buffers = 2;
    // Thread modality only.
    int thread_priority = 28;
  };

  PeriodicTask(kernel::Kernel& kernel, Config config);

  // Start the periodic timer. The first cycle begins one period from now.
  void Start();
  void Stop();

  std::uint64_t cycles_started() const { return cycles_started_; }
  std::uint64_t cycles_completed() const { return cycles_completed_; }
  std::uint64_t deadline_misses() const { return deadline_misses_; }
  // Misses per second of virtual run time; the reciprocal is the measured
  // mean time between underruns (compare with analysis::MttfSweep).
  double miss_rate_per_s() const;
  // Completion latency (cycle start to computation end) distribution.
  const stats::LatencyHistogram& completion_latency() const { return completion_; }

  double tolerance_ms() const { return cfg_.period_ms * (cfg_.buffers - 1); }

 private:
  void OnTimerExpiry();
  void OnComputationDone();
  void CompleteCycle(sim::Cycles start);
  kernel::ThreadBody ThreadLoop();

  kernel::Kernel& kernel_;
  Config cfg_;

  kernel::KTimer timer_;
  kernel::KDpc dpc_;
  kernel::KEvent wake_{kernel::EventType::kSynchronization};
  kernel::KThread* thread_ = nullptr;

  bool running_ = false;
  bool computation_in_flight_ = false;
  sim::Cycles current_cycle_start_ = 0;
  std::deque<sim::Cycles> pending_starts_;
  sim::Cycles started_at_ = 0;
  std::uint64_t cycles_started_ = 0;
  std::uint64_t cycles_completed_ = 0;
  std::uint64_t deadline_misses_ = 0;
  stats::LatencyHistogram completion_;
};

}  // namespace wdmlat::drivers

#endif  // SRC_DRIVERS_PERIODIC_LOAD_TOOL_H_
