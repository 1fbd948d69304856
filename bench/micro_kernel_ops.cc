// Supporting microbenchmarks (google-benchmark): wall-clock cost of the
// simulator's kernel primitives on both OS personalities, plus raw engine
// throughput. These are *simulator* performance numbers (how fast virtual
// time runs), used to size experiment durations — the latency results
// themselves are virtual-time measurements and do not depend on host speed.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "src/drivers/latency_driver.h"
#include "src/kernel/kernel.h"
#include "src/kernel/profile.h"
#include "src/kernel/ready_queue.h"
#include "src/kernel/smp.h"
#include "src/lab/test_system.h"
#include "src/sim/engine.h"
#include "src/sim/rng.h"
#include "src/stats/histogram.h"
#include "src/workload/stress_load.h"
#include "src/workload/stress_profile.h"

namespace {

using namespace wdmlat;

void BM_EngineScheduleFire(benchmark::State& state) {
  sim::Engine engine;
  std::uint64_t counter = 0;
  for (auto _ : state) {
    engine.ScheduleAfter(100, [&] { ++counter; });
    engine.Step();
  }
  benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_EngineScheduleFire);

void BM_EngineCancelledEvent(benchmark::State& state) {
  sim::Engine engine;
  for (auto _ : state) {
    sim::EventHandle handle = engine.ScheduleAfter(100, [] {});
    handle.Cancel();
    engine.Step();
  }
}
BENCHMARK(BM_EngineCancelledEvent);

// Cancel-and-reschedule churn on one calendar handle, so most scheduled
// events die without firing: the pattern of device timers re-programmed
// before they expire (PIT rate changes, audio/USB frame restarts) and fault
// plans re-drawing their next activation. This exercises the stale-entry
// purge and the bulk compaction. The dispatcher's pause/resume churn uses a
// deadline lane instead; BM_DispatcherLaneRearm measures it.
void BM_EngineCancelHeavy(benchmark::State& state) {
  sim::Engine engine;
  sim::EventHandle completion;
  std::uint64_t fired = 0;
  int step_phase = 0;
  for (auto _ : state) {
    completion.Cancel();
    completion = engine.ScheduleAfter(100, [&] { ++fired; });
    if (++step_phase == 3) {
      step_phase = 0;
      engine.Step();
    }
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EngineCancelHeavy);

// The dispatcher's preemption round trip through the core's completion
// lane: each iteration injects a 1-cycle HIGH section over a thread in a
// long compute segment (pausing the thread disarms the lane, the section
// arms it) and serves the section's completion (popping the frame re-arms
// the lane with the thread's remaining work). No calendar entry is made.
void BM_DispatcherLaneRearm(benchmark::State& state) {
  lab::TestSystemOptions options;
  options.kernel_self_noise = false;
  lab::TestSystem system(kernel::MakeNt4Profile(), 42, options);
  kernel::Kernel& k = system.kernel();
  k.PsCreateSystemThread("bm_spin", 8, [&k] { k.Compute(1e9, [] {}); });
  system.RunFor(0.001);
  const kernel::Label label{"BM", "_section"};
  for (auto _ : state) {
    k.dispatcher().InjectSection(kernel::Irql::kHigh, 1, label);
    system.engine().Step();
  }
  benchmark::DoNotOptimize(k.dispatcher().sections_run());
}
BENCHMARK(BM_DispatcherLaneRearm);

// The dispatcher's thread decision on a ready queue holding N threads
// spread over priorities 1..31 (N = 1: one normal-priority thread): pop the
// highest, read the next top priority, push the popped thread back. The
// queue answers both queries from its ready summary, not a priority scan.
void BM_ReadyQueueDecision(benchmark::State& state) {
  const int ready = static_cast<int>(state.range(0));
  std::vector<std::unique_ptr<kernel::KThread>> threads;
  kernel::ReadyQueue queue;
  for (int i = 0; i < ready; ++i) {
    const int priority =
        ready == 1 ? 8
                   : kernel::kMinPriority +
                         i * (kernel::kMaxPriority - kernel::kMinPriority) / (ready - 1);
    threads.push_back(std::make_unique<kernel::KThread>("bm", priority));
    queue.Push(threads.back().get());
  }
  for (auto _ : state) {
    kernel::KThread* thread = queue.Pop();
    benchmark::DoNotOptimize(queue.top_priority());
    queue.Push(thread);
  }
  benchmark::DoNotOptimize(queue.Peek());
}
BENCHMARK(BM_ReadyQueueDecision)->Arg(1)->Arg(8);

// The ladder queue's headline case: a burst of same-instant expirations (a
// PIT tick's worth of due timers) collapses into one sorted drain batch and
// fires by cursor increment instead of per-event heap pops. Reported time is
// per burst; items/s gives the per-event rate.
void BM_EngineBatchFire(benchmark::State& state) {
  sim::Engine engine;
  std::uint64_t counter = 0;
  constexpr int kBurst = 64;
  for (auto _ : state) {
    const sim::Cycles tick = engine.now() + 1000;
    for (int i = 0; i < kBurst; ++i) {
      engine.ScheduleAt(tick, [&] { ++counter; });
    }
    engine.RunUntil(tick);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBurst);
  benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_EngineBatchFire);

// Per-sample histogram bucketing cost (runs once per measured latency).
void BM_HistogramRecord(benchmark::State& state) {
  // Log-uniform samples across the resolvable range, precomputed so the
  // benchmark measures RecordUs, not the RNG.
  sim::Rng rng(42);
  std::vector<double> samples(4096);
  for (double& us : samples) {
    us = stats::LatencyHistogram::kMinUs *
         std::exp2(rng.Uniform(0.0, static_cast<double>(stats::LatencyHistogram::kOctaves)));
  }
  stats::LatencyHistogram hist;
  std::size_t i = 0;
  for (auto _ : state) {
    hist.RecordUs(samples[i]);
    if (++i == samples.size()) {
      i = 0;
    }
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_HistogramRecord);

// One full virtual second of an idle kernel (clock ticks, worker thread).
template <kernel::KernelProfile (*MakeProfile)()>
void BM_IdleKernelSecond(benchmark::State& state) {
  for (auto _ : state) {
    lab::TestSystemOptions options;
    options.kernel_self_noise = false;
    lab::TestSystem system(MakeProfile(), 42, options);
    system.RunFor(1.0);
    benchmark::DoNotOptimize(system.kernel().dispatcher().interrupts_accepted());
  }
}
BENCHMARK(BM_IdleKernelSecond<kernel::MakeNt4Profile>)->Name("BM_IdleKernelSecond_NT4");
BENCHMARK(BM_IdleKernelSecond<kernel::MakeWin98Profile>)->Name("BM_IdleKernelSecond_Win98");

// One virtual second of the full measurement stack under the games load —
// the unit of the Figure 4 experiment grid.
template <kernel::KernelProfile (*MakeProfile)()>
void BM_LoadedMeasurementSecond(benchmark::State& state) {
  for (auto _ : state) {
    lab::TestSystem system(MakeProfile(), 42);
    workload::StressLoad load(system.deps(), workload::GamesStress(), system.ForkRng());
    drivers::LatencyDriver driver(system.kernel(), drivers::LatencyDriver::Config{});
    load.Start();
    driver.Start();
    system.RunFor(1.0);
    benchmark::DoNotOptimize(driver.sample_count());
  }
}
BENCHMARK(BM_LoadedMeasurementSecond<kernel::MakeNt4Profile>)
    ->Name("BM_LoadedMeasurementSecond_NT4");
BENCHMARK(BM_LoadedMeasurementSecond<kernel::MakeWin98Profile>)
    ->Name("BM_LoadedMeasurementSecond_Win98");

// DPC enqueue + dispatch round trip (virtual microseconds of kernel work,
// host nanoseconds of simulation).
void BM_DpcRoundTrip(benchmark::State& state) {
  lab::TestSystemOptions options;
  options.kernel_self_noise = false;
  lab::TestSystem system(kernel::MakeNt4Profile(), 42, options);
  std::uint64_t fired = 0;
  kernel::KDpc dpc([&] { ++fired; }, sim::DurationDist::Constant(1.0),
                   kernel::Label{"BM", "_dpc"});
  for (auto _ : state) {
    system.kernel().KeInsertQueueDpc(&dpc);
    system.RunFor(0.0001);
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_DpcRoundTrip);

// Thread wake + context switch round trip.
void BM_ThreadWakeRoundTrip(benchmark::State& state) {
  lab::TestSystemOptions options;
  options.kernel_self_noise = false;
  lab::TestSystem system(kernel::MakeNt4Profile(), 42, options);
  kernel::KEvent event;
  std::uint64_t wakes = 0;
  std::function<void()> loop = [&] {
    system.kernel().Wait(&event, [&] {
      ++wakes;
      loop();
    });
  };
  system.kernel().PsCreateSystemThread("bm", 28, [&] { loop(); });
  system.RunFor(0.001);
  for (auto _ : state) {
    system.kernel().KeSetEvent(&event);
    system.RunFor(0.0001);
  }
  benchmark::DoNotOptimize(wakes);
}
BENCHMARK(BM_ThreadWakeRoundTrip);

// Cross-core wake on a 2-core SMP machine: the woken thread is pinned off
// the boot core, so every KeSetEvent (engine context = core 0) rides a
// reschedule IPI to core 1 — the full SendIpi/deliver/dispatch path per
// iteration. Compare against BM_ThreadWakeRoundTrip for the SMP overhead.
void BM_SmpDispatch(benchmark::State& state) {
  lab::TestSystemOptions options;
  options.kernel_self_noise = false;
  lab::TestSystem system(kernel::MakeNt4SmpProfile(2, false), 42, options);
  kernel::KEvent event;
  std::uint64_t wakes = 0;
  std::function<void()> loop = [&] {
    system.kernel().Wait(&event, [&] {
      ++wakes;
      loop();
    });
  };
  kernel::KThread* thread =
      system.kernel().PsCreateSystemThread("bm_smp", 28, [&] { loop(); });
  system.kernel().KeSetAffinityThread(thread, 0b10);  // pin to core 1
  system.RunFor(0.001);
  for (auto _ : state) {
    system.kernel().KeSetEvent(&event);
    system.RunFor(0.0001);
  }
  benchmark::DoNotOptimize(wakes);
}
BENCHMARK(BM_SmpDispatch);

// Spinlock handoff: each iteration parks an injected hold on the global
// dispatcher lock, then wakes a pinned thread — the wake defers behind the
// hold and is granted FIFO at release, so the loop measures the simulator's
// contention bookkeeping (waiter queue, spin accounting, deferred grant).
void BM_SpinlockHandoff(benchmark::State& state) {
  lab::TestSystemOptions options;
  options.kernel_self_noise = false;
  lab::TestSystem system(kernel::MakeNt4SmpProfile(2, false), 42, options);
  kernel::KEvent event;
  std::uint64_t wakes = 0;
  std::function<void()> loop = [&] {
    system.kernel().Wait(&event, [&] {
      ++wakes;
      loop();
    });
  };
  kernel::KThread* thread =
      system.kernel().PsCreateSystemThread("bm_lock", 28, [&] { loop(); });
  system.kernel().KeSetAffinityThread(thread, 0b10);
  system.RunFor(0.001);
  for (auto _ : state) {
    system.kernel().smp()->InjectLockHold("dispatcher", sim::UsToCycles(5.0),
                                          kernel::Label{"BM", "_lockhog"});
    system.kernel().KeSetEvent(&event);
    system.RunFor(0.0001);
  }
  benchmark::DoNotOptimize(wakes);
}
BENCHMARK(BM_SpinlockHandoff);

}  // namespace

BENCHMARK_MAIN();
