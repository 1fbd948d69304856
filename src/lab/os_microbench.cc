#include "src/lab/os_microbench.h"

#include <memory>

#include "src/kernel/kernel.h"

namespace wdmlat::lab {

namespace {
using kernel::Label;
}  // namespace

MicrobenchResults RunOsMicrobench(lab::TestSystem& system, int iterations) {
  MicrobenchResults results;
  results.iterations = static_cast<std::uint64_t>(iterations);
  kernel::Kernel& k = system.kernel();
  k.SetClockFrequency(1000.0);
  system.RunFor(0.05);  // let the new rate take effect

  // --- 1. Thread ping-pong (context switch) ---------------------------------
  {
    auto ea = std::make_shared<kernel::KEvent>();
    auto eb = std::make_shared<kernel::KEvent>();
    auto start = std::make_shared<sim::Cycles>(0);
    auto end = std::make_shared<sim::Cycles>(0);
    k.PsCreateSystemThread(
        "pingpong-a", 20, [&k, ea, eb, end, iterations]() -> kernel::ThreadBody {
          for (int wakes = 1;; ++wakes) {
            co_await k.Wait(ea.get());
            if (wakes >= iterations) {
              *end = k.GetCycleCount();
              co_return;
            }
            k.KeSetEvent(eb.get());
          }
        });
    k.PsCreateSystemThread("pingpong-b", 20, [&k, ea, eb]() -> kernel::ThreadBody {
      for (;;) {
        co_await k.Wait(eb.get());
        k.KeSetEvent(ea.get());
      }
    });
    system.engine().ScheduleAfter(sim::MsToCycles(1.0), [&k, ea, start] {
      *start = k.GetCycleCount();
      k.KeSetEvent(ea.get());
    });
    system.RunFor(0.001 * iterations + 1.0);
    if (*end > *start && iterations > 0) {
      results.context_switch_us = sim::CyclesToUs(*end - *start) / (2.0 * iterations);
    }
  }

  // --- 2. Event signal to thread wake ----------------------------------------
  {
    auto event = std::make_shared<kernel::KEvent>();
    auto signaled_at = std::make_shared<sim::Cycles>(0);
    auto total = std::make_shared<sim::Cycles>(0);
    auto woken = std::make_shared<int>(0);
    k.PsCreateSystemThread(
        "wake-probe", 28, [&k, event, signaled_at, total, woken]() -> kernel::ThreadBody {
          for (;;) {
            co_await k.Wait(event.get());
            *total += k.GetCycleCount() - *signaled_at;
            ++*woken;
          }
        });
    for (int i = 0; i < iterations; ++i) {
      system.engine().ScheduleAfter(sim::UsToCycles(200.0 * (i + 1)),
                                    [&k, event, signaled_at] {
                                      *signaled_at = k.GetCycleCount();
                                      k.KeSetEvent(event.get());
                                    });
    }
    system.RunFor(200e-6 * iterations + 0.5);
    if (*woken > 0) {
      results.event_wake_us = sim::CyclesToUs(*total) / *woken;
    }
  }

  // --- 3. DPC dispatch ---------------------------------------------------------
  {
    auto inserted_at = std::make_shared<sim::Cycles>(0);
    auto total = std::make_shared<sim::Cycles>(0);
    auto runs = std::make_shared<int>(0);
    auto dpc = std::make_shared<kernel::KDpc>(
        [&k, inserted_at, total, runs] {
          *total += k.GetCycleCount() - *inserted_at;
          ++*runs;
        },
        sim::DurationDist::Constant(1.0), Label{"UBENCH", "_dpc"});
    for (int i = 0; i < iterations; ++i) {
      system.engine().ScheduleAfter(sim::UsToCycles(150.0 * (i + 1)),
                                    [&k, dpc, inserted_at] {
                                      *inserted_at = k.GetCycleCount();
                                      k.KeInsertQueueDpc(dpc.get());
                                    });
    }
    system.RunFor(150e-6 * iterations + 0.5);
    if (*runs > 0) {
      results.dpc_dispatch_us = sim::CyclesToUs(*total) / *runs;
    }
  }

  // --- 4. Interrupt dispatch ------------------------------------------------------
  {
    const int line = system.kernel().pic().ConnectLine("UBENCH", static_cast<kernel::Irql>(11));
    k.IoConnectInterrupt(line, static_cast<kernel::Irql>(11), Label{"UBENCH", "_isr"},
                         [] { return sim::UsToCycles(1.0); });
    auto total = std::make_shared<sim::Cycles>(0);
    auto fires = std::make_shared<int>(0);
    auto previous = k.dispatcher().on_isr_entry;
    k.dispatcher().on_isr_entry = [line, total, fires, previous](int l, sim::Cycles a,
                                                                 sim::Cycles e) {
      if (l == line) {
        *total += e - a;
        ++*fires;
      }
      if (previous) {
        previous(l, a, e);
      }
    };
    for (int i = 0; i < iterations; ++i) {
      system.engine().ScheduleAfter(sim::UsToCycles(170.0 * (i + 1)),
                                    [&system, line] { system.kernel().pic().Assert(line); });
    }
    system.RunFor(170e-6 * iterations + 0.5);
    k.dispatcher().on_isr_entry = previous;
    if (*fires > 0) {
      results.interrupt_dispatch_us = sim::CyclesToUs(*total) / *fires;
    }
  }

  // --- 5. Timer expiry error -------------------------------------------------------
  {
    auto timer = std::make_shared<kernel::KTimer>();
    auto due = std::make_shared<sim::Cycles>(0);
    auto total = std::make_shared<sim::Cycles>(0);
    auto fires = std::make_shared<int>(0);
    auto dpc = std::make_shared<kernel::KDpc>(
        [&k, due, total, fires] {
          *total += k.GetCycleCount() - *due;
          ++*fires;
        },
        sim::DurationDist::Constant(1.0), Label{"UBENCH", "_timer"});
    const int timer_iterations = iterations / 4 + 1;
    for (int i = 0; i < timer_iterations; ++i) {
      // Odd spacing so the due times sweep the tick phase uniformly.
      system.engine().ScheduleAfter(sim::UsToCycles(4170.0 * (i + 1)),
                                    [&k, timer, dpc, due] {
                                      *due = k.GetCycleCount() + sim::MsToCycles(2.0);
                                      k.KeSetTimerMs(timer.get(), 2.0, dpc.get());
                                    });
    }
    system.RunFor(4170e-6 * timer_iterations + 0.5);
    if (*fires > 0) {
      results.timer_error_ms = sim::CyclesToMs(*total) / *fires;
    }
  }

  return results;
}

}  // namespace wdmlat::lab
