#include "src/workload/winstone.h"

#include <cassert>
#include <utility>

namespace wdmlat::workload {

using kernel::Label;

namespace {

// Submit one synchronous file read: the virus scanner sees it and the disk
// starts it; its completion DPC signals `done`, which the caller then waits
// on before charging the file-system CPU.
void SubmitFileOp(const StressLoad::Deps& deps, sim::Rng& rng, double file_bytes,
                  kernel::KEvent* done) {
  const auto bytes = static_cast<std::uint32_t>(rng.Uniform(0.5 * file_bytes, 1.5 * file_bytes));
  if (deps.virus_scanner != nullptr) {
    deps.virus_scanner->OnFileOperation(bytes);
  }
  kernel::Kernel* kernel = deps.kernel;
  deps.disk->SubmitIo(bytes, [kernel, done] { kernel->KeSetEvent(done); });
}

}  // namespace

WinstoneScript::WinstoneScript(StressLoad::Deps deps, Config config, sim::Rng rng)
    : deps_(deps), cfg_(config), rng_(rng) {
  assert(deps_.kernel != nullptr && deps_.disk != nullptr);
}

void WinstoneScript::Start(std::function<void(double)> done) {
  done_ = std::move(done);
  started_at_ = deps_.kernel->GetCycleCount();
  deps_.kernel->PsCreateSystemThread("Winstone", cfg_.priority, [this] { return Run(); });
}

kernel::ThreadBody WinstoneScript::Run() {
  kernel::Kernel& k = *deps_.kernel;
  for (int iteration = 0; iteration < cfg_.iterations; ++iteration) {
    // Application CPU phase.
    co_await k.Compute(cfg_.cpu_us_per_iteration * rng_.Uniform(0.7, 1.3));
    if (rng_.Bernoulli(cfg_.ui_event_probability)) {
      if (deps_.sound_scheme != nullptr) {
        deps_.sound_scheme->OnUiEvent();
      }
      k.ExQueueWorkItem(rng_.Uniform(20.0, 100.0), Label{"WIN32K", "_Repaint"});
    }
    for (int op = 0; op < cfg_.file_ops_per_iteration; ++op) {
      SubmitFileOp(deps_, rng_, cfg_.file_bytes, &io_event_);
      co_await k.Wait(&io_event_);
      // File-system CPU in the caller's context: the OS-dependent term.
      co_await k.Compute(k.profile().file_op_kernel_us.SampleUs(rng_));
    }
  }
  finished_ = true;
  elapsed_seconds_ = sim::CyclesToSec(k.GetCycleCount() - started_at_);
  if (done_) {
    done_(elapsed_seconds_);
  }
}

std::vector<WinstoneApp> BusinessWinstone97() {
  auto app = [](const char* name, const char* category, int iterations, double cpu_us,
                int file_ops, double bytes, double ui_probability) {
    WinstoneApp a;
    a.name = name;
    a.category = category;
    a.iterations = iterations;
    a.cpu_us_per_iteration = cpu_us;
    a.file_ops_per_iteration = file_ops;
    a.file_bytes = bytes;
    a.ui_event_probability = ui_probability;
    return a;
  };
  return {
      app("Access 7.0", "Database", 45, 4000.0, 3, 64.0 * 1024, 0.5),
      app("Paradox 7.0", "Database", 40, 3500.0, 3, 56.0 * 1024, 0.5),
      app("CorelDRAW 6.0", "Publishing", 50, 7000.0, 2, 96.0 * 1024, 0.7),
      app("PageMaker 6.0", "Publishing", 40, 5500.0, 2, 80.0 * 1024, 0.7),
      app("PowerPoint 7.0", "Publishing", 40, 4500.0, 2, 72.0 * 1024, 0.8),
      app("Excel 7.0", "WP and Spreadsheet", 50, 4000.0, 2, 40.0 * 1024, 0.6),
      app("Word 7.0", "WP and Spreadsheet", 55, 3500.0, 2, 36.0 * 1024, 0.8),
      app("WordPro 96", "WP and Spreadsheet", 40, 4000.0, 2, 40.0 * 1024, 0.8),
  };
}

std::vector<WinstoneApp> HighEndWinstone97() {
  auto app = [](const char* name, const char* category, int iterations, double cpu_us,
                int file_ops, double bytes, double ui_probability) {
    WinstoneApp a;
    a.name = name;
    a.category = category;
    a.iterations = iterations;
    a.cpu_us_per_iteration = cpu_us;
    a.file_ops_per_iteration = file_ops;
    a.file_bytes = bytes;
    a.ui_event_probability = ui_probability;
    return a;
  };
  // "Workstation applications are inherently more stressful than business
  // applications, and are CPU, disk or network bound more of the time."
  return {
      app("AVS 3.0", "Mechanical CAD", 45, 14000.0, 3, 192.0 * 1024, 0.3),
      app("Microstation 95", "Mechanical CAD", 45, 12000.0, 3, 160.0 * 1024, 0.3),
      app("Photoshop 3.0.5", "Photoediting", 40, 16000.0, 4, 384.0 * 1024, 0.4),
      app("Picture Publisher 6.0", "Photoediting", 35, 12000.0, 3, 256.0 * 1024, 0.4),
      app("P-V Wave 6.0", "Photoediting", 35, 13000.0, 3, 224.0 * 1024, 0.3),
      app("Visual C++ 4.1 Compiler", "S/W Engineering", 60, 9000.0, 6, 48.0 * 1024, 0.1),
  };
}

WinstoneSuite::WinstoneSuite(StressLoad::Deps deps, std::vector<WinstoneApp> apps,
                             sim::Rng rng)
    : deps_(deps), apps_(std::move(apps)), rng_(rng) {
  assert(deps_.kernel != nullptr && deps_.disk != nullptr);
}

void WinstoneSuite::Start(std::function<void(double)> done) {
  done_ = std::move(done);
  started_at_ = deps_.kernel->GetCycleCount();
  deps_.kernel->PsCreateSystemThread("Winstone suite", 9, [this] { return Run(); });
}

kernel::ThreadBody WinstoneSuite::Run() {
  kernel::Kernel& k = *deps_.kernel;
  for (const WinstoneApp& app : apps_) {
    // InstallShield: a burst of file traffic plus unpacking CPU.
    for (int op = 0; op < app.install_file_ops; ++op) {
      SubmitFileOp(deps_, rng_, app.file_bytes, &io_event_);
      co_await k.Wait(&io_event_);
      co_await k.Compute(k.profile().file_op_kernel_us.SampleUs(rng_));
    }
    for (int iteration = 0; iteration < app.iterations; ++iteration) {
      co_await k.Compute(app.cpu_us_per_iteration * rng_.Uniform(0.7, 1.3));
      if (rng_.Bernoulli(app.ui_event_probability)) {
        if (deps_.sound_scheme != nullptr) {
          deps_.sound_scheme->OnUiEvent();
        }
        k.ExQueueWorkItem(rng_.Uniform(20.0, 100.0), Label{"WIN32K", "_Repaint"});
      }
      for (int op = 0; op < app.file_ops_per_iteration; ++op) {
        SubmitFileOp(deps_, rng_, app.file_bytes, &io_event_);
        co_await k.Wait(&io_event_);
        co_await k.Compute(k.profile().file_op_kernel_us.SampleUs(rng_));
      }
    }
    // Uninstall and move on.
    for (int op = 0; op < app.uninstall_file_ops; ++op) {
      SubmitFileOp(deps_, rng_, app.file_bytes, &io_event_);
      co_await k.Wait(&io_event_);
      co_await k.Compute(k.profile().file_op_kernel_us.SampleUs(rng_));
    }
    ++apps_completed_;
  }
  finished_ = true;
  elapsed_seconds_ = sim::CyclesToSec(k.GetCycleCount() - started_at_);
  if (done_) {
    done_(elapsed_seconds_);
  }
}

}  // namespace wdmlat::workload
