#include "src/workload/stress_load.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

namespace wdmlat::workload {

using kernel::Irql;
using kernel::Label;

StressLoad::StressLoad(Deps deps, StressProfile profile, sim::Rng rng)
    : deps_(deps), profile_(std::move(profile)), rng_(rng) {
  assert(deps_.kernel != nullptr);
}

void StressLoad::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  kernel::Kernel& k = *deps_.kernel;
  const kernel::KernelProfile& os = k.profile();

  auto add_process = [&](double rate, auto action) {
    if (rate <= 0.0) {
      return;
    }
    auto process = std::make_unique<sim::PoissonProcess>(k.engine(), rng_.Fork(), rate,
                                                         std::move(action));
    process->Start();
    processes_.push_back(std::move(process));
  };

  add_process(profile_.file_ops_per_s, [this] { DoFileOp(); });
  add_process(profile_.file_bursts_per_s, [this] { DoFileBurst(); });
  add_process(profile_.ui_events_per_s, [this] { DoUiEvent(); });
  add_process(profile_.downloads_per_s, [this] { DoDownload(); });

  // Legacy kernel stress, scaled by how badly this OS's code paths age.
  if (profile_.masked_rate_per_s > 0.0 && os.masked_stress_scale > 0.0) {
    const double scale = os.masked_stress_scale;
    add_process(profile_.masked_rate_per_s, [this, &k, scale] {
      k.InjectKernelSection(Irql::kHigh, profile_.masked_len_us.SampleUs(rng_) * scale,
                            profile_.masked_label);
    });
  }
  if (profile_.masked2_rate_per_s > 0.0 && os.masked_stress_scale > 0.0) {
    const double scale = os.masked_stress_scale;
    add_process(profile_.masked2_rate_per_s, [this, &k, scale] {
      k.InjectKernelSection(Irql::kHigh, profile_.masked2_len_us.SampleUs(rng_) * scale,
                            profile_.masked2_label);
    });
  }
  if (profile_.dispatch_rate_per_s > 0.0 && os.dispatch_stress_scale > 0.0) {
    const double scale = os.dispatch_stress_scale;
    add_process(profile_.dispatch_rate_per_s, [this, &k, scale] {
      k.InjectKernelSection(Irql::kDispatch, profile_.dispatch_len_us.SampleUs(rng_) * scale,
                            profile_.dispatch_label);
    });
  }
  if (profile_.lockout_rate_per_s > 0.0 && os.lockout_stress_scale > 0.0) {
    const double scale = os.lockout_stress_scale;
    add_process(profile_.lockout_rate_per_s, [this, &k, scale] {
      k.LockDispatch(profile_.lockout_len_us.SampleUs(rng_) * scale);
    });
  }

  if (profile_.work_items_per_s > 0.0) {
    add_process(profile_.work_items_per_s, [this, &k] {
      k.ExQueueWorkItem(profile_.work_item_us.SampleUs(rng_),
                        Label{"WIN32K", "_DeferredWork"});
    });
  }

  // CPU-bound application threads.
  for (int i = 0; i < profile_.cpu_threads; ++i) {
    const double burst = profile_.cpu_burst_us * rng_.Uniform(0.8, 1.2);
    k.PsCreateSystemThread(profile_.name + " cpu" + std::to_string(i), profile_.cpu_priority,
                           [this, burst] { return CpuThreadLoop(burst); });
  }

  if (profile_.audio_stream && deps_.audio != nullptr) {
    deps_.audio->StartStream(profile_.audio_period_ms);
  }
}

void StressLoad::Stop() {
  running_ = false;
  for (auto& process : processes_) {
    process->Stop();
  }
  if (deps_.audio != nullptr) {
    deps_.audio->StopStream();
  }
}

void StressLoad::DoFileOp() {
  ++file_ops_;
  const auto bytes = static_cast<std::uint32_t>(
      std::max(512.0, rng_.Exponential(profile_.file_bytes_mean)));
  if (deps_.virus_scanner != nullptr) {
    deps_.virus_scanner->OnFileOperation(bytes);
  }
  if (deps_.disk != nullptr) {
    deps_.disk->SubmitIo(bytes);
  }
  if (profile_.file_op_cpu_us > 0.0) {
    // File-system CPU runs on the kernel worker thread (cache manager).
    deps_.kernel->ExQueueWorkItem(profile_.file_op_cpu_us * rng_.Uniform(0.5, 1.5),
                                  Label{"NTFS", "_CcWorker"});
  }
}

void StressLoad::DoFileBurst() {
  // A copy / install: a burst of back-to-back operations. Spread over a
  // short interval so the disk queue builds up realistically.
  const int ops = profile_.file_burst_ops;
  for (int i = 0; i < ops; ++i) {
    deps_.kernel->engine().ScheduleAfter(sim::MsToCycles(rng_.Uniform(0.0, 250.0)), [this] {
      if (running_) {
        DoFileOp();
      }
    });
  }
}

void StressLoad::DoUiEvent() {
  ++ui_events_;
  if (deps_.sound_scheme != nullptr) {
    deps_.sound_scheme->OnUiEvent();
  }
  // GUI repaint work.
  deps_.kernel->ExQueueWorkItem(rng_.Uniform(20.0, 120.0), Label{"WIN32K", "_Repaint"});
}

void StressLoad::DoDownload() {
  ++downloads_;
  if (deps_.nic == nullptr) {
    return;
  }
  const auto bytes =
      static_cast<std::uint64_t>(std::max(1514.0, rng_.Exponential(profile_.download_bytes_mean)));
  deps_.nic->StartReceiveStream(bytes, 1514, nullptr);
}

kernel::ThreadBody StressLoad::CpuThreadLoop(double burst_us) {
  while (running_) {
    co_await deps_.kernel->ComputeAt(burst_us, Irql::kPassive, profile_.cpu_label);
  }
}

}  // namespace wdmlat::workload
