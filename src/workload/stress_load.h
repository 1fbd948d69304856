// Stress-load runner: turns a StressProfile into live activity on a
// simulated machine — Poisson processes for file ops, UI events, downloads
// and legacy kernel stress; CPU-bound application threads; an audio stream.
//
// The runner is OS-agnostic: the same profile drives both kernels (just as
// the paper runs the same Winstone scripts on both OSes), and the kernel's
// stress scales determine how hard the legacy paths bite.

#ifndef SRC_WORKLOAD_STRESS_LOAD_H_
#define SRC_WORKLOAD_STRESS_LOAD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/drivers/device_drivers.h"
#include "src/hw/audio_device.h"
#include "src/hw/nic.h"
#include "src/kernel/kernel.h"
#include "src/sim/poisson.h"
#include "src/sim/rng.h"
#include "src/vmm98/sound_scheme.h"
#include "src/vmm98/virus_scanner.h"
#include "src/workload/stress_profile.h"

namespace wdmlat::workload {

class StressLoad {
 public:
  struct Deps {
    kernel::Kernel* kernel = nullptr;
    drivers::DiskDriver* disk = nullptr;
    hw::Nic* nic = nullptr;
    hw::AudioStreamDevice* audio = nullptr;
    vmm98::VirusScanner* virus_scanner = nullptr;  // optional (98 only)
    vmm98::SoundScheme* sound_scheme = nullptr;    // optional (98 only)
  };

  StressLoad(Deps deps, StressProfile profile, sim::Rng rng);

  void Start();
  void Stop();

  const StressProfile& profile() const { return profile_; }
  std::uint64_t file_ops() const { return file_ops_; }
  std::uint64_t ui_events() const { return ui_events_; }
  std::uint64_t downloads() const { return downloads_; }

 private:
  void DoFileOp();
  void DoFileBurst();
  void DoUiEvent();
  void DoDownload();
  kernel::ThreadBody CpuThreadLoop(double burst_us);

  Deps deps_;
  StressProfile profile_;
  sim::Rng rng_;
  bool running_ = false;
  std::vector<std::unique_ptr<sim::PoissonProcess>> processes_;
  std::uint64_t file_ops_ = 0;
  std::uint64_t ui_events_ = 0;
  std::uint64_t downloads_ = 0;
};

}  // namespace wdmlat::workload

#endif  // SRC_WORKLOAD_STRESS_LOAD_H_
