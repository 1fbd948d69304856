// fault::Injector — drives a FaultPlan on a simulated machine.
//
// The injector is provably passive when the plan is empty: construction
// touches nothing, Start() with no specs creates no kernel objects, connects
// no interrupt lines and draws from no RNG stream, so a run with an empty
// plan is bit-identical to a run with no injector at all (the golden-checksum
// passivity test holds the subsystem to this).
//
// Determinism: each spec gets two RNG streams (trigger gaps, per-activation
// payloads) whose seeds are SplitMix64-derived from (plan.seed, cell_seed,
// spec index) only — never from the workload's RNG — so the same plan on the
// same cell perturbs identically regardless of what else the machine runs,
// and a differential pair (baseline without injector, perturbed with) shares
// the workload's entire random sequence.
//
// Every injected activity carries Label{kFaultModule, spec.LabelFunction()},
// so the trace, the cause tool and the flight recorder attribute the damage
// to FAULTINJ — giving the attribution pipeline injected ground truth to be
// scored against (obs::ScoreInjectedGroundTruth).

#ifndef SRC_FAULT_INJECTOR_H_
#define SRC_FAULT_INJECTOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/drivers/device_drivers.h"
#include "src/fault/fault.h"
#include "src/kernel/kernel.h"
#include "src/sim/engine.h"
#include "src/sim/poisson.h"
#include "src/sim/rng.h"

namespace wdmlat::fault {

// What the injector may touch. `disk` is optional; disk_seek_storm specs are
// skipped (and counted) when it is absent.
struct InjectorTargets {
  kernel::Kernel* kernel = nullptr;
  drivers::DiskDriver* disk = nullptr;
};

// One recorded activation (ground truth for tests and reports).
struct FaultActivation {
  FaultKind kind = FaultKind::kLockoutHold;
  sim::Cycles at = 0;
  // Sampled length for duration-style faults; for storms, the sum of the
  // per-event durations sampled at activation (irq storms sample per ISR
  // entry instead, so they record 0 here).
  sim::Cycles duration = 0;
  int events = 1;
};

class Injector {
 public:
  // `cell_seed` is the experiment cell's seed (matrix CellSeed or the lab
  // seed); it salts the injector's derived streams so each cell is perturbed
  // independently.
  Injector(InjectorTargets targets, FaultPlan plan, std::uint64_t cell_seed);
  ~Injector();

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  // Arm every spec's trigger. Must be called at most once, before the run.
  // No-op for an empty plan.
  void Start();
  // Disarm all triggers (pending activations are cancelled; in-flight
  // injected sections run to completion).
  void Stop();

  const FaultPlan& plan() const { return plan_; }
  std::uint64_t activation_count() const { return log_.size(); }
  const std::vector<FaultActivation>& log() const { return log_; }
  // disk_seek_storm activations dropped because no disk driver was wired.
  std::uint64_t skipped_no_disk() const { return skipped_no_disk_; }

 private:
  struct SpecState {
    const FaultSpec* spec = nullptr;
    std::size_t index = 0;
    sim::Rng trigger_rng{0};
    sim::Rng payload_rng{0};
    // Stable storage for the trace label's function string (Label holds
    // const char*; this string outlives every trace event consumer because
    // the injector outlives the run).
    std::string function;
    std::uint64_t fired = 0;
    sim::EventHandle next;                          // one-shot / periodic
    std::unique_ptr<sim::PoissonProcess> poisson;   // poisson
    int irq_line = -1;                              // irq_storm
    std::vector<std::unique_ptr<kernel::KDpc>> dpc_pool;  // dpc_storm
    std::vector<sim::EventHandle> burst_events;
    // timer_jitter: PIT ticks still owed a drift sample from this spec's
    // payload stream (each activation adds `burst`).
    std::uint64_t jitter_ticks_left = 0;
    // priority_invert plumbing (shared across invert specs).
  };

  // Lazily created only when the plan contains a priority_invert spec.
  struct InversionRig {
    kernel::KMutex mutex;
    kernel::KSemaphore hold_sem{0};
    kernel::KSemaphore victim_sem{0};
    kernel::KThread* holder = nullptr;
    kernel::KThread* victim = nullptr;
    std::deque<double> hold_us;  // sampled durations pending consumption
  };

  void SetUp(SpecState& state);
  void Arm(SpecState& state);
  void Fire(SpecState& state);
  void Activate(SpecState& state);
  void RunBurst(SpecState& state, int index);
  kernel::Label LabelFor(const SpecState& state) const;
  void EnsureInversionRig();
  kernel::ThreadBody HolderLoop();
  kernel::ThreadBody VictimLoop();

  InjectorTargets targets_;
  FaultPlan plan_;
  std::uint64_t cell_seed_;
  bool started_ = false;

  std::vector<std::unique_ptr<SpecState>> specs_;
  std::unique_ptr<InversionRig> rig_;
  std::vector<FaultActivation> log_;
  std::uint64_t skipped_no_disk_ = 0;
  // One shared PIT hook serves every timer_jitter spec; it must be removed
  // in Stop() because the injector dies before the simulated machine.
  bool pit_hook_installed_ = false;
};

}  // namespace wdmlat::fault

#endif  // SRC_FAULT_INJECTOR_H_
