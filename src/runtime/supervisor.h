// runtime::Supervisor — the exception barrier and watchdog around one
// experiment cell.
//
// The matrix runner's headline statistics (expected hourly/daily/weekly
// worst cases) only exist if multi-hour loaded runs complete reliably, so a
// single throwing cell must not discard the whole run. The supervisor wraps
// each cell body in an exception barrier that converts any escaping
// exception into a structured CellFailure (taxonomy + message) and arms a
// host-clock watchdog that the cell polls cooperatively between simulation
// slices. Every failure is final: a cell is a pure function of its seed, so
// running it again would fail again (host-level retries are the fleet
// supervisor's, per shard process).
//
// The watchdog is host-clock by design: simulated time is deterministic and
// cannot hang, but the host running the simulation can (a pathological fault
// plan, a runaway workload parameter). Checks are cooperative — a cell that
// wedges inside a single event callback cannot be preempted, only detected
// once the run returns to a slice boundary.

#ifndef SRC_RUNTIME_SUPERVISOR_H_
#define SRC_RUNTIME_SUPERVISOR_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>

namespace wdmlat::runtime {

// Error taxonomy of a supervised cell. Stable snake_case names (the fleet
// quarantine manifest's "taxonomy" strings) via FailureKindName.
enum class FailureKind : std::uint8_t {
  kNone,
  // The cell body threw (std::exception or otherwise): a deterministic
  // failure — the same seed would throw again.
  kException,
  // The cell exceeded its host-clock deadline budget.
  kTimeout,
  // A periodic or end-of-run invariant audit found corrupted simulator
  // state; the cell's results are untrustworthy and are discarded.
  kInvariantViolation,
};

const char* FailureKindName(FailureKind kind);

// Thrown by Watchdog::Check when the budget is exhausted.
class DeadlineExceeded : public std::runtime_error {
 public:
  explicit DeadlineExceeded(const std::string& what) : std::runtime_error(what) {}
};

// Thrown by the lab layer when a sim::InvariantAuditor pass fails; carries
// the rendered violation list.
class InvariantViolation : public std::runtime_error {
 public:
  explicit InvariantViolation(const std::string& what) : std::runtime_error(what) {}
};

// A host-clock deadline budget. Armed per cell by the supervisor and
// polled cooperatively (Check) by the cell between simulation slices.
class Watchdog {
 public:
  // Start (or restart) the budget from now. timeout_ms <= 0 disarms.
  void Arm(double timeout_ms);
  void Disarm() { armed_ = false; }

  bool armed() const { return armed_; }
  double timeout_ms() const { return timeout_ms_; }
  double elapsed_ms() const;
  bool expired() const;

  // Throws DeadlineExceeded when armed and past the deadline. No-op when
  // disarmed, so callers can Check() unconditionally.
  void Check() const;

 private:
  std::chrono::steady_clock::time_point start_{};
  std::chrono::steady_clock::time_point deadline_{};
  double timeout_ms_ = 0.0;
  bool armed_ = false;
};

// One structured cell failure: everything the quarantine manifest, the CLI
// report and a post-mortem need to understand what died without re-running it.
struct CellFailure {
  std::size_t cell = 0;
  std::uint64_t seed = 0;
  FailureKind kind = FailureKind::kException;
  std::string message;
  double elapsed_ms = 0.0;

  // One-line rendering (cell, seed, taxonomy, message) for logs.
  std::string Render() const;
};

struct SupervisorOptions {
  // Host-clock budget per cell; 0 disables the watchdog.
  double cell_timeout_ms = 0.0;
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions options);

  const SupervisorOptions& options() const { return options_; }

  // Run `body(watchdog)` under the exception barrier, with the watchdog
  // armed. Returns nullopt on success, or the structured failure. Safe to
  // call from several threads at once.
  std::optional<CellFailure> RunCell(std::size_t cell, std::uint64_t seed,
                                     const std::function<void(Watchdog& watchdog)>& body) const;

 private:
  SupervisorOptions options_;
};

}  // namespace wdmlat::runtime

#endif  // SRC_RUNTIME_SUPERVISOR_H_
