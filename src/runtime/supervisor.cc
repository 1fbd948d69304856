#include "src/runtime/supervisor.h"

#include <sstream>

namespace wdmlat::runtime {

const char* FailureKindName(FailureKind kind) {
  switch (kind) {
    case FailureKind::kNone:
      return "none";
    case FailureKind::kException:
      return "exception";
    case FailureKind::kTimeout:
      return "timeout";
    case FailureKind::kInvariantViolation:
      return "invariant_violation";
  }
  return "unknown";
}

void Watchdog::Arm(double timeout_ms) {
  timeout_ms_ = timeout_ms;
  if (timeout_ms <= 0.0) {
    armed_ = false;
    return;
  }
  start_ = std::chrono::steady_clock::now();
  deadline_ = start_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                           std::chrono::duration<double, std::milli>(timeout_ms));
  armed_ = true;
}

double Watchdog::elapsed_ms() const {
  if (!armed_) return 0.0;
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start_)
      .count();
}

bool Watchdog::expired() const {
  return armed_ && std::chrono::steady_clock::now() > deadline_;
}

void Watchdog::Check() const {
  if (!expired()) return;
  std::ostringstream msg;
  msg << "cell exceeded host deadline budget of " << timeout_ms_ << " ms (elapsed "
      << elapsed_ms() << " ms)";
  throw DeadlineExceeded(msg.str());
}

std::string CellFailure::Render() const {
  std::ostringstream out;
  out << "cell " << cell << " seed " << seed << " failed [" << FailureKindName(kind) << "] ("
      << elapsed_ms << " ms): " << message;
  return out.str();
}

Supervisor::Supervisor(SupervisorOptions options) : options_(options) {}

std::optional<CellFailure> Supervisor::RunCell(
    std::size_t cell, std::uint64_t seed,
    const std::function<void(Watchdog& watchdog)>& body) const {
  Watchdog watchdog;
  watchdog.Arm(options_.cell_timeout_ms);
  CellFailure failure;
  failure.cell = cell;
  failure.seed = seed;
  try {
    body(watchdog);
    return std::nullopt;
  } catch (const DeadlineExceeded& e) {
    failure.kind = FailureKind::kTimeout;
    failure.message = e.what();
  } catch (const InvariantViolation& e) {
    failure.kind = FailureKind::kInvariantViolation;
    failure.message = e.what();
  } catch (const std::exception& e) {
    failure.kind = FailureKind::kException;
    failure.message = e.what();
  } catch (...) {
    failure.kind = FailureKind::kException;
    failure.message = "non-standard exception";
  }
  failure.elapsed_ms = watchdog.elapsed_ms();
  return failure;
}

}  // namespace wdmlat::runtime
