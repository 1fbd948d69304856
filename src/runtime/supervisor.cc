#include "src/runtime/supervisor.h"

#include <sstream>
#include <thread>
#include <utility>

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
    case FailureKind::kHostTransient:
      return "host_transient";
  }
  return "unknown";
}

bool FailureKindFromName(std::string_view name, FailureKind* out) {
  for (FailureKind kind :
       {FailureKind::kNone, FailureKind::kException, FailureKind::kTimeout,
        FailureKind::kInvariantViolation, FailureKind::kHostTransient}) {
    if (name == FailureKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
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
  out << "cell " << cell << " seed " << seed << " failed [" << FailureKindName(kind)
      << "] after " << attempts << (attempts == 1 ? " attempt" : " attempts") << " ("
      << elapsed_ms << " ms): " << message;
  return out.str();
}

Supervisor::Supervisor(SupervisorOptions options) : options_(options) {
  if (options_.max_attempts < 1) options_.max_attempts = 1;
}

std::optional<CellFailure> Supervisor::RunCell(
    std::size_t cell, std::uint64_t seed,
    const std::function<void(int attempt, Watchdog& watchdog)>& body) {
  ++cells_run_;
  Watchdog watchdog;
  double backoff_ms = options_.retry_backoff_ms;
  for (int attempt = 1;; ++attempt) {
    watchdog.Arm(options_.cell_timeout_ms);
    CellFailure failure;
    failure.cell = cell;
    failure.seed = seed;
    failure.attempts = attempt;
    try {
      body(attempt, watchdog);
      return std::nullopt;
    } catch (const DeadlineExceeded& e) {
      failure.kind = FailureKind::kTimeout;
      failure.message = e.what();
    } catch (const InvariantViolation& e) {
      failure.kind = FailureKind::kInvariantViolation;
      failure.message = e.what();
    } catch (const TransientError& e) {
      failure.kind = FailureKind::kHostTransient;
      failure.message = e.what();
    } catch (const std::exception& e) {
      failure.kind = FailureKind::kException;
      failure.message = e.what();
    } catch (...) {
      failure.kind = FailureKind::kException;
      failure.message = "non-standard exception";
    }
    failure.elapsed_ms = watchdog.elapsed_ms();
    const bool retryable = failure.kind == FailureKind::kHostTransient &&
                           attempt < options_.max_attempts;
    if (!retryable) {
      return failure;
    }
    ++retries_;
    if (backoff_ms > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(backoff_ms));
      backoff_ms *= 2.0;
    }
  }
}

}  // namespace wdmlat::runtime
