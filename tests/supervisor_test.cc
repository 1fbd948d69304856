// runtime::Supervisor: the exception barrier, watchdog and retry policy
// around one experiment cell. Tested without any simulation — the supervisor
// is simulation-agnostic by design.

#include "src/runtime/supervisor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>

namespace wdmlat::runtime {
namespace {

TEST(FailureKindTest, NamesRoundTrip) {
  for (FailureKind kind : {FailureKind::kNone, FailureKind::kException,
                           FailureKind::kTimeout, FailureKind::kInvariantViolation,
                           FailureKind::kHostTransient}) {
    FailureKind parsed{};
    ASSERT_TRUE(FailureKindFromName(FailureKindName(kind), &parsed))
        << FailureKindName(kind);
    EXPECT_EQ(parsed, kind);
  }
  FailureKind parsed{};
  EXPECT_FALSE(FailureKindFromName("segfault", &parsed));
}

TEST(WatchdogTest, DisarmedCheckIsANoOp) {
  Watchdog dog;
  EXPECT_FALSE(dog.armed());
  EXPECT_NO_THROW(dog.Check());
  dog.Arm(0.0);  // timeout <= 0 disarms
  EXPECT_FALSE(dog.armed());
  EXPECT_NO_THROW(dog.Check());
}

TEST(WatchdogTest, ExpiresAndThrowsPastDeadline) {
  Watchdog dog;
  dog.Arm(1.0);
  EXPECT_TRUE(dog.armed());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(dog.expired());
  EXPECT_THROW(dog.Check(), DeadlineExceeded);
  dog.Disarm();
  EXPECT_NO_THROW(dog.Check());
}

TEST(WatchdogTest, GenerousBudgetDoesNotExpire) {
  Watchdog dog;
  dog.Arm(60'000.0);
  EXPECT_FALSE(dog.expired());
  EXPECT_NO_THROW(dog.Check());
  EXPECT_GE(dog.elapsed_ms(), 0.0);
}

SupervisorOptions FastRetryOptions(int max_attempts) {
  SupervisorOptions options;
  options.max_attempts = max_attempts;
  options.retry_backoff_ms = 0.0;  // keep the test instant
  return options;
}

TEST(SupervisorTest, SuccessReturnsNulloptAndCountsCells) {
  Supervisor supervisor(FastRetryOptions(3));
  int calls = 0;
  const auto failure = supervisor.RunCell(
      7, 99, [&](int attempt, Watchdog&) {
        EXPECT_EQ(attempt, 1);
        ++calls;
      });
  EXPECT_FALSE(failure.has_value());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(supervisor.cells_run(), 1u);
  EXPECT_EQ(supervisor.retries(), 0u);
}

TEST(SupervisorTest, ExceptionIsDeterministicAndNeverRetried) {
  Supervisor supervisor(FastRetryOptions(5));
  int calls = 0;
  const auto failure = supervisor.RunCell(3, 42, [&](int, Watchdog&) {
    ++calls;
    throw std::runtime_error("boom");
  });
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(calls, 1);  // the same seed would throw again
  EXPECT_EQ(failure->kind, FailureKind::kException);
  EXPECT_EQ(failure->cell, 3u);
  EXPECT_EQ(failure->seed, 42u);
  EXPECT_EQ(failure->attempts, 1);
  EXPECT_EQ(failure->message, "boom");
}

TEST(SupervisorTest, InvariantViolationMapsToItsTaxonomy) {
  Supervisor supervisor(FastRetryOptions(3));
  const auto failure = supervisor.RunCell(0, 1, [](int, Watchdog&) {
    throw InvariantViolation("heap order broken");
  });
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->kind, FailureKind::kInvariantViolation);
}

TEST(SupervisorTest, DeadlineMapsToTimeout) {
  SupervisorOptions options = FastRetryOptions(3);
  options.cell_timeout_ms = 1.0;
  Supervisor supervisor(options);
  const auto failure = supervisor.RunCell(0, 1, [](int, Watchdog& dog) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    dog.Check();  // cooperative poll, as the sliced lab run does
  });
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->kind, FailureKind::kTimeout);
  EXPECT_EQ(failure->attempts, 1);  // timeouts are not retried
}

TEST(SupervisorTest, HostTransientRetriesWithSameSeedThenSucceeds) {
  Supervisor supervisor(FastRetryOptions(3));
  int calls = 0;
  const auto failure = supervisor.RunCell(1, 77, [&](int attempt, Watchdog&) {
    ++calls;
    EXPECT_EQ(attempt, calls);  // attempts are 1-based and sequential
    if (attempt < 3) {
      throw TransientError("disk hiccup");
    }
  });
  EXPECT_FALSE(failure.has_value());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(supervisor.retries(), 2u);
}

TEST(SupervisorTest, HostTransientExhaustsAttempts) {
  Supervisor supervisor(FastRetryOptions(3));
  int calls = 0;
  const auto failure = supervisor.RunCell(1, 77, [&](int, Watchdog&) {
    ++calls;
    throw TransientError("still down");
  });
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(failure->kind, FailureKind::kHostTransient);
  EXPECT_EQ(failure->attempts, 3);
  EXPECT_EQ(supervisor.retries(), 2u);
}

TEST(SupervisorTest, FinalFailureRendersCellSeedAndTaxonomy) {
  Supervisor supervisor(FastRetryOptions(2));
  const auto failure =
      supervisor.RunCell(5, 9, [](int, Watchdog&) { throw TransientError("flaky"); });
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->attempts, 2);

  const std::string rendered = failure->Render();
  EXPECT_NE(rendered.find("cell 5 seed 9"), std::string::npos);
  EXPECT_NE(rendered.find("[host_transient] after 2 attempts"), std::string::npos);
  EXPECT_NE(rendered.find("): flaky"), std::string::npos);
}

TEST(SupervisorTest, NonStandardExceptionIsStillCaptured) {
  Supervisor supervisor(FastRetryOptions(1));
  const auto failure = supervisor.RunCell(0, 0, [](int, Watchdog&) { throw 42; });
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->kind, FailureKind::kException);
  EXPECT_EQ(failure->message, "non-standard exception");
}

}  // namespace
}  // namespace wdmlat::runtime
