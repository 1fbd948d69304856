// runtime::Supervisor: the exception barrier and watchdog around one
// experiment cell. Tested without any simulation — the supervisor
// is simulation-agnostic by design.

#include "src/runtime/supervisor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>

namespace wdmlat::runtime {
namespace {

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

TEST(SupervisorTest, SuccessReturnsNulloptAndCountsCells) {
  const Supervisor supervisor(SupervisorOptions{});
  int calls = 0;
  const auto failure = supervisor.RunCell(7, 99, [&](Watchdog&) { ++calls; });
  EXPECT_FALSE(failure.has_value());
  EXPECT_EQ(calls, 1);
}

TEST(SupervisorTest, ExceptionIsDeterministicAndNeverRetried) {
  const Supervisor supervisor(SupervisorOptions{});
  int calls = 0;
  const auto failure = supervisor.RunCell(3, 42, [&](Watchdog&) {
    ++calls;
    throw std::runtime_error("boom");
  });
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(calls, 1);  // the same seed would throw again
  EXPECT_EQ(failure->kind, FailureKind::kException);
  EXPECT_EQ(failure->cell, 3u);
  EXPECT_EQ(failure->seed, 42u);
  EXPECT_EQ(failure->message, "boom");
}

TEST(SupervisorTest, InvariantViolationMapsToItsTaxonomy) {
  const Supervisor supervisor(SupervisorOptions{});
  const auto failure = supervisor.RunCell(0, 1, [](Watchdog&) {
    throw InvariantViolation("heap order broken");
  });
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->kind, FailureKind::kInvariantViolation);
}

TEST(SupervisorTest, DeadlineMapsToTimeout) {
  SupervisorOptions options;
  options.cell_timeout_ms = 1.0;
  const Supervisor supervisor(options);
  const auto failure = supervisor.RunCell(0, 1, [](Watchdog& dog) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    dog.Check();  // cooperative poll, as the sliced lab run does
  });
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->kind, FailureKind::kTimeout);
}

TEST(SupervisorTest, FinalFailureRendersCellSeedAndTaxonomy) {
  const Supervisor supervisor(SupervisorOptions{});
  const auto failure =
      supervisor.RunCell(5, 9, [](Watchdog&) { throw std::runtime_error("flaky"); });
  ASSERT_TRUE(failure.has_value());

  const std::string rendered = failure->Render();
  EXPECT_NE(rendered.find("cell 5 seed 9"), std::string::npos);
  EXPECT_NE(rendered.find("[exception] ("), std::string::npos);
  EXPECT_NE(rendered.find("): flaky"), std::string::npos);
}

TEST(SupervisorTest, NonStandardExceptionIsStillCaptured) {
  const Supervisor supervisor(SupervisorOptions{});
  const auto failure = supervisor.RunCell(0, 0, [](Watchdog&) { throw 42; });
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->kind, FailureKind::kException);
  EXPECT_EQ(failure->message, "non-standard exception");
}

}  // namespace
}  // namespace wdmlat::runtime
