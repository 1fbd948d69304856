#include "src/sim/inplace_callback.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

namespace wdmlat::sim {
namespace {

TEST(InplaceCallbackTest, DefaultIsEmpty) {
  InplaceCallback cb;
  EXPECT_FALSE(static_cast<bool>(cb));
  InplaceCallback null_cb = nullptr;
  EXPECT_FALSE(static_cast<bool>(null_cb));
}

TEST(InplaceCallbackTest, InvokesInlineLambda) {
  int count = 0;
  InplaceCallback cb = [&count] { ++count; };
  ASSERT_TRUE(static_cast<bool>(cb));
  cb();
  cb();
  EXPECT_EQ(count, 2);
}

TEST(InplaceCallbackTest, DispatcherSizedCapturesStayInline) {
  // The kernel's hottest lambdas capture {this, object*}; a std::function
  // forwarded from legacy call sites is 32 bytes on libstdc++. Both must be
  // inline-eligible or the engine hot path regresses to allocating.
  struct Dummy {};
  Dummy* a = nullptr;
  Dummy* b = nullptr;
  auto two_pointers = [a, b] { (void)a, (void)b; };
  static_assert(InplaceCallback::kFitsInline<decltype(two_pointers)>);
  static_assert(InplaceCallback::kFitsInline<std::function<void()>>);
}

TEST(InplaceCallbackTest, MoveTransfersOwnership) {
  int count = 0;
  InplaceCallback a = [&count] { ++count; };
  InplaceCallback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(count, 1);
  InplaceCallback c;
  c = std::move(b);
  c();
  EXPECT_EQ(count, 2);
}

TEST(InplaceCallbackTest, ResetReleasesCapturedState) {
  auto token = std::make_shared<int>(7);
  InplaceCallback cb = [token] { (void)*token; };
  EXPECT_EQ(token.use_count(), 2);
  cb.reset();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InplaceCallbackTest, AssignNullptrReleasesCapturedState) {
  auto token = std::make_shared<int>(7);
  InplaceCallback cb = [token] { (void)*token; };
  EXPECT_EQ(token.use_count(), 2);
  cb = nullptr;
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InplaceCallbackTest, DestructorReleasesCapturedState) {
  auto token = std::make_shared<int>(7);
  {
    InplaceCallback cb = [token] { (void)*token; };
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InplaceCallbackTest, OversizedCaptureTakesHeapFallbackAndWorks) {
  std::array<std::uint8_t, 128> big{};
  big[0] = 1;
  big[127] = 2;
  int sum = 0;
  auto fn = [big, &sum] { sum += big[0] + big[127]; };
  static_assert(!InplaceCallback::kFitsInline<decltype(fn)>);
  InplaceCallback cb = fn;
  cb();
  EXPECT_EQ(sum, 3);
  // Moving a heap-fallback callback steals the pointer; both invoke and
  // destroy must keep working through the new owner.
  InplaceCallback moved = std::move(cb);
  moved();
  EXPECT_EQ(sum, 6);
}

TEST(InplaceCallbackTest, HeapFallbackReleasesCapturedState) {
  auto token = std::make_shared<int>(7);
  std::array<std::uint8_t, 128> big{};
  {
    InplaceCallback cb = [token, big] { (void)*token, (void)big[0]; };
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InplaceCallbackTest, MoveAssignmentDestroysPreviousCallable) {
  auto first = std::make_shared<int>(1);
  auto second = std::make_shared<int>(2);
  InplaceCallback cb = [first] { (void)*first; };
  cb = InplaceCallback([second] { (void)*second; });
  EXPECT_EQ(first.use_count(), 1);
  EXPECT_EQ(second.use_count(), 2);
}

TEST(InplaceCallbackTest, EmplaceReplacesCallableWithoutRelocation) {
  auto first = std::make_shared<int>(1);
  InplaceCallback cb = [first] { (void)*first; };
  int count = 0;
  cb.emplace([&count] { ++count; });
  EXPECT_EQ(first.use_count(), 1);
  cb();
  EXPECT_EQ(count, 1);
}

TEST(InplaceCallbackTest, ForwardedStdFunctionIsCopiedNotConsumed) {
  int count = 0;
  std::function<void()> fn = [&count] { ++count; };
  InplaceCallback cb = fn;  // lvalue: must copy, leaving fn intact
  cb();
  fn();
  EXPECT_EQ(count, 2);
}

}  // namespace
}  // namespace wdmlat::sim
