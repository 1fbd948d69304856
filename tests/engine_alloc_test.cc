// Proves the engine hot path is allocation-free in steady state: after a
// warmup that grows the pool slabs, every ring bucket, the drain batch, and
// the overflow heap to their high-water marks, ScheduleAfter + Step with
// two-pointer captures must perform zero heap allocations — including
// the batched same-tick drain loop and bucket-ring rollover (epoch advance
// with far-tier migration) — and arming, disarming and firing deadline
// lanes. Asserted with a counting global operator new —
// which is why this test lives in its own binary (each tests/*.cc builds to
// a separate executable; see tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/sim/engine.h"

namespace {

// Counting is off by default so gtest's own bookkeeping never trips it; each
// test arms it only around the region under scrutiny and reads the count
// before making any gtest assertion (which may itself allocate).
bool g_counting = false;
std::uint64_t g_allocations = 0;

struct AllocationScope {
  AllocationScope() {
    g_allocations = 0;
    g_counting = true;
  }
  std::uint64_t Finish() {
    g_counting = false;
    return g_allocations;
  }
  ~AllocationScope() { g_counting = false; }
};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) {
    ++g_allocations;
  }
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  if (g_counting) {
    ++g_allocations;
  }
  const std::size_t alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) & ~(alignment - 1);
  if (void* p = std::aligned_alloc(alignment, rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace wdmlat::sim {
namespace {

struct FakeFrame {
  std::uint64_t ticks = 0;
};

// Grow every tier of the ladder calendar to its high-water mark for the
// workload under test: `bucket_events` entries into each of the 512 ring
// buckets (the furthest lands in the overflow heap and warms its buffer and
// the migration path too), and `batch_events` same-epoch entries so the
// drain batch reaches one full epoch's capacity. Firing it all also grows
// the pool slabs past anything the measured loops keep live.
void WarmEngine(Engine& engine, int bucket_events, int batch_events) {
  for (int i = 0; i < batch_events; ++i) {
    engine.ScheduleAfter(1, [] {});
  }
  for (std::uint32_t epoch = 1; epoch <= Engine::kBucketCount; ++epoch) {
    for (int i = 0; i < bucket_events; ++i) {
      engine.ScheduleAfter(epoch * Engine::kBucketWidth, [] {});
    }
  }
  engine.RunUntilIdle();
}

TEST(EngineAllocTest, SteadyStateScheduleFireIsAllocationFree) {
  Engine engine;
  FakeFrame frame;
  // The measured loop packs ~6.5k events into each 2^16-cycle epoch, so the
  // drain batch must be warmed past that.
  WarmEngine(engine, 8, 8192);
  AllocationScope scope;
  for (int i = 0; i < 100000; ++i) {
    // The hottest capture shape: two pointers.
    engine.ScheduleAfter(10, [&engine, &frame] {
      (void)engine.now();
      ++frame.ticks;
    });
    engine.Step();
  }
  const std::uint64_t allocations = scope.Finish();
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(frame.ticks, 100000u);
}

// The dispatcher's completion path: four lanes (cores) re-armed, disarmed
// and fired among calendar traffic never touch the allocator — lanes are
// opened once, and arming stores a deadline, not a callback.
TEST(EngineAllocTest, LaneArmDisarmFireIsAllocationFree) {
  Engine engine;
  std::uint64_t fired = 0;
  Engine::LaneId lanes[4];
  for (Engine::LaneId& lane : lanes) {
    lane = engine.OpenLane([](void* count) { ++*static_cast<std::uint64_t*>(count); }, &fired);
  }
  WarmEngine(engine, 8, 4096);
  AllocationScope scope;
  for (int i = 0; i < 100000; ++i) {
    Engine::LaneId lane = lanes[i % 4];
    if (i % 5 == 0) {
      engine.DisarmLane(lane);
    } else {
      engine.ArmLane(lane, 10 + static_cast<Cycles>(i % 7));
    }
    if (i % 2 == 0) {
      engine.ScheduleAfter(12, [] {});
      engine.RunUntil(engine.now() + 20);
    }
  }
  const std::uint64_t allocations = scope.Finish();
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(fired, 0u);
}

TEST(EngineAllocTest, SteadyStateCancelChurnIsAllocationFree) {
  Engine engine;
  std::uint64_t fired = 0;
  EventHandle completion;
  WarmEngine(engine, 8, 4096);
  AllocationScope scope;
  for (int i = 0; i < 100000; ++i) {
    completion.Cancel();
    completion = engine.ScheduleAfter(100, [&fired] { ++fired; });
    if (i % 3 == 0) {
      engine.Step();
    }
  }
  const std::uint64_t allocations = scope.Finish();
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(fired, 0u);
}

TEST(EngineAllocTest, BatchedSameTickDrainIsAllocationFree) {
  // Bursts of same-instant events exercise the one-sort-per-epoch batched
  // dispatch: 64 events collapse into a single drain batch and fire by
  // index increment. The whole burst/drain cycle must not allocate.
  Engine engine;
  std::uint64_t fired = 0;
  WarmEngine(engine, 64, 4096);
  AllocationScope scope;
  for (int i = 0; i < 2000; ++i) {
    const Cycles tick = engine.now() + 1000;
    for (int j = 0; j < 64; ++j) {
      engine.ScheduleAt(tick, [&fired] { ++fired; });
    }
    engine.RunUntil(tick);
  }
  const std::uint64_t allocations = scope.Finish();
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(fired, 2000u * 64u);
}

TEST(EngineAllocTest, RingRolloverWithFarMigrationIsAllocationFree) {
  // Every iteration advances the window by one bucket epoch while feeding
  // the overflow tier an event beyond the ring horizon, so the measured
  // region covers epoch rollover, the occupancy-bitmap scan, and far→near
  // migration — all of which must run out of pre-grown buffers.
  Engine engine;
  std::uint64_t fired = 0;
  WarmEngine(engine, 8, 256);
  AllocationScope scope;
  for (int i = 0; i < 4000; ++i) {
    engine.ScheduleAfter(Engine::kHorizonCycles + 5 * Engine::kBucketWidth,
                         [&fired] { ++fired; });
    engine.RunUntil(engine.now() + Engine::kBucketWidth);
  }
  const std::uint64_t allocations = scope.Finish();
  EXPECT_EQ(allocations, 0u);
  // All but the last horizon's worth of far-tier events migrated and fired.
  EXPECT_GT(fired, 3000u);
}

TEST(EngineAllocTest, OversizedCaptureDoesAllocate) {
  // Sanity check that the hook actually counts: a capture past the inline
  // budget must take the heap fallback.
  Engine engine;
  char big[128] = {};
  AllocationScope scope;
  engine.ScheduleAfter(1, [big] { (void)big[0]; });
  const std::uint64_t allocations = scope.Finish();
  EXPECT_GE(allocations, 1u);
  engine.RunUntilIdle();
}

}  // namespace
}  // namespace wdmlat::sim
