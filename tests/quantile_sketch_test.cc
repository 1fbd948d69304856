// QuantileSketch: accuracy against exact order statistics, deep-tail
// exactness, merge determinism (the grid-order contract the matrix relies
// on), resume round-trips, snapshot hardening, and the linear tail fold's
// bit-equality with the sort-based fold it replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "src/kernel/profile.h"
#include "src/lab/matrix.h"
#include "src/lab/report_io.h"
#include "src/stats/quantile_sketch.h"
#include "src/workload/stress_profile.h"

namespace wdmlat {
namespace {

// Deterministic 64-bit generator (SplitMix64) — no std:: RNG, so the sample
// streams below are identical on every platform and run.
class DetRng {
 public:
  explicit DetRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    state_ += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in (0, 1].
  double NextUnit() {
    return (static_cast<double>(Next() >> 11) + 1.0) / 9007199254740992.0;
  }
  // Heavy-tailed latency-like value in milliseconds: lognormal-ish body with
  // a Pareto tail, the shape the paper's distributions actually have.
  double NextLatencyMs() {
    const double u = NextUnit();
    const double body = 0.05 * std::exp(2.0 * NextUnit());
    const double tail = (u < 0.001) ? 5.0 / std::pow(NextUnit(), 0.5) : 0.0;
    return body + tail;
  }

 private:
  std::uint64_t state_;
};

double ExactQuantile(std::vector<double> sorted_ascending, double q) {
  // Same 1-based ceil-rank convention as QuantileSketch::QuantileMs.
  const std::uint64_t n = sorted_ascending.size();
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  rank = std::max<std::uint64_t>(1, std::min(rank, n));
  return sorted_ascending[rank - 1];
}

TEST(QuantileSketchTest, BodyQuantilesWithinHistogramBucketResolution) {
  stats::QuantileSketch sketch;
  DetRng rng(2026);
  std::vector<double> samples;
  constexpr std::size_t kCount = 200000;
  samples.reserve(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    const double ms = rng.NextLatencyMs();
    samples.push_back(ms);
    sketch.RecordMs(ms);
  }
  std::sort(samples.begin(), samples.end());
  // LatencyHistogram resolves ~2.2% per bucket (32 buckets per octave);
  // the sketch must do at least that well through the body.
  constexpr double kBucketRatio = 1.0219;  // 2^(1/32)
  for (const double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.99}) {
    const double exact = ExactQuantile(samples, q);
    const double approx = sketch.QuantileMs(q);
    EXPECT_LE(approx, exact * kBucketRatio) << "q=" << q;
    EXPECT_GE(approx, exact / kBucketRatio) << "q=" << q;
  }
  EXPECT_EQ(sketch.count(), kCount);
  EXPECT_DOUBLE_EQ(sketch.min_ms(), samples.front());
  EXPECT_DOUBLE_EQ(sketch.max_ms(), samples.back());
}

TEST(QuantileSketchTest, DeepTailIsExactOnTenMillionSamples) {
  // The acceptance bar: P99.9 of 10M samples within one histogram bucket of
  // the exact order statistic. The exceedance rank (10,000) fits in the
  // 16384-deep tail reservoir, so the sketch actually answers *exactly*.
  stats::QuantileSketch sketch;
  DetRng rng(7);
  constexpr std::size_t kCount = 10000000;
  std::vector<double> samples;
  samples.reserve(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    const double ms = rng.NextLatencyMs();
    samples.push_back(ms);
    sketch.RecordMs(ms);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.999, 0.9999, 0.99999}) {
    EXPECT_EQ(sketch.QuantileMs(q), ExactQuantile(samples, q)) << "q=" << q;
  }
  EXPECT_EQ(sketch.QuantileMs(1.0), samples.back());
}

using SketchState = stats::QuantileSketch::State;

bool SameDoubleBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Bitwise equality of two sketch states — the determinism the grid-order
// merge and fleet resume promise.
void ExpectSameState(const SketchState& actual, const SketchState& expected,
                     const std::string& where) {
  EXPECT_TRUE(SameDoubleBits(actual.tail, expected.tail)) << where << ": tail";
  ASSERT_EQ(actual.levels.size(), expected.levels.size()) << where;
  for (std::size_t l = 0; l < actual.levels.size(); ++l) {
    EXPECT_TRUE(SameDoubleBits(actual.levels[l], expected.levels[l])) << where << ": level " << l;
  }
  EXPECT_EQ(actual.parities, expected.parities) << where;
  EXPECT_EQ(actual.count, expected.count) << where;
  EXPECT_TRUE(SameDoubleBits({actual.sum_ms, actual.min_ms, actual.max_ms},
                             {expected.sum_ms, expected.min_ms, expected.max_ms}))
      << where << ": scalars";
}

void ExpectSameBits(const stats::QuantileSketch& a, const stats::QuantileSketch& b) {
  ExpectSameState(a.ExportState(), b.ExportState(), "sketch");
}

TEST(QuantileSketchTest, GridOrderMergeIsAPureFunctionOfOperands) {
  // Build 8 per-cell sketches, then fold them in grid order twice from
  // scratch: the folded bits must be identical (this is what makes the
  // merged result independent of --jobs, which only changes completion
  // order, never merge order).
  std::vector<stats::QuantileSketch> cells(8);
  DetRng rng(99);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (int i = 0; i < 40000; ++i) {
      cells[c].RecordMs(rng.NextLatencyMs());
    }
  }
  stats::QuantileSketch fold1;
  stats::QuantileSketch fold2;
  for (const stats::QuantileSketch& cell : cells) {
    fold1.Merge(cell);
  }
  for (const stats::QuantileSketch& cell : cells) {
    fold2.Merge(cell);
  }
  ExpectSameBits(fold1, fold2);
}

TEST(QuantileSketchTest, TailMergeIsExactAndOrderIndependent) {
  stats::QuantileSketch a;
  stats::QuantileSketch b;
  DetRng rng(3);
  std::vector<double> all;
  for (int i = 0; i < 30000; ++i) {
    const double ms = rng.NextLatencyMs();
    all.push_back(ms);
    a.RecordMs(ms);
  }
  for (int i = 0; i < 50000; ++i) {
    const double ms = rng.NextLatencyMs();
    all.push_back(ms);
    b.RecordMs(ms);
  }
  stats::QuantileSketch ab = a;
  ab.Merge(b);
  stats::QuantileSketch ba = b;
  ba.Merge(a);
  // The compactor stacks are sequence-dependent, but the exact tail — and
  // therefore every deep quantile — must commute.
  std::sort(all.begin(), all.end());
  for (const double q : {0.999, 0.9999}) {
    const double exact = ExactQuantile(all, q);
    EXPECT_EQ(ab.QuantileMs(q), exact) << "q=" << q;
    EXPECT_EQ(ba.QuantileMs(q), exact) << "q=" << q;
  }
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_EQ(ab.max_ms(), ba.max_ms());
}

TEST(QuantileSketchTest, ExportImportRoundTripIsLossless) {
  stats::QuantileSketch original;
  DetRng rng(11);
  for (int i = 0; i < 123457; ++i) {
    original.RecordMs(rng.NextLatencyMs());
  }
  stats::QuantileSketch restored;
  ASSERT_TRUE(restored.ImportState(original.ExportState()));
  ExpectSameBits(original, restored);
  // A restored sketch must keep merging identically to the original.
  stats::QuantileSketch extra;
  for (int i = 0; i < 5000; ++i) {
    extra.RecordMs(rng.NextLatencyMs());
  }
  stats::QuantileSketch merged_orig = original;
  merged_orig.Merge(extra);
  restored.Merge(extra);
  ExpectSameBits(merged_orig, restored);
}

TEST(QuantileSketchTest, ImportRejectsCorruptSnapshots) {
  stats::QuantileSketch source;
  DetRng rng(13);
  for (int i = 0; i < 10000; ++i) {
    source.RecordMs(rng.NextLatencyMs());
  }
  const stats::QuantileSketch::State good = source.ExportState();
  stats::QuantileSketch target;
  ASSERT_TRUE(target.ImportState(good));

  // Weight conservation broken: count no longer matches the level items.
  stats::QuantileSketch::State bad = good;
  bad.count += 1;
  EXPECT_FALSE(target.ImportState(bad));
  EXPECT_EQ(target.count(), 0u);  // failed import leaves the sketch reset

  // Parity vector out of step with the levels.
  bad = good;
  bad.parities.push_back(0);
  EXPECT_FALSE(target.ImportState(bad));

  // Non-finite sample value in the tail.
  bad = good;
  ASSERT_FALSE(bad.tail.empty());
  bad.tail.front() = std::nan("");
  EXPECT_FALSE(target.ImportState(bad));

  // Tail size inconsistent with the recorded count (weight still conserved).
  bad = good;
  bad.tail.pop_back();
  EXPECT_FALSE(target.ImportState(bad));
}

TEST(QuantileSketchTest, ImportRejectsNegativeZero) {
  // -0.0 == 0.0, so a sort may order the two either way; the sorted tail
  // fold is bit-exact only because no sketch ever holds a -0.0.
  stats::QuantileSketch source;
  for (int i = 0; i < 1000; ++i) {
    source.RecordMs(i % 2 == 0 ? 0.0 : 0.5);
  }
  const stats::QuantileSketch::State good = source.ExportState();
  stats::QuantileSketch target;
  ASSERT_TRUE(target.ImportState(good));

  stats::QuantileSketch::State bad = good;
  const auto zero_in_tail = std::find(bad.tail.begin(), bad.tail.end(), 0.0);
  ASSERT_NE(zero_in_tail, bad.tail.end());
  *zero_in_tail = -0.0;
  EXPECT_FALSE(target.ImportState(bad));

  bad = good;
  ASSERT_FALSE(bad.levels.empty());
  ASSERT_FALSE(bad.levels.front().empty());
  bad.levels.front().front() = -0.0;
  EXPECT_FALSE(target.ImportState(bad));
}

// --- Linear tail fold vs the sort-based fold ---------------------------------

void ReferenceCompactLevel(SketchState& s, std::size_t level) {
  if (s.levels.size() <= level + 1) {
    s.levels.emplace_back();
    s.parities.push_back(0);
  }
  std::vector<double>& buf = s.levels[level];
  std::sort(buf.begin(), buf.end());
  std::size_t n = buf.size();
  const bool carry = (n % 2) == 1;
  if (carry) {
    --n;
  }
  if (n == 0) {
    return;
  }
  const std::size_t offset = s.parities[level];
  s.parities[level] ^= 1;
  std::vector<double>& up = s.levels[level + 1];
  for (std::size_t i = offset; i < n; i += 2) {
    up.push_back(buf[i]);
  }
  if (carry) {
    buf.front() = buf.back();
    buf.resize(1);
  } else {
    buf.clear();
  }
}

// QuantileSketch::Merge as it stood before the tail fold went linear:
// concatenate both reservoirs, sort, keep the top K, rebuild the heap. The
// linear fold must reproduce its every bit.
SketchState ReferenceMerge(SketchState acc, const SketchState& other) {
  if (other.count == 0) {
    return acc;
  }
  if (acc.count == 0) {
    acc.min_ms = other.min_ms;
    acc.max_ms = other.max_ms;
  } else {
    acc.min_ms = std::min(acc.min_ms, other.min_ms);
    acc.max_ms = std::max(acc.max_ms, other.max_ms);
  }
  acc.count += other.count;
  acc.sum_ms += other.sum_ms;
  while (acc.levels.size() < other.levels.size()) {
    acc.levels.emplace_back();
    acc.parities.push_back(other.parities[acc.levels.size() - 1]);
  }
  for (std::size_t l = 0; l < other.levels.size(); ++l) {
    acc.levels[l].insert(acc.levels[l].end(), other.levels[l].begin(), other.levels[l].end());
  }
  for (std::size_t l = 0; l < acc.levels.size(); ++l) {
    while (acc.levels[l].size() >= stats::QuantileSketch::kCompactorCapacity) {
      ReferenceCompactLevel(acc, l);
    }
  }
  std::vector<double> merged;
  merged.insert(merged.end(), acc.tail.begin(), acc.tail.end());
  merged.insert(merged.end(), other.tail.begin(), other.tail.end());
  std::sort(merged.begin(), merged.end());
  if (merged.size() > stats::QuantileSketch::kTailCapacity) {
    merged.erase(merged.begin(), merged.end() - stats::QuantileSketch::kTailCapacity);
  }
  acc.tail = std::move(merged);
  std::make_heap(acc.tail.begin(), acc.tail.end(), std::greater<>());
  return acc;
}

struct FoldStep {
  enum Kind {
    kMergeCell,    // fold a fresh cell of n recorded samples
    kMergeFolded,  // fold a cell that is itself a fold of two n/2-sample cells
    kRecord,       // record n samples straight into the accumulator
  };
  Kind kind;
  std::size_t n;
};

using ValueFn = std::function<double(DetRng&)>;

stats::QuantileSketch RecordedCell(std::size_t n, DetRng& rng, const ValueFn& value) {
  stats::QuantileSketch cell;
  for (std::size_t i = 0; i < n; ++i) {
    cell.RecordMs(value(rng));
  }
  return cell;
}

// Runs `steps` on `acc`, checking every fold against ReferenceMerge applied
// to the same two operand states.
void CheckFoldSequence(const std::string& name, stats::QuantileSketch acc,
                       const std::vector<FoldStep>& steps, const ValueFn& value) {
  DetRng rng(lab::Fnv1a64(name));
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const FoldStep& step = steps[s];
    if (step.kind == FoldStep::kRecord) {
      for (std::size_t i = 0; i < step.n; ++i) {
        acc.RecordMs(value(rng));
      }
      continue;
    }
    stats::QuantileSketch cell;
    if (step.kind == FoldStep::kMergeCell) {
      cell = RecordedCell(step.n, rng, value);
    } else {
      cell = RecordedCell(step.n / 2, rng, value);
      cell.Merge(RecordedCell(step.n - step.n / 2, rng, value));
    }
    const SketchState expected = ReferenceMerge(acc.ExportState(), cell.ExportState());
    acc.Merge(cell);
    ExpectSameState(acc.ExportState(), expected, name + " step " + std::to_string(s));
  }
}

double Latency(DetRng& rng) { return rng.NextLatencyMs(); }

constexpr std::size_t kK = stats::QuantileSketch::kTailCapacity;

TEST(QuantileSketchFold, UnderCapacityTailsMatchSortedFold) {
  CheckFoldSequence("under_capacity", {},
                    {{FoldStep::kMergeCell, 100},
                     {FoldStep::kMergeCell, 1},
                     {FoldStep::kMergeCell, 3000},
                     {FoldStep::kMergeFolded, 500},
                     {FoldStep::kMergeCell, 250}},
                    Latency);
}

TEST(QuantileSketchFold, ExactlyFullReservoirMatchesSortedFold) {
  CheckFoldSequence("exactly_k_parts", {},
                    {{FoldStep::kMergeCell, 8000},
                     {FoldStep::kMergeCell, kK - 8000},
                     {FoldStep::kMergeCell, 1},
                     {FoldStep::kMergeCell, kK}},
                    Latency);
  CheckFoldSequence("exactly_k_cell", {},
                    {{FoldStep::kMergeCell, kK}, {FoldStep::kMergeCell, kK}}, Latency);
}

TEST(QuantileSketchFold, FullReservoirsWithHeavyDuplicatesMatchSortedFold) {
  // 64 distinct values: nearly every incoming value ties the reservoir floor.
  const ValueFn coarse = [](DetRng& rng) {
    return 0.125 * std::floor(64.0 * rng.NextUnit());
  };
  CheckFoldSequence("heavy_duplicates", {},
                    {{FoldStep::kMergeCell, 20000},
                     {FoldStep::kMergeCell, 1500},
                     {FoldStep::kMergeCell, 1500},
                     {FoldStep::kMergeFolded, 3000},
                     {FoldStep::kMergeCell, 40000},
                     {FoldStep::kMergeCell, kK}},
                    coarse);
}

TEST(QuantileSketchFold, AllEqualAndZeroValuesMatchSortedFold) {
  const std::vector<FoldStep> steps = {{FoldStep::kMergeCell, 20000},
                                       {FoldStep::kMergeCell, 1500},
                                       {FoldStep::kMergeCell, kK},
                                       {FoldStep::kMergeCell, 3}};
  CheckFoldSequence("all_equal", {}, steps, [](DetRng&) { return 0.375; });
  CheckFoldSequence("all_zero", {}, steps, [](DetRng&) { return 0.0; });
  CheckFoldSequence("mostly_zero", {}, steps, [](DetRng& rng) {
    return rng.NextUnit() < 0.9 ? 0.0 : rng.NextLatencyMs();
  });
}

TEST(QuantileSketchFold, WideExponentRangeMatchesSortedFold) {
  // Values from subnormals to 1e300: every byte of the bit patterns varies.
  const ValueFn wide = [](DetRng& rng) {
    return std::ldexp(rng.NextUnit(), static_cast<int>(2100.0 * rng.NextUnit()) - 1074);
  };
  CheckFoldSequence("wide_range", {},
                    {{FoldStep::kMergeCell, 20000},
                     {FoldStep::kMergeCell, 1500},
                     {FoldStep::kMergeFolded, 40000},
                     {FoldStep::kRecord, 300},
                     {FoldStep::kMergeCell, 100}},
                    wide);
}

TEST(QuantileSketchFold, ImportedHeapOrderedTailMatchesSortedFold) {
  // A recorded sketch's tail is in heap order, not sorted; restored through
  // ImportState it must fold exactly like the original.
  DetRng rng(41);
  const stats::QuantileSketch recorded = RecordedCell(30000, rng, Latency);
  stats::QuantileSketch imported;
  ASSERT_TRUE(imported.ImportState(recorded.ExportState()));
  ASSERT_FALSE(std::is_sorted(imported.ExportState().tail.begin(),
                              imported.ExportState().tail.end()));
  CheckFoldSequence("imported_heap_tail", imported,
                    {{FoldStep::kMergeCell, 1500},
                     {FoldStep::kMergeFolded, 40000},
                     {FoldStep::kMergeCell, 100}},
                    Latency);
}

TEST(QuantileSketchFold, RecordingAfterAMergeFallsBackToASortedFold) {
  // Recording into a merged sketch leaves its tail heap-ordered again; the
  // next fold must notice and still match.
  CheckFoldSequence("record_after_merge", {},
                    {{FoldStep::kMergeCell, 20000},
                     {FoldStep::kRecord, 5000},
                     {FoldStep::kMergeCell, 1500},
                     {FoldStep::kRecord, 100},
                     {FoldStep::kMergeCell, kK},
                     {FoldStep::kRecord, 1},
                     {FoldStep::kMergeFolded, 3000}},
                    Latency);
}

TEST(QuantileSketchFold, FleetScreenShapeMatchesSortedFold) {
  // ~1.5k-sample cells folded into a cohort until the reservoir fills and
  // most incoming values fall below its floor.
  std::vector<FoldStep> steps(48, FoldStep{FoldStep::kMergeCell, 1500});
  CheckFoldSequence("fleet_screen", {}, steps, Latency);
}

std::uint64_t StateFnv(const SketchState& state) {
  std::string bytes;
  const auto put = [&bytes](const void* data, std::size_t size) {
    bytes.append(static_cast<const char*>(data), size);
  };
  const auto put_doubles = [&](const std::vector<double>& values) {
    const std::uint64_t n = values.size();
    put(&n, sizeof(n));
    put(values.data(), values.size() * sizeof(double));
  };
  put(&state.count, sizeof(state.count));
  put(&state.sum_ms, sizeof(state.sum_ms));
  put(&state.min_ms, sizeof(state.min_ms));
  put(&state.max_ms, sizeof(state.max_ms));
  put(state.parities.data(), state.parities.size());
  for (const std::vector<double>& level : state.levels) {
    put_doubles(level);
  }
  put_doubles(state.tail);
  return lab::Fnv1a64(bytes);
}

TEST(QuantileSketchFold, GoldenFoldOfFullReservoirs) {
  // Pinned from the sort-based fold: four cells whose reservoirs are all
  // full, so every fold after the first takes the floor-filtered path.
  DetRng rng(2027);
  stats::QuantileSketch fold;
  for (int c = 0; c < 4; ++c) {
    fold.Merge(RecordedCell(20000, rng, Latency));
  }
  ASSERT_EQ(fold.ExportState().tail.size(), kK);
  EXPECT_EQ(StateFnv(fold.ExportState()), 0x82a35150381078beull);
}

TEST(QuantileSketchFold, MakeHeapLeavesSortedInputUnchanged) {
  // The fold keeps a merged reservoir sorted ascending and exports it as
  // is, where the old fold exported make_heap of the sorted reservoir. The
  // two agree only because make_heap leaves a sorted range alone; a
  // standard library where it does not must fail here.
  DetRng rng(5);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{7}, std::size_t{64}, std::size_t{1000}, kK}) {
    for (const double levels : {4.0, 1e9}) {
      std::vector<double> sorted(n);
      for (double& value : sorted) {
        value = std::floor(levels * rng.NextUnit());
      }
      std::sort(sorted.begin(), sorted.end());
      std::vector<double> heap = sorted;
      std::make_heap(heap.begin(), heap.end(), std::greater<>());
      EXPECT_TRUE(SameDoubleBits(heap, sorted)) << "n=" << n << " levels=" << levels;
    }
  }
}

// End-to-end: the matrix's merged sketch is bit-identical across --jobs —
// the same contract the histograms already keep, now for the sketch's
// serialized state. (Across an interrupted, resumed run it is the fleet's
// contract: the sketch cohort in tests/fleet_determinism_test.cc.)
TEST(QuantileSketchTest, MatrixMergedSketchIsJobsInvariant) {
  lab::MatrixSpec spec;
  spec.oses = {kernel::MakeNt4Profile(), kernel::MakeWin98Profile()};
  spec.workloads = {workload::GamesStress()};
  spec.priorities = {28};
  spec.trials = 2;
  spec.stress_minutes = 0.05;
  spec.warmup_seconds = 1.0;
  spec.master_seed = 1999;
  spec.sketch = true;
  const lab::ExperimentMatrix matrix(spec);

  const lab::MatrixResult r1 = matrix.Run(1);
  const lab::MatrixResult r4 = matrix.Run(4);
  ASSERT_EQ(r1.merged.size(), r4.merged.size());
  for (std::size_t i = 0; i < r1.merged.size(); ++i) {
    EXPECT_GT(r1.merged[i].thread_sketch.count(), 0u);
    ExpectSameBits(r1.merged[i].thread_sketch, r4.merged[i].thread_sketch);
  }
}

}  // namespace
}  // namespace wdmlat
