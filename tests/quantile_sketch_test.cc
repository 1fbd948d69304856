// QuantileSketch: accuracy against exact order statistics, deep-tail
// exactness, merge determinism (the grid-order contract the matrix relies
// on), resume round-trips, and snapshot hardening.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/kernel/profile.h"
#include "src/lab/matrix.h"
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

// Bitwise equality of two sketch states — the determinism the grid-order
// merge and fleet resume promise.
void ExpectSameBits(const stats::QuantileSketch& a, const stats::QuantileSketch& b) {
  const stats::QuantileSketch::State sa = a.ExportState();
  const stats::QuantileSketch::State sb = b.ExportState();
  EXPECT_EQ(sa.count, sb.count);
  EXPECT_EQ(sa.levels, sb.levels);
  EXPECT_EQ(sa.parities, sb.parities);
  EXPECT_EQ(sa.tail, sb.tail);
  EXPECT_EQ(sa.sum_ms, sb.sum_ms);
  EXPECT_EQ(sa.min_ms, sb.min_ms);
  EXPECT_EQ(sa.max_ms, sb.max_ms);
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
