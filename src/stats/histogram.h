// Latency histograms.
//
// The paper's key methodological point (Section 1.2) is that OS overhead must
// be assessed from the *distribution* of individual service times on a loaded
// system, not from averages on an idle one: "Windows 98 OS latency
// distributions are highly nonsymmetric, with a very long tail on one side"
// (Section 4.2). This histogram stores samples in log-spaced buckets fine
// enough to interpolate quantiles deep into the tail, and can emit the
// paper's Figure-4 style log-log series (powers-of-two millisecond buckets,
// percent of samples per bucket).

#ifndef SRC_STATS_HISTOGRAM_H_
#define SRC_STATS_HISTOGRAM_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/time.h"

namespace wdmlat::stats {

class LatencyHistogram {
 public:
  // Sub-buckets per octave (factor of 2). 1/32 octave ≈ 2.2% relative
  // resolution, ample against the paper's ±1 PIT period instrument error.
  static constexpr int kSubBucketsPerOctave = 32;
  // Resolvable range: 0.01 us .. ~42 s.
  static constexpr double kMinUs = 0.01;
  static constexpr int kOctaves = 32;
  static constexpr int kBucketCount = kOctaves * kSubBucketsPerOctave;

  // Log-spaced bucket for a sample: floor(kSubBucketsPerOctave *
  // log2(us / kMinUs)), clamped to [0, kBucketCount). Computed with IEEE-754
  // bit manipulation instead of std::log2 (the bucketing is on every sample's
  // hot path); public so tests can check it against the log2 reference.
  static int BucketIndex(double us);

  void Record(sim::Cycles latency) { RecordUs(sim::CyclesToUs(latency)); }
  void RecordUs(double us);
  void RecordMs(double ms) { RecordUs(ms * 1000.0); }

  std::uint64_t count() const { return count_; }
  double min_ms() const;
  double max_ms() const;
  double mean_ms() const { return count_ == 0 ? 0.0 : sum_us_ / static_cast<double>(count_) / 1e3; }

  // Interpolated quantile, q in [0, 1]. Q(1) returns the exact maximum.
  double QuantileMs(double q) const;

  // Fraction of samples with latency >= ms (the paper's latency-table
  // lookup for the MTTF analysis, Section 5).
  double FractionAtOrAbove(double ms) const;

  // Expected maximum of n i.i.d. draws from the empirical distribution,
  // approximated as Q(n / (n + 1)). This is how hourly/daily/weekly expected
  // worst cases (Table 3) are extracted from a measured distribution.
  double ExpectedMaxOfNMs(std::uint64_t n) const;

  // Quantile with power-law tail extrapolation: when q lies beyond the
  // empirical resolution (fewer than ~10 samples above it), fit a Pareto
  // tail to the top `tail_fraction` of samples (Hill estimator over the
  // bucket counts) and extrapolate. Lets short runs estimate the paper's
  // daily/weekly expected worst cases; see EXPERIMENTS.md for caveats
  // (extrapolation cannot know about hard caps beyond the data).
  double QuantileMsExtrapolated(double q, double tail_fraction = 2e-3) const;
  double ExpectedMaxOfNMsExtrapolated(std::uint64_t n, double tail_fraction = 2e-3) const;

  // Figure-4 style series: buckets at powers of two of a millisecond from
  // `lo_ms` to `hi_ms` (e.g. 0.125 .. 128); entry i covers
  // [lo_ms * 2^(i-1), lo_ms * 2^i) except the first, which covers everything
  // below lo_ms. Percentages are of the total sample count.
  struct PaperBucket {
    double hi_ms;     // upper edge (the paper labels buckets by upper edge)
    double percent;   // percent of all samples in this bucket
  };
  std::vector<PaperBucket> PaperSeries(double lo_ms = 0.125, double hi_ms = 128.0) const;

  void Merge(const LatencyHistogram& other);
  void Reset();

  // Lossless state snapshot for checkpoint/resume. The doubles must be
  // round-tripped bit-exactly by whatever serializes the state (the fleet
  // record writes them as C99 hexfloats); an imported histogram is then
  // indistinguishable from the original, so a resumed fleet merges
  // bit-identically to a fresh run. Lives here rather than in obs because
  // obs depends on stats: the snapshot is serialization-format-free.
  struct State {
    std::vector<std::pair<int, std::uint64_t>> buckets;  // non-empty only
    std::uint64_t count = 0;
    std::uint64_t underflow = 0;
    double sum_us = 0.0;
    double min_us = 0.0;
    double max_us = 0.0;
  };
  State ExportState() const;
  // Replace *this with `state`. Returns false — leaving *this Reset() — on a
  // malformed snapshot: bucket index out of range, duplicate/unsorted
  // indices, zero bucket counts, or bucket totals that do not sum to count.
  bool ImportState(const State& state);

  // Two-column CSV: bucket_upper_edge_us,count (non-empty buckets only).
  // Samples below kMinUs are emitted first as a literal `underflow,<count>`
  // row, keeping them distinguishable from real bucket edges.
  std::string ToCsv() const;

 private:
  friend double KsStatistic(const LatencyHistogram& a, const LatencyHistogram& b);

  static double BucketLoUs(int index);
  static double BucketHiUs(int index);

  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t underflow_ = 0;  // samples below kMinUs (recorded, not lost)
  double sum_us_ = 0.0;
  double min_us_ = 0.0;
  double max_us_ = 0.0;
};

// Two-sample Kolmogorov-Smirnov statistic: sup over bucket edges of
// |CDF_a - CDF_b|, evaluated on the shared log-spaced grid (exact up to
// bucket resolution, ~2.2%). 0 when either histogram is empty. Used by the
// differential runner to quantify whole-distribution shift between a
// baseline and a fault-perturbed run.
double KsStatistic(const LatencyHistogram& a, const LatencyHistogram& b);

}  // namespace wdmlat::stats

#endif  // SRC_STATS_HISTOGRAM_H_
