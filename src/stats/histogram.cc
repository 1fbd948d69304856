#include "src/stats/histogram.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <sstream>

namespace wdmlat::stats {

namespace {

// Sub-octave boundary tables for the branch-light BucketIndex below.
// boundary[k] = 2^(k/32) for k in [0, 32] — the same std::exp2 calls that
// define the bucket edges in BucketLoUs, so a table compare selects exactly
// the bucket whose [lo, hi) edges contain the sample. start[c] is the
// largest k whose boundary lies at or below the mantissa cell
// [1 + c/64, 1 + (c+1)/64); since the narrowest sub-bucket (2^(1/32) - 1 ≈
// 0.0219) is wider than a cell (1/64), the true k is start[c] or
// start[c] + 1 — one compare fixes it up.
struct SubOctaveTables {
  double boundary[LatencyHistogram::kSubBucketsPerOctave + 1];
  int start[64];
};

const SubOctaveTables kSubOctave = [] {
  SubOctaveTables t;
  for (int k = 0; k <= LatencyHistogram::kSubBucketsPerOctave; ++k) {
    t.boundary[k] = std::exp2(static_cast<double>(k) /
                              LatencyHistogram::kSubBucketsPerOctave);
  }
  for (int c = 0; c < 64; ++c) {
    const double cell_lo = 1.0 + static_cast<double>(c) / 64.0;
    int k = 0;
    while (k + 1 < LatencyHistogram::kSubBucketsPerOctave && t.boundary[k + 1] <= cell_lo) {
      ++k;
    }
    t.start[c] = k;
  }
  return t;
}();

}  // namespace

// Bit-manipulation replacement for the former per-sample std::log2: the
// IEEE-754 exponent field gives floor(log2(q)) directly, and the mantissa is
// ranked against the 32 sub-octave boundaries. Equivalence with the log2
// formulation: floor(32·log2(m·2^e)) = 32·e + floor(32·log2(m)), and
// floor(32·log2(m)) is exactly "the largest k with 2^(k/32) <= m", which the
// table lookup + single fix-up compare computes (StatsTest.
// BucketIndexMatchesLog2Reference exercises both against each other).
int LatencyHistogram::BucketIndex(double us) {
  const double q = us / kMinUs;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(q);
  const int biased_exponent = static_cast<int>((bits >> 52) & 0x7FF);
  if (biased_exponent == 0) {
    return 0;  // zero / subnormal: below every bucket, as log2 -> -inf was
  }
  if (biased_exponent == 0x7FF) {
    return kBucketCount - 1;  // infinity: clamp high, as log2 -> +inf was
  }
  // Mantissa m in [1, 2): q = m * 2^(biased_exponent - 1023).
  const double m = std::bit_cast<double>((bits & 0x000FFFFFFFFFFFFFull) | 0x3FF0000000000000ull);
  int k = kSubOctave.start[(bits >> 46) & 0x3F];
  if (k + 1 < kSubBucketsPerOctave && m >= kSubOctave.boundary[k + 1]) {
    ++k;
  }
  const std::int64_t index =
      static_cast<std::int64_t>(biased_exponent - 1023) * kSubBucketsPerOctave + k;
  return static_cast<int>(
      std::clamp<std::int64_t>(index, 0, kBucketCount - 1));
}

double LatencyHistogram::BucketLoUs(int index) {
  return kMinUs * std::exp2(static_cast<double>(index) / kSubBucketsPerOctave);
}

double LatencyHistogram::BucketHiUs(int index) { return BucketLoUs(index + 1); }

void LatencyHistogram::RecordUs(double us) {
  assert(us >= 0.0);
  if (count_ == 0) {
    min_us_ = max_us_ = us;
  } else {
    min_us_ = std::min(min_us_, us);
    max_us_ = std::max(max_us_, us);
  }
  ++count_;
  sum_us_ += us;
  if (us < kMinUs) {
    ++underflow_;
    return;
  }
  ++buckets_[BucketIndex(us)];
}

double LatencyHistogram::min_ms() const { return min_us_ / 1e3; }
double LatencyHistogram::max_ms() const { return max_us_ / 1e3; }

double LatencyHistogram::QuantileMs(double q) const {
  assert(q >= 0.0 && q <= 1.0);
  if (count_ == 0) {
    return 0.0;
  }
  if (q >= 1.0) {
    return max_us_ / 1e3;
  }
  const double target = q * static_cast<double>(count_);
  double cumulative = static_cast<double>(underflow_);
  if (target <= cumulative) {
    return kMinUs / 1e3;
  }
  for (int i = 0; i < kBucketCount; ++i) {
    const double next = cumulative + static_cast<double>(buckets_[i]);
    if (target <= next && buckets_[i] > 0) {
      // Linear interpolation within the bucket.
      const double frac = (target - cumulative) / static_cast<double>(buckets_[i]);
      const double lo = BucketLoUs(i);
      const double hi = std::min(BucketHiUs(i), max_us_);
      return (lo + frac * (hi - lo)) / 1e3;
    }
    cumulative = next;
  }
  return max_us_ / 1e3;
}

double LatencyHistogram::FractionAtOrAbove(double ms) const {
  if (count_ == 0) {
    return 0.0;
  }
  const double us = ms * 1e3;
  if (us <= kMinUs) {
    return 1.0;
  }
  if (us > max_us_) {
    return 0.0;
  }
  const int index = BucketIndex(us);
  std::uint64_t above = 0;
  for (int i = index + 1; i < kBucketCount; ++i) {
    above += buckets_[i];
  }
  // Pro-rate the straddling bucket, clamping its upper edge to the observed
  // maximum so that this stays consistent with QuantileMs near the top.
  const double lo = BucketLoUs(index);
  const double hi = std::max(std::min(BucketHiUs(index), max_us_), lo + 1e-12);
  const double frac_above = std::clamp((hi - us) / (hi - lo), 0.0, 1.0);
  const double total = static_cast<double>(above) +
                       frac_above * static_cast<double>(buckets_[index]);
  return total / static_cast<double>(count_);
}

double LatencyHistogram::ExpectedMaxOfNMs(std::uint64_t n) const {
  if (count_ == 0 || n == 0) {
    return 0.0;
  }
  const double q = static_cast<double>(n) / (static_cast<double>(n) + 1.0);
  return QuantileMs(q);
}

double LatencyHistogram::QuantileMsExtrapolated(double q, double tail_fraction) const {
  if (count_ == 0) {
    return 0.0;
  }
  // Enough empirical support? Use the plain quantile.
  const double exceedance = 1.0 - q;
  const double samples_above = exceedance * static_cast<double>(count_);
  if (samples_above >= 10.0) {
    return QuantileMs(q);
  }
  // Hill estimator over the top tail_fraction of samples.
  const double threshold_q = 1.0 - tail_fraction;
  const double u_ms = QuantileMs(threshold_q);
  if (u_ms <= 0.0) {
    return QuantileMs(q);
  }
  const double u_us = u_ms * 1e3;
  double sum_log = 0.0;
  double k = 0.0;
  for (int i = BucketIndex(u_us); i < kBucketCount; ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    const double mid = 0.5 * (BucketLoUs(i) + std::min(BucketHiUs(i), max_us_));
    if (mid <= u_us) {
      continue;
    }
    sum_log += static_cast<double>(buckets_[i]) * std::log(mid / u_us);
    k += static_cast<double>(buckets_[i]);
  }
  if (k < 5.0 || sum_log <= 0.0) {
    return QuantileMs(q);  // tail too thin to fit
  }
  const double alpha = k / sum_log;
  // P[X >= x] = tail_fraction * (u/x)^alpha  =>  x(q) = u * (tail_fraction /
  // exceedance)^(1/alpha).
  const double x_ms = u_ms * std::pow(tail_fraction / std::max(exceedance, 1e-300), 1.0 / alpha);
  // Never report less than the observed data supports.
  return std::max(x_ms, QuantileMs(q));
}

double LatencyHistogram::ExpectedMaxOfNMsExtrapolated(std::uint64_t n,
                                                      double tail_fraction) const {
  if (count_ == 0 || n == 0) {
    return 0.0;
  }
  const double q = static_cast<double>(n) / (static_cast<double>(n) + 1.0);
  return QuantileMsExtrapolated(q, tail_fraction);
}

std::vector<LatencyHistogram::PaperBucket> LatencyHistogram::PaperSeries(double lo_ms,
                                                                         double hi_ms) const {
  std::vector<PaperBucket> series;
  const double total = count_ == 0 ? 1.0 : static_cast<double>(count_);
  double prev_frac_above = 1.0;  // fraction >= lower edge, starts at -inf
  for (double edge = lo_ms; edge <= hi_ms * 1.0001; edge *= 2.0) {
    const double frac_above_edge = FractionAtOrAbove(edge);
    series.push_back(PaperBucket{edge, (prev_frac_above - frac_above_edge) * 100.0});
    prev_frac_above = frac_above_edge;
  }
  // Overflow bucket: everything at or above hi_ms.
  series.push_back(PaperBucket{hi_ms * 2.0, prev_frac_above * 100.0});
  (void)total;
  return series;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    min_us_ = other.min_us_;
    max_us_ = other.max_us_;
  } else {
    min_us_ = std::min(min_us_, other.min_us_);
    max_us_ = std::max(max_us_, other.max_us_);
  }
  for (int i = 0; i < kBucketCount; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  underflow_ += other.underflow_;
  sum_us_ += other.sum_us_;
}

void LatencyHistogram::Reset() { *this = LatencyHistogram(); }

LatencyHistogram::State LatencyHistogram::ExportState() const {
  State state;
  for (int i = 0; i < kBucketCount; ++i) {
    if (buckets_[i] > 0) {
      state.buckets.emplace_back(i, buckets_[i]);
    }
  }
  state.count = count_;
  state.underflow = underflow_;
  state.sum_us = sum_us_;
  state.min_us = min_us_;
  state.max_us = max_us_;
  return state;
}

bool LatencyHistogram::ImportState(const State& state) {
  Reset();
  std::uint64_t total = state.underflow;
  int last_index = -1;
  for (const auto& [index, bucket_count] : state.buckets) {
    if (index <= last_index || index >= kBucketCount || bucket_count == 0) {
      Reset();
      return false;
    }
    last_index = index;
    buckets_[index] = bucket_count;
    total += bucket_count;
  }
  // Count conservation: the snapshot's totals must match what the buckets
  // hold, or the snapshot is corrupt and must not enter a merge.
  if (total != state.count) {
    Reset();
    return false;
  }
  count_ = state.count;
  underflow_ = state.underflow;
  sum_us_ = state.sum_us;
  min_us_ = state.min_us;
  max_us_ = state.max_us;
  return true;
}

std::string LatencyHistogram::ToCsv() const {
  std::ostringstream out;
  out << "bucket_hi_us,count\n";
  if (underflow_ > 0) {
    // A distinct label: a numeric edge here (kMinUs) would masquerade as a
    // regular bucket row and be ambiguous with bucket 0's range.
    out << "underflow," << underflow_ << "\n";
  }
  for (int i = 0; i < kBucketCount; ++i) {
    if (buckets_[i] > 0) {
      out << BucketHiUs(i) << "," << buckets_[i] << "\n";
    }
  }
  return out.str();
}

double KsStatistic(const LatencyHistogram& a, const LatencyHistogram& b) {
  if (a.count_ == 0 || b.count_ == 0) {
    return 0.0;
  }
  const double na = static_cast<double>(a.count_);
  const double nb = static_cast<double>(b.count_);
  double ca = static_cast<double>(a.underflow_);
  double cb = static_cast<double>(b.underflow_);
  double ks = std::abs(ca / na - cb / nb);
  for (int i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    ca += static_cast<double>(a.buckets_[i]);
    cb += static_cast<double>(b.buckets_[i]);
    ks = std::max(ks, std::abs(ca / na - cb / nb));
  }
  return ks;
}

}  // namespace wdmlat::stats
