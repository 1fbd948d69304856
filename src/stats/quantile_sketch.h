// Streaming quantile sketch.
//
// The fleet layer (ROADMAP item 2) needs tail quantiles (P99.9, P99.99) over
// populations far larger than one cell, with the same merge discipline as
// LatencyHistogram: cells merge in grid order after the run, and the merged
// result must be bit-identical at any --jobs count and through a resume.
// LatencyHistogram already does this at ~2.2% bucket resolution; the sketch
// complements it with *exact* deep-tail values: a KLL-style compactor stack
// for the body of the distribution plus an exact top-K reservoir for the
// tail, so any quantile whose exceedance rank fits in the reservoir
// (16384 samples — P99.9 of 10M, P99.99 of 100M) is answered from the real
// sample values, not an estimate.
//
// Determinism: there is no RNG anywhere. KLL's random compaction offset is
// replaced by a per-level alternating parity bit (the classic derandomized
// variant); compaction order is a pure function of the insertion/merge
// sequence, so identical operation sequences produce bit-identical states —
// the property the grid-order merge and fleet resume rely on.

#ifndef SRC_STATS_QUANTILE_SKETCH_H_
#define SRC_STATS_QUANTILE_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace wdmlat::stats {

class QuantileSketch {
 public:
  // Compactor buffer size per level. 256 gives a rank error around
  // 1/kCompactorCapacity of the count for mid-distribution quantiles —
  // comfortably tighter than the histogram's bucket resolution.
  static constexpr std::size_t kCompactorCapacity = 256;
  // Exact top-K tail reservoir: quantiles with fewer than this many samples
  // above them are exact. 16384 covers P99.9 up to ~16M samples per cell.
  static constexpr std::size_t kTailCapacity = 16384;

  void Record(sim::Cycles latency) { RecordMs(sim::CyclesToMs(latency)); }
  void RecordUs(double us) { RecordMs(us / 1e3); }
  void RecordMs(double ms);

  std::uint64_t count() const { return count_; }
  double min_ms() const { return min_ms_; }
  double max_ms() const { return max_ms_; }
  double mean_ms() const {
    return count_ == 0 ? 0.0 : sum_ms_ / static_cast<double>(count_);
  }

  // Quantile query, q in [0, 1]. Exact (a real recorded sample) whenever the
  // exceedance rank (1-q)*count fits in the tail reservoir; a weighted-rank
  // estimate over the compactor items otherwise. Q(1) is the exact maximum.
  double QuantileMs(double q) const;

  // Fold `other` into *this. Deterministic: merging the same operands in the
  // same order always yields the same bits (grid-order contract). The tail
  // reservoirs merge exactly (top-K of a union is order-independent), so
  // deep-tail quantiles of a merged sketch are exact and commutative even
  // though the compactor state is sequence-dependent.
  void Merge(const QuantileSketch& other);
  void Reset();

  // Lossless state snapshot for checkpoint/resume, mirroring
  // LatencyHistogram::State: vectors are exported verbatim (internal order
  // preserved) so an imported sketch is bit-indistinguishable from the
  // original and resumed merges stay bit-identical.
  struct State {
    std::vector<std::vector<double>> levels;   // levels[l]: items of weight 2^l
    std::vector<std::uint8_t> parities;        // next compaction offset per level
    std::vector<double> tail;                  // top-K reservoir, min-heap order
    std::uint64_t count = 0;
    double sum_ms = 0.0;
    double min_ms = 0.0;
    double max_ms = 0.0;
  };
  State ExportState() const;
  // Replace *this with `state`. Returns false — leaving *this Reset() — on a
  // malformed snapshot: weight conservation broken (sum over levels of
  // |level|*2^l != count), mismatched parity vector, oversized buffers, or
  // non-finite / negative values (-0.0 included).
  bool ImportState(const State& state);

 private:
  void CompactLevel(std::size_t level);
  void CompactCascade();
  void TailInsert(double ms);
  void MergeTail(const std::vector<double>& other_tail);

  std::vector<std::vector<double>> levels_;  // levels_[l] holds weight-2^l items
  std::vector<std::uint8_t> parities_;       // alternating compaction offsets
  // Min-heap of the largest samples; sorted ascending (a min-heap too)
  // after every Merge.
  std::vector<double> tail_;
  std::uint64_t count_ = 0;
  double sum_ms_ = 0.0;
  double min_ms_ = 0.0;
  double max_ms_ = 0.0;
};

}  // namespace wdmlat::stats

#endif  // SRC_STATS_QUANTILE_SKETCH_H_
