#include "src/stats/quantile_sketch.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <functional>
#include <iterator>
#include <utility>

namespace wdmlat::stats {

namespace {

// Sorts sample values ascending. Sketch values are finite or +inf and never
// negative or -0.0, so their bit patterns order exactly like the values: an
// LSD radix sort over the 8 bytes of each pattern, skipping every byte all
// values share (the sign and most exponent bits of a latency population),
// gives std::sort's result bit for bit at a fraction of its cost.
void SortSampleValues(std::vector<double>& values) {
  const std::size_t n = values.size();
  if (n < 64) {
    std::sort(values.begin(), values.end());
    return;
  }
  std::array<std::array<std::uint32_t, 256>, 8> counts{};
  for (const double value : values) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    for (std::size_t b = 0; b < 8; ++b) {
      ++counts[b][(bits >> (8 * b)) & 0xff];
    }
  }
  const std::uint64_t first = std::bit_cast<std::uint64_t>(values.front());
  std::vector<double> sorted(n);
  for (std::size_t b = 0; b < 8; ++b) {
    std::array<std::uint32_t, 256>& offsets = counts[b];
    if (offsets[(first >> (8 * b)) & 0xff] == n) {
      continue;
    }
    std::uint32_t sum = 0;
    for (std::uint32_t& offset : offsets) {
      sum += std::exchange(offset, sum);
    }
    for (const double value : values) {
      sorted[offsets[(std::bit_cast<std::uint64_t>(value) >> (8 * b)) & 0xff]++] = value;
    }
    values.swap(sorted);
  }
}

}  // namespace

void QuantileSketch::RecordMs(double ms) {
  // -0.0 is excluded along with negatives: it equals 0.0 yet has other bits,
  // and the sorted tail fold relies on equal values being identical.
  assert(ms >= 0.0 && !std::signbit(ms));
  if (count_ == 0) {
    min_ms_ = max_ms_ = ms;
  } else {
    min_ms_ = std::min(min_ms_, ms);
    max_ms_ = std::max(max_ms_, ms);
  }
  ++count_;
  sum_ms_ += ms;
  if (levels_.empty()) {
    levels_.emplace_back();
    parities_.push_back(0);
    levels_.front().reserve(kCompactorCapacity);
  }
  levels_.front().push_back(ms);
  if (levels_.front().size() >= kCompactorCapacity) {
    CompactCascade();
  }
  TailInsert(ms);
}

void QuantileSketch::TailInsert(double ms) {
  // Min-heap of the largest samples: the root is the smallest retained value,
  // so most samples are rejected with a single compare.
  if (tail_.size() < kTailCapacity) {
    tail_.push_back(ms);
    std::push_heap(tail_.begin(), tail_.end(), std::greater<>());
    return;
  }
  if (ms > tail_.front()) {
    std::pop_heap(tail_.begin(), tail_.end(), std::greater<>());
    tail_.back() = ms;
    std::push_heap(tail_.begin(), tail_.end(), std::greater<>());
  }
}

void QuantileSketch::CompactLevel(std::size_t level) {
  // Grow the stack before binding any level reference: emplace_back can
  // reallocate levels_ and would dangle a reference taken earlier.
  if (levels_.size() <= level + 1) {
    levels_.emplace_back();
    parities_.push_back(0);
  }
  std::vector<double>& buf = levels_[level];
  SortSampleValues(buf);
  std::size_t n = buf.size();
  const bool carry = (n % 2) == 1;
  if (carry) {
    --n;  // the largest element stays behind, preserving the observed tail
  }
  if (n == 0) {
    return;
  }
  // Derandomized KLL: promote every other element, alternating the starting
  // parity per level instead of flipping a coin. Weight is conserved exactly:
  // n items of weight 2^l leave, n/2 items of weight 2^(l+1) arrive.
  const std::size_t offset = parities_[level];
  parities_[level] ^= 1;
  std::vector<double>& up = levels_[level + 1];
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

void QuantileSketch::CompactCascade() {
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    while (levels_[l].size() >= kCompactorCapacity) {
      CompactLevel(l);
    }
  }
}

double QuantileSketch::QuantileMs(double q) const {
  assert(q >= 0.0 && q <= 1.0);
  if (count_ == 0) {
    return 0.0;
  }
  if (q >= 1.0) {
    return max_ms_;
  }
  // 1-based rank of the target sample in ascending order, matching the
  // LatencyHistogram convention (target position q * count).
  std::uint64_t target_rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  target_rank = std::max<std::uint64_t>(1, std::min(target_rank, count_));
  const std::uint64_t above = count_ - target_rank;  // samples above the target
  if (above < tail_.size()) {
    // The reservoir holds the top min(count, kTailCapacity) samples, so this
    // rank is answered with the exact recorded value. A merged reservoir is
    // already sorted; only a recorded one (heap order) needs a selection.
    const std::size_t index = tail_.size() - 1 - static_cast<std::size_t>(above);
    if (std::is_sorted(tail_.begin(), tail_.end())) {
      return tail_[index];
    }
    std::vector<double> selected(tail_);
    std::nth_element(selected.begin(), selected.begin() + index, selected.end());
    return selected[index];
  }
  // Weighted-rank estimate over the compactor items (their weights sum to
  // count by the conservation invariant).
  struct Item {
    double value;
    std::uint64_t weight;
  };
  std::vector<Item> items;
  std::size_t total_items = 0;
  for (const std::vector<double>& level : levels_) {
    total_items += level.size();
  }
  items.reserve(total_items);
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const std::uint64_t weight = std::uint64_t{1} << l;
    for (const double value : levels_[l]) {
      items.push_back(Item{value, weight});
    }
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.value != b.value ? a.value < b.value : a.weight < b.weight;
  });
  std::uint64_t cumulative = 0;
  for (const Item& item : items) {
    cumulative += item.weight;
    if (cumulative >= target_rank) {
      return item.value;
    }
  }
  return max_ms_;
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    min_ms_ = other.min_ms_;
    max_ms_ = other.max_ms_;
  } else {
    min_ms_ = std::min(min_ms_, other.min_ms_);
    max_ms_ = std::max(max_ms_, other.max_ms_);
  }
  count_ += other.count_;
  sum_ms_ += other.sum_ms_;
  // Compactors: append level-wise, then restore the capacity invariant. The
  // result depends only on the two operand states, so grid-order folds are
  // bit-reproducible.
  while (levels_.size() < other.levels_.size()) {
    levels_.emplace_back();
    parities_.push_back(other.parities_[levels_.size() - 1]);
  }
  for (std::size_t l = 0; l < other.levels_.size(); ++l) {
    levels_[l].insert(levels_[l].end(), other.levels_[l].begin(), other.levels_[l].end());
  }
  CompactCascade();
  MergeTail(other.tail_);
}

void QuantileSketch::MergeTail(const std::vector<double>& other_tail) {
  // Top-K of a multiset union — exact and order-independent. A merged
  // reservoir stays sorted ascending, which is already a min-heap (and what
  // std::make_heap leaves a sorted range as), so TailInsert can keep using
  // it and the exported bits equal a sort of the whole union. Only a tail
  // that recorded samples since its last merge needs sorting here.
  if (!std::is_sorted(tail_.begin(), tail_.end())) {
    SortSampleValues(tail_);
  }
  // A full reservoir keeps no incoming value at or below its floor: an equal
  // value is the same bits (RecordMs and ImportState exclude -0.0).
  std::vector<double> incoming;
  if (tail_.size() < kTailCapacity) {
    incoming = other_tail;
  } else {
    const double floor = tail_.front();
    std::copy_if(other_tail.begin(), other_tail.end(), std::back_inserter(incoming),
                 [floor](double ms) { return ms > floor; });
  }
  if (incoming.empty()) {
    return;
  }
  SortSampleValues(incoming);
  // Merge from the top: the largest min(K, |union|) values, written back to
  // front.
  std::vector<double> merged(std::min(kTailCapacity, tail_.size() + incoming.size()));
  auto kept = tail_.end();
  auto in = incoming.end();
  for (auto out = merged.end(); out != merged.begin();) {
    if (in == incoming.begin() || (kept != tail_.begin() && *(kept - 1) >= *(in - 1))) {
      *--out = *--kept;
    } else {
      *--out = *--in;
    }
  }
  tail_ = std::move(merged);
}

void QuantileSketch::Reset() { *this = QuantileSketch(); }

QuantileSketch::State QuantileSketch::ExportState() const {
  State state;
  state.levels = levels_;
  state.parities = parities_;
  state.tail = tail_;
  state.count = count_;
  state.sum_ms = sum_ms_;
  state.min_ms = min_ms_;
  state.max_ms = max_ms_;
  return state;
}

bool QuantileSketch::ImportState(const State& state) {
  Reset();
  // 48 levels supports counts past 2^55 while keeping the weight sum safely
  // inside 64 bits below.
  if (state.levels.size() != state.parities.size() || state.levels.size() > 48 ||
      state.tail.size() > kTailCapacity ||
      state.tail.size() != std::min<std::uint64_t>(state.count, kTailCapacity)) {
    return false;
  }
  std::uint64_t total = 0;
  for (std::size_t l = 0; l < state.levels.size(); ++l) {
    if (state.levels[l].size() > kCompactorCapacity) {
      return false;
    }
    for (const double value : state.levels[l]) {
      if (!std::isfinite(value) || std::signbit(value)) {
        return false;
      }
    }
    total += static_cast<std::uint64_t>(state.levels[l].size()) << l;
  }
  // Weight conservation: the compactor items must account for every recorded
  // sample, or the snapshot is corrupt and must not enter a merge.
  if (total != state.count) {
    return false;
  }
  for (const std::uint8_t parity : state.parities) {
    if (parity > 1) {
      return false;
    }
  }
  for (const double value : state.tail) {
    if (!std::isfinite(value) || std::signbit(value)) {
      return false;
    }
  }
  levels_ = state.levels;
  parities_ = state.parities;
  tail_ = state.tail;
  count_ = state.count;
  sum_ms_ = state.sum_ms;
  min_ms_ = state.min_ms;
  max_ms_ = state.max_ms;
  return true;
}

}  // namespace wdmlat::stats
