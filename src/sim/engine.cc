#include "src/sim/engine.h"

#include <algorithm>

namespace wdmlat::sim {

void Engine::RunUntilIdle() {
  stop_requested_ = false;
  while (!stop_requested_ && ServeNext(kNoDeadline)) {
  }
}

void Engine::RunUntil(Cycles deadline) {
  stop_requested_ = false;
  while (!stop_requested_ && ServeNext(deadline)) {
  }
  if (!stop_requested_ && now_ < deadline) {
    now_ = deadline;
  }
  // On a fully empty calendar the drain cursor had nothing to chase, so it
  // can lag arbitrarily far behind now(). Snap it forward so the next
  // schedule near now() lands in the ring instead of the overflow tier.
  if (!batch_active_ && near_count_ == 0 && far_.empty() && cur_epoch_ < EpochOf(now_)) {
    cur_epoch_ = EpochOf(now_);
  }
}

void Engine::Reset() {
  // Drop every stored entry but keep each container's grown capacity: the
  // next cell's traffic replays into already-sized buckets and slabs, which
  // is the whole point of warm reuse.
  for (std::uint32_t word = 0; word < kBucketCount / 64; ++word) {
    std::uint64_t bits = occupied_[word];
    while (bits != 0) {
      const std::uint32_t index =
          (word << 6) + static_cast<std::uint32_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      buckets_[index].clear();
    }
    occupied_[word] = 0;
  }
  near_count_ = 0;
  far_.clear();
  batch_.clear();
  batch_pos_ = 0;
  batch_active_ = false;
  pool_->ResetAll();
  now_ = 0;
  next_seq_ = 0;
  events_processed_ = 0;
  compactions_ = 0;
  stop_requested_ = false;
  cur_epoch_ = 0;
  floor_ = kNoDeadline;
  for (Lane& lane : lanes_) {
    lane.armed = false;
  }
  next_lane_ = kNoLane;
}

Engine::LaneId Engine::OpenLane(LaneFn fire, void* context) {
  LaneId id = 0;
  while (id < lanes_.size() && lanes_[id].fire != nullptr) {
    ++id;
  }
  if (id == lanes_.size()) {
    lanes_.emplace_back();
  }
  lanes_[id] = Lane{0, 0, fire, context, false};
  return id;
}

void Engine::CloseLane(LaneId lane) {
  lanes_[lane] = Lane{};
  FindNextLane();
}

void Engine::AuditCalendar(std::vector<std::string>* violations) const {
  const auto is_dead = [this](const QueueEntry& entry) {
    return pool_->generation(entry.slot) != entry.generation;
  };
  // Shared per-entry checks: live entries must not sit in the past and must
  // carry an issued sequence number; ring and overflow (`floored`) entries
  // must not lie below the calendar floor.
  std::size_t live_entries = 0;
  const auto check_entry = [&](const QueueEntry& entry, const char* tier, bool floored) {
    if (is_dead(entry)) {
      return;  // stale entry for a cancelled event: legal until purged
    }
    ++live_entries;
    if (floored && entry.when < floor_) {
      violations->push_back("engine: live " + std::string(tier) + " event in slot " +
                            std::to_string(entry.slot) + " scheduled at " +
                            std::to_string(entry.when) + " below the calendar floor " +
                            std::to_string(floor_));
    }
    if (entry.when < now_) {
      violations->push_back("engine: live " + std::string(tier) + " event in slot " +
                            std::to_string(entry.slot) + " scheduled at " +
                            std::to_string(entry.when) +
                            " which is before now=" + std::to_string(now_));
    }
    if (entry.seq >= next_seq_) {
      violations->push_back("engine: " + std::string(tier) + " entry seq " +
                            std::to_string(entry.seq) +
                            " was never issued (next_seq=" + std::to_string(next_seq_) + ")");
    }
  };

  // --- Ring tier: bucket-index/epoch consistency and the occupancy bitmap.
  std::size_t ring_entries = 0;
  for (std::uint32_t index = 0; index < kBucketCount; ++index) {
    const std::vector<QueueEntry>& bucket = buckets_[index];
    const bool bit = (occupied_[index >> 6] >> (index & 63)) & 1;
    if (bit != !bucket.empty()) {
      violations->push_back("engine: occupancy bit for bucket " + std::to_string(index) +
                            (bit ? " set but the bucket is empty"
                                 : " clear but the bucket holds entries"));
    }
    ring_entries += bucket.size();
    for (const QueueEntry& entry : bucket) {
      const std::uint64_t epoch = EpochOf(entry.when);
      if (epoch >= cur_epoch_) {
        if (epoch - cur_epoch_ >= kBucketCount) {
          violations->push_back("engine: bucket " + std::to_string(index) + " entry at epoch " +
                                std::to_string(epoch) + " lies beyond the ring window [" +
                                std::to_string(cur_epoch_) + ", +" +
                                std::to_string(kBucketCount) + ")");
        } else if ((static_cast<std::uint32_t>(epoch) & kRingMask) != index) {
          violations->push_back("engine: entry at epoch " + std::to_string(epoch) +
                                " filed in bucket " + std::to_string(index) +
                                " instead of bucket " +
                                std::to_string(static_cast<std::uint32_t>(epoch) & kRingMask));
        }
      } else if (index != (static_cast<std::uint32_t>(cur_epoch_) & kRingMask)) {
        // Below-window entries may only ride the current epoch's bucket.
        violations->push_back("engine: below-window entry (epoch " + std::to_string(epoch) +
                              " < cur_epoch " + std::to_string(cur_epoch_) + ") in bucket " +
                              std::to_string(index) + " instead of the current bucket");
      }
      check_entry(entry, "ring", true);
    }
  }
  if (ring_entries != near_count_) {
    violations->push_back("engine: ring buckets hold " + std::to_string(ring_entries) +
                          " entries but near_count says " + std::to_string(near_count_));
  }

  // --- Overflow tier: heap order, and nothing inside the ring window.
  for (std::size_t i = 1; i < far_.size(); ++i) {
    const QueueEntry& parent = far_[(i - 1) / 2];
    const QueueEntry& child = far_[i];
    if (FiresLater{}(parent, child)) {
      violations->push_back("engine: overflow heap order violated at entry " + std::to_string(i) +
                            " (parent when=" + std::to_string(parent.when) +
                            " seq=" + std::to_string(parent.seq) +
                            " fires after child when=" + std::to_string(child.when) +
                            " seq=" + std::to_string(child.seq) + ")");
      break;
    }
  }
  for (const QueueEntry& entry : far_) {
    if (EpochOf(entry.when) < cur_epoch_ + kBucketCount) {
      violations->push_back("engine: overflow entry at epoch " +
                            std::to_string(EpochOf(entry.when)) +
                            " is inside the ring window starting at epoch " +
                            std::to_string(cur_epoch_) + " and should have migrated");
    }
    check_entry(entry, "overflow", true);
  }

  // --- Drain batch: inactive means empty; the unserved tail is sorted in
  // fire order; the served prefix holds only dead (fired or cancelled)
  // entries; nothing in the batch is beyond the current epoch.
  if (!batch_active_ && (!batch_.empty() || batch_pos_ != 0)) {
    violations->push_back("engine: drain batch holds " + std::to_string(batch_.size()) +
                          " entries (pos " + std::to_string(batch_pos_) +
                          ") while no batch is active");
  }
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    const QueueEntry& entry = batch_[i];
    if (EpochOf(entry.when) > cur_epoch_) {
      violations->push_back("engine: batch entry at epoch " + std::to_string(EpochOf(entry.when)) +
                            " is beyond the epoch being drained (" + std::to_string(cur_epoch_) +
                            ")");
    }
    if (i < batch_pos_) {
      if (!is_dead(entry)) {
        violations->push_back("engine: served batch entry " + std::to_string(i) +
                              " (slot " + std::to_string(entry.slot) +
                              ") is still live — double dispatch hazard");
      }
      continue;
    }
    if (i > batch_pos_ && !FiresEarlier{}(batch_[i - 1], entry)) {
      violations->push_back("engine: batch tail out of fire order at entry " + std::to_string(i) +
                            " (when=" + std::to_string(entry.when) +
                            " seq=" + std::to_string(entry.seq) + " after when=" +
                            std::to_string(batch_[i - 1].when) +
                            " seq=" + std::to_string(batch_[i - 1].seq) + ")");
    }
    check_entry(entry, "batch", false);
  }

  // Every live pool slot owns exactly one calendar entry across the three
  // tiers, so the live-entry count must match the pool's live count exactly.
  if (live_entries != pool_->live()) {
    violations->push_back("engine: calendar holds " + std::to_string(live_entries) +
                          " live entries but the pool reports " +
                          std::to_string(pool_->live()) + " live events");
  }
  pool_->AuditConsistency(violations);

  // --- Deadline lanes: an armed lane is a live event like any other.
  for (LaneId i = 0; i < lanes_.size(); ++i) {
    const Lane& lane = lanes_[i];
    if (!lane.armed) {
      continue;
    }
    if (lane.fire == nullptr) {
      violations->push_back("engine: closed lane " + std::to_string(i) + " is armed");
    }
    if (lane.when < now_) {
      violations->push_back("engine: lane " + std::to_string(i) + " armed at " +
                            std::to_string(lane.when) +
                            " which is before now=" + std::to_string(now_));
    }
    if (lane.seq >= next_seq_) {
      violations->push_back("engine: lane " + std::to_string(i) + " seq " +
                            std::to_string(lane.seq) +
                            " was never issued (next_seq=" + std::to_string(next_seq_) + ")");
    }
    if (next_lane_ == kNoLane || LaneFiresEarlier(lane, lanes_[next_lane_])) {
      violations->push_back("engine: lane " + std::to_string(i) +
                            " is armed earlier than the cached next lane");
    }
  }
  if (next_lane_ != kNoLane && (next_lane_ >= lanes_.size() || !lanes_[next_lane_].armed)) {
    violations->push_back("engine: cached next lane " + std::to_string(next_lane_) +
                          " is not armed");
  }
}

void Engine::Compact() {
  // Cancel-heavy workloads (timers re-programmed before they fire) leave
  // dead entries behind; without compaction they would sit in (possibly
  // far-future) buckets until the drain cursor finally reaches their epoch.
  const auto is_dead = [this](const QueueEntry& entry) {
    return pool_->generation(entry.slot) != entry.generation;
  };
  near_count_ = 0;
  for (std::uint32_t index = 0; index < kBucketCount; ++index) {
    std::vector<QueueEntry>& bucket = buckets_[index];
    if (bucket.empty()) {
      continue;
    }
    // remove_if keeps relative order, so the per-bucket sort at drain time
    // sees the same (when, seq) multiset it would have anyway.
    bucket.erase(std::remove_if(bucket.begin(), bucket.end(), is_dead), bucket.end());
    if (bucket.empty()) {
      occupied_[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
    }
    near_count_ += bucket.size();
  }
  far_.erase(std::remove_if(far_.begin(), far_.end(), is_dead), far_.end());
  std::make_heap(far_.begin(), far_.end(), FiresLater{});
  // Only the unserved tail may be touched: entries before batch_pos_ are
  // already behind the drain cursor.
  if (batch_pos_ < batch_.size()) {
    batch_.erase(std::remove_if(batch_.begin() + static_cast<std::ptrdiff_t>(batch_pos_),
                                batch_.end(), is_dead),
                 batch_.end());
  }
  ++compactions_;
}

bool Engine::PopNextLiveSlow(Cycles bound_when, std::uint64_t bound_seq, QueueEntry* out) {
  for (;;) {
    // Serve the (re)loaded batch — same loop as the inline fast path.
    while (batch_pos_ < batch_.size()) {
      const QueueEntry& entry = batch_[batch_pos_];
      if (pool_->generation(entry.slot) != entry.generation) {
        ++batch_pos_;
        continue;
      }
      if (entry.when > bound_when || (entry.when == bound_when && entry.seq > bound_seq)) {
        return false;
      }
      *out = entry;
      ++batch_pos_;
      return true;
    }
    // All-dead fast path: with zero live events every stored entry is a
    // cancelled leftover, so the calendar empties wholesale instead of the
    // scan below discovering each stale entry bucket by bucket (the
    // schedule/cancel idle pattern of one-shot timeout guards).
    if (pool_->live() == 0) {
      return DropAllDead();
    }
    if (batch_active_) {
      // The drained epoch's batch is exhausted. Deactivate it but leave
      // the cursor put: the scan below advances only to epochs that
      // actually hold entries (or to the deadline), so the cursor never
      // outruns virtual time just because a batch ran dry.
      batch_.clear();
      batch_pos_ = 0;
      batch_active_ = false;
    }
    // Locate the next epoch holding entries: nearest occupied ring bucket,
    // else the overflow tier's minimum (always beyond every ring epoch).
    std::uint64_t target;
    if (near_count_ > 0) {
      target = cur_epoch_ + NextOccupiedDistance();
    } else if (!far_.empty()) {
      target = EpochOf(far_.front().when);
    } else {
      floor_ = kNoDeadline;
      return false;
    }
    if (target > cur_epoch_ && target > EpochOf(bound_when)) {
      // Nothing stored lies below the next occupied epoch (ring entries sit
      // in their epoch's bucket, overflow entries beyond every ring epoch),
      // or below the overflow minimum when the ring is empty.
      floor_ = near_count_ > 0 ? target << kBucketBits : far_.front().when;
      // The next event lies beyond the bound. Slide the window up to the
      // bound's epoch (now() will advance there: to the deadline, or to the
      // lane that fires instead), keeping the far-tier migration invariant
      // intact. The current epoch's bucket is exempt from this
      // epoch-granular check: it may hold below-window entries that are
      // due, so it always loads and the serve loop's exact per-entry bound
      // test decides.
      if (EpochOf(bound_when) > cur_epoch_) {
        cur_epoch_ = EpochOf(bound_when);
        MigrateFar();
      }
      return false;
    }
    if (target > cur_epoch_) {
      cur_epoch_ = target;
      MigrateFar();
    }
    // Load the current epoch's bucket as the new drain batch. The bucket
    // can be empty when the far-tier minimum was stale or migrated into a
    // later window epoch; the next iteration advances past it.
    const std::uint32_t index = static_cast<std::uint32_t>(cur_epoch_) & kRingMask;
    std::vector<QueueEntry>& bucket = buckets_[index];
    if (!bucket.empty()) {
      near_count_ -= bucket.size();
      occupied_[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
      // Copy rather than swap: both vectors keep their grown capacity, so
      // steady state re-uses the same two buffers instead of circulating
      // the batch's capacity through all 512 buckets.
      batch_.assign(bucket.begin(), bucket.end());
      bucket.clear();
      std::sort(batch_.begin(), batch_.end(), FiresEarlier{});
    }
    // The current bucket is empty now, so every ring entry lies in a later
    // epoch and every overflow entry beyond the window.
    floor_ = (cur_epoch_ + 1) << kBucketBits;
    batch_pos_ = 0;
    batch_active_ = true;
  }
}

bool Engine::DropAllDead() {
  floor_ = kNoDeadline;
  batch_.clear();
  batch_pos_ = 0;
  batch_active_ = false;
  far_.clear();
  if (near_count_ > 0) {
    for (std::uint32_t word = 0; word < kBucketCount / 64; ++word) {
      std::uint64_t bits = occupied_[word];
      while (bits != 0) {
        const std::uint32_t index =
            (word << 6) + static_cast<std::uint32_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        buckets_[index].clear();
      }
      occupied_[word] = 0;
    }
    near_count_ = 0;
  }
  return false;
}

}  // namespace wdmlat::sim
