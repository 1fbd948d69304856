// Discrete-event simulation engine.
//
// A single-threaded event calendar: callbacks are scheduled at absolute
// virtual times and executed in (time, insertion-order) order. Everything in
// wdmlat — hardware devices, the kernel, workloads, the measurement drivers —
// is driven from this calendar. There is no wall-clock anywhere; virtual
// hours of Windows activity run in wall-clock seconds.
//
// The calendar is a two-tier ladder queue tuned for the dominant traffic:
// short-horizon periodic timers (PIT ticks, device completions, driver
// timeouts). A ring of near-future buckets gives O(1) insertion for
// everything inside a ~112 ms horizon; beyond that a binary-heap overflow
// tier holds the far future and migrates entries into the ring as the
// window slides over them. Same-tick (and same-bucket) expirations drain
// through one sorted batch per bucket epoch instead of per-event heap pops.
// The hot path is allocation-free in steady state: event records live in a
// slab/free-list EventPool, callbacks are small-buffer-optimized
// InplaceCallbacks, and every tier stores plain POD entries. Cancelled
// events leave stale entries behind that are lazily purged when their epoch
// drains and bulk-compacted when they outnumber the live ones (see
// DESIGN.md §7 for the invariants).
//
// Beside the calendar sit deadline lanes: one re-armable deadline per owner
// (each dispatcher core keeps its single active completion in one), fired
// by the serve loop when it is earlier than the calendar head. Arming
// reserves a sequence number, so a lane fires in exactly the (when, seq)
// slot an equivalent ScheduleAfter would have taken.

#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/sim/event_pool.h"
#include "src/sim/inplace_callback.h"
#include "src/sim/time.h"

namespace wdmlat::sim {

class Engine;

// Cancellable reference to a scheduled event: {pool, slot, generation}.
// Default-constructed handles are inert; cancelling an already-fired or
// already-cancelled event is a no-op, as is cancelling through a handle whose
// slot has been recycled for a newer event or whose engine has been
// destroyed (the handle's pool reference keeps the slot memory valid).
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(const EventHandle& other)
      : pool_(other.pool_), generation_(other.generation_), slot_(other.slot_) {
    if (pool_ != nullptr) {
      pool_->AddRef();
    }
  }
  EventHandle(EventHandle&& other) noexcept
      : pool_(other.pool_), generation_(other.generation_), slot_(other.slot_) {
    other.pool_ = nullptr;
  }
  EventHandle& operator=(const EventHandle& other) {
    EventHandle copy(other);
    swap(copy);
    return *this;
  }
  EventHandle& operator=(EventHandle&& other) noexcept {
    swap(other);
    return *this;
  }
  ~EventHandle() {
    if (pool_ != nullptr) {
      pool_->Release();
    }
  }

  // True if the event is still pending (not fired, not cancelled).
  bool pending() const { return pool_ != nullptr && pool_->generation(slot_) == generation_; }

  // Prevent the event from firing. Safe to call in any state.
  void Cancel() {
    if (pool_ != nullptr) {
      pool_->CancelIfCurrent(slot_, generation_);
    }
  }

 private:
  friend class Engine;
  EventHandle(EventPool* pool, std::uint32_t slot, std::uint64_t generation)
      : pool_(pool), generation_(generation), slot_(slot) {
    pool_->AddRef();
  }
  void swap(EventHandle& other) noexcept {
    std::swap(pool_, other.pool_);
    std::swap(generation_, other.generation_);
    std::swap(slot_, other.slot_);
  }

  EventPool* pool_ = nullptr;
  std::uint64_t generation_ = 0;
  std::uint32_t slot_ = EventPool::kInvalidSlot;
};

class Engine {
 public:
  using Callback = InplaceCallback;

  // --- Ladder geometry (public so the differential / rollover tests can
  // target tier boundaries exactly) ----------------------------------------
  // One bucket spans 2^16 cycles ≈ 218 µs at the simulated 300 MHz: wide
  // enough that a PIT tick's worth of dispatcher traffic lands in one or two
  // buckets, narrow enough that a bucket's sort stays small.
  static constexpr std::uint32_t kBucketBits = 16;
  static constexpr Cycles kBucketWidth = Cycles{1} << kBucketBits;
  // 512 buckets ≈ 112 ms of near-future horizon — past every PIT period,
  // DPC completion, and scheduler quantum either OS profile uses. Longer
  // delays (workload think times, watchdog periods) take the overflow heap.
  static constexpr std::uint32_t kRingBits = 9;
  static constexpr std::uint32_t kBucketCount = 1u << kRingBits;
  static constexpr std::uint32_t kRingMask = kBucketCount - 1;
  static constexpr Cycles kHorizonCycles = Cycles{kBucketCount} << kBucketBits;

  Engine() : pool_(new EventPool) { occupied_.fill(0); }
  ~Engine() {
    pool_->Shutdown();
    pool_->Release();
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Current virtual time. Monotonically non-decreasing.
  Cycles now() const { return now_; }

  // Schedule `cb` at absolute time `when`. Times in the past are clamped to
  // now(). Events scheduled for the same instant fire in insertion order.
  // The callable is constructed directly into its pool slot, so for captures
  // within InplaceCallback::kInlineSize this performs no heap allocation.
  template <typename F>
  EventHandle ScheduleAt(Cycles when, F&& cb) {
    if (when < now_) {
      when = now_;
    }
    const std::uint32_t slot = pool_->Allocate(std::forward<F>(cb));
    const std::uint64_t generation = pool_->generation(slot);
    Insert(QueueEntry{when, next_seq_++, generation, slot});
    return EventHandle(pool_, slot, generation);
  }

  // Schedule `cb` `delay` cycles from now.
  template <typename F>
  EventHandle ScheduleAfter(Cycles delay, F&& cb) {
    return ScheduleAt(now_ + delay, std::forward<F>(cb));
  }

  // Execute the next pending event (calendar entry or armed lane), if any.
  // Returns false when nothing is pending.
  bool Step() { return ServeNext(kNoDeadline); }

  // Run events until the calendar is empty or a callback calls RequestStop().
  void RunUntilIdle();

  // Run all events with time <= `deadline` (or until RequestStop()), then
  // advance now() to `deadline`.
  void RunUntil(Cycles deadline);

  // Abort a RunUntil / RunUntilIdle loop from inside a callback.
  void RequestStop() { stop_requested_ = true; }

  // Warm reuse: return the engine to its freshly constructed state — time 0,
  // sequence 0, empty calendar — while keeping every tier's grown capacity
  // (bucket vectors, overflow heap, drain batch, pool slabs). Outstanding
  // events are cancelled wholesale (their captured state is released and
  // stale handles read "not pending") and every lane is disarmed (lanes
  // stay open until their owners close them), so callers must have torn
  // down anything that expects its callbacks to still fire. A run on a reset
  // engine is bit-identical to one on a new engine: fire order is (when,
  // seq) and both restart from zero (guarded by the fleet golden-checksum
  // test). Defined in engine.cc.
  void Reset();

  std::uint64_t events_processed() const { return events_processed_; }

  // Number of scheduled-and-not-yet-fired events, excluding cancelled ones
  // (their calendar entries linger until lazily purged when their bucket
  // drains or bulk-compacted, but they no longer count), plus armed lanes.
  // Tests can therefore assert on calendar size.
  std::size_t events_pending() const {
    return pool_->live() + static_cast<std::size_t>(std::count_if(
                               lanes_.begin(), lanes_.end(),
                               [](const Lane& lane) { return lane.armed; }));
  }

  // --- Deadline lanes ----------------------------------------------------------
  // A lane is one re-armable deadline with a fixed handler, kept outside the
  // calendar: arming costs no pool slot, no callback construction and no
  // calendar entry, and re-arming leaves no stale entry behind. It suits an
  // owner with exactly one pending completion at a time (a dispatcher core).
  // ArmLane reserves the next sequence number, so an armed lane fires in the
  // (when, seq) slot ScheduleAfter(delay, ...) would have taken at the same
  // call, and re-arming is exactly cancel-plus-reschedule. Fired lanes count
  // in events_processed(). The serve loop scans the armed lanes for the
  // earliest one, so keep them few (one per simulated core).
  using LaneId = std::uint32_t;
  using LaneFn = void (*)(void* context);

  // Register a lane that calls `fire(context)` when its deadline is served.
  LaneId OpenLane(LaneFn fire, void* context);
  // Disarm and release `lane`; its id may be reissued by a later OpenLane.
  void CloseLane(LaneId lane);
  // (Re-)arm `lane` to fire `delay` cycles from now.
  void ArmLane(LaneId lane, Cycles delay) {
    Lane& entry = lanes_[lane];
    entry.when = now_ + delay;
    entry.seq = next_seq_++;
    entry.armed = true;
    FindNextLane();
  }
  // Disarm `lane`; returns the cycles its deadline still lay ahead of now()
  // (0 when it was not armed).
  Cycles DisarmLane(LaneId lane) {
    Lane& entry = lanes_[lane];
    if (!entry.armed) {
      return 0;
    }
    entry.armed = false;
    FindNextLane();
    return entry.when - now_;
  }
  bool lane_armed(LaneId lane) const { return lanes_[lane].armed; }

  // Observability: stale (cancelled) entries still occupying the calendar,
  // and how many times the calendar has been compacted.
  std::size_t stale_entries() const {
    const std::size_t stored = StoredEntries();
    return stored > pool_->live() ? stored - pool_->live() : 0;
  }
  std::uint64_t compactions() const { return compactions_; }

  // Invariant audit for sim::InvariantAuditor: validates the ladder's
  // bucket-index/epoch consistency (every ring entry lives in the bucket its
  // epoch maps to, inside the current window), the occupancy bitmap, the
  // overflow tier's heap ordering and beyond-horizon placement, the drain
  // batch's (when, seq) sort, that no live entry is scheduled in the past,
  // that every live pool slot owns exactly one calendar entry (count
  // conservation across tiers), that sequence numbers were issued before
  // next_seq_, and the pool's slab/free-list/generation consistency. Armed
  // lanes must not lie in the past or carry an unissued sequence number, and
  // the cached earliest lane must be the earliest armed one.
  // Appends one line per violation; appends nothing when healthy.
  void AuditCalendar(std::vector<std::string>* violations) const;

 private:
  // POD calendar entry: no refcounts, no indirection on sift. `generation`
  // pins the entry to one pool-slot incarnation; a mismatch means the event
  // was cancelled (or fired through an earlier entry) and the entry is dead.
  struct QueueEntry {
    Cycles when;
    std::uint64_t seq;
    std::uint64_t generation;
    std::uint32_t slot;
  };
  // Comparator for the overflow tier's std::push_heap/pop_heap: the front of
  // the heap is the entry that fires first, so "less" means "fires later".
  struct FiresLater {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };
  // Comparator for the drain batch's sort and mid-drain sorted inserts:
  // ascending (when, seq), the engine's total fire order.
  struct FiresEarlier {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.when != b.when) {
        return a.when < b.when;
      }
      return a.seq < b.seq;
    }
  };

  struct Lane {
    Cycles when = 0;
    std::uint64_t seq = 0;
    LaneFn fire = nullptr;  // nullptr: closed, free for reuse
    void* context = nullptr;
    bool armed = false;
  };

  static constexpr Cycles kNoDeadline = std::numeric_limits<Cycles>::max();
  static constexpr std::uint64_t kLastSeq = std::numeric_limits<std::uint64_t>::max();
  static constexpr LaneId kNoLane = std::numeric_limits<LaneId>::max();
  // Below this calendar size, compaction is never worth the full-ring sweep;
  // the lazy purge on drain handles small backlogs for free.
  static constexpr std::size_t kCompactMinEntries = 64;

  static constexpr std::uint64_t EpochOf(Cycles when) { return when >> kBucketBits; }

  // Route one entry to its tier. Entries below the window (possible after
  // the drain cursor out-ran now() across dead epochs) ride the current
  // epoch's bucket/batch: nothing with a smaller (when, seq) exists anywhere,
  // and the batch sort puts them first, so the total order is preserved.
  void Insert(const QueueEntry& entry) {
    const std::uint64_t epoch = EpochOf(entry.when);
    if (batch_active_ && epoch <= cur_epoch_) {
      // Mid-drain insert into the epoch being dispatched: everything at or
      // before batch_pos_ has already fired with a smaller (when, seq), so
      // the ordered position is always in the unserved tail — and in the
      // common monotone case, exactly at the end.
      if (batch_pos_ >= batch_.size() || !FiresEarlier{}(entry, batch_.back())) {
        batch_.push_back(entry);
      } else {
        batch_.insert(std::lower_bound(batch_.begin() + static_cast<std::ptrdiff_t>(batch_pos_),
                                       batch_.end(), entry, FiresEarlier{}),
                      entry);
      }
      return;
    }
    if (epoch < cur_epoch_ + kBucketCount) {
      const std::uint32_t index =
          static_cast<std::uint32_t>((epoch <= cur_epoch_ ? cur_epoch_ : epoch)) & kRingMask;
      buckets_[index].push_back(entry);
      occupied_[index >> 6] |= std::uint64_t{1} << (index & 63);
      ++near_count_;
      MaybeCompact();
      return;
    }
    far_.push_back(entry);
    std::push_heap(far_.begin(), far_.end(), FiresLater{});
    // The compaction check rides the ring/overflow inserts only: dead batch
    // entries are self-limiting (their epoch's drain purges them within one
    // bucket width of virtual time), whereas dead ring/overflow entries can
    // linger for a full horizon — and keeping the check off the batch insert
    // keeps the hottest path to a push_back.
    MaybeCompact();
  }

  // Fire the next event — the calendar head or the earliest armed lane,
  // whichever is first in (when, seq) — if its time is <= `deadline`.
  // Returns false when nothing is due. Shared by Step and the Run loops.
  bool ServeNext(Cycles deadline) {
    Cycles bound_when = deadline;
    std::uint64_t bound_seq = kLastSeq;
    const bool lane_due = next_lane_ != kNoLane && lanes_[next_lane_].when <= deadline;
    if (lane_due) {
      bound_when = lanes_[next_lane_].when;
      bound_seq = lanes_[next_lane_].seq;
    }
    QueueEntry entry;
    if (PopNextLive(bound_when, bound_seq, &entry)) {
      Fire(entry);
      return true;
    }
    if (lane_due) {
      FireLane(next_lane_);
      return true;
    }
    return false;
  }

  static bool LaneFiresEarlier(const Lane& a, const Lane& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  // Cache the earliest armed lane in next_lane_ (kNoLane when none is).
  void FindNextLane() {
    next_lane_ = kNoLane;
    for (LaneId i = 0; i < lanes_.size(); ++i) {
      if (lanes_[i].armed &&
          (next_lane_ == kNoLane || LaneFiresEarlier(lanes_[i], lanes_[next_lane_]))) {
        next_lane_ = i;
      }
    }
  }

  // Fire an armed lane: advance time, disarm it, run its handler.
  void FireLane(LaneId index) {
    Lane& lane = lanes_[index];
    now_ = lane.when;
    ++events_processed_;
    lane.armed = false;
    // Copy the handler out: it may open lanes, which can reallocate lanes_.
    const LaneFn fire = lane.fire;
    void* const context = lane.context;
    FindNextLane();
    fire(context);
  }

  // Purge stale entries, slide the ring window, and pop the next live entry
  // into `out` if it fires before the bound (`bound_when`, `bound_seq`) —
  // an armed lane's slot, or (deadline, kLastSeq) for "time <= deadline".
  // The single home of the drain logic shared by Step and RunUntil. One
  // bucket epoch is loaded (sorted) per batch; every same-epoch expiration
  // then drains by index increment.
  //
  // Split for code size: only the serve loop — the branch taken on nearly
  // every pop in steady state — stays in the header for inlining into
  // Step/RunUntil. Epoch advance, bucket loading, far-tier migration and the
  // all-dead wholesale drop live out of line in PopNextLiveSlow, so the hot
  // path's register allocation never pays for them.
  bool PopNextLive(Cycles bound_when, std::uint64_t bound_seq, QueueEntry* out) {
    // Serve the active batch: dead entries (generation mismatch = cancelled)
    // drop out as they surface, even beyond the bound.
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
    return PopNextLiveSlow(bound_when, bound_seq, out);
  }

  // The batch ran dry: advance to the next occupied epoch (or drop a fully
  // dead calendar wholesale), load its bucket, and serve from it. Defined in
  // engine.cc — see PopNextLive.
  bool PopNextLiveSlow(Cycles bound_when, std::uint64_t bound_seq, QueueEntry* out);

  // Pull every overflow entry whose epoch has entered the ring window into
  // its bucket. Dead entries are dropped here instead of migrating.
  void MigrateFar() {
    while (!far_.empty() && EpochOf(far_.front().when) < cur_epoch_ + kBucketCount) {
      const QueueEntry entry = far_.front();
      std::pop_heap(far_.begin(), far_.end(), FiresLater{});
      far_.pop_back();
      if (pool_->generation(entry.slot) != entry.generation) {
        continue;
      }
      const std::uint32_t index = static_cast<std::uint32_t>(EpochOf(entry.when)) & kRingMask;
      buckets_[index].push_back(entry);
      occupied_[index >> 6] |= std::uint64_t{1} << (index & 63);
      ++near_count_;
    }
  }

  // Distance (in epochs) from cur_epoch_ to the nearest occupied bucket,
  // scanning the bitmap circularly. Precondition: near_count_ > 0.
  std::uint32_t NextOccupiedDistance() const {
    const std::uint32_t start = static_cast<std::uint32_t>(cur_epoch_) & kRingMask;
    std::uint32_t word = start >> 6;
    std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start & 63));
    for (std::uint32_t scanned = 0;; ++scanned) {
      if (bits != 0) {
        const std::uint32_t index =
            (word << 6) + static_cast<std::uint32_t>(__builtin_ctzll(bits));
        return (index - start) & kRingMask;
      }
      word = (word + 1) & ((kBucketCount >> 6) - 1);
      bits = occupied_[word];
      // near_count_ > 0 guarantees a set bit within one full wrap.
      (void)scanned;
    }
  }

  // Fire a popped entry: advance time, free its pool slot, run the callback.
  void Fire(const QueueEntry& entry) {
    now_ = entry.when;
    ++events_processed_;
    // Move the callback out of the pool (freeing the slot for reuse) so
    // captured state dies with this scope even if a handle outlives the
    // event, and so the callback may itself schedule into the freed slot.
    InplaceCallback cb = pool_->Take(entry.slot);
    cb();
  }

  // Entries currently stored across all tiers (live + stale, excluding the
  // batch's already-served prefix).
  std::size_t StoredEntries() const {
    return near_count_ + far_.size() + (batch_.size() - batch_pos_);
  }

  // Sweep dead entries out of every tier once they outnumber live ones.
  // Every live event owns exactly one calendar entry, so the dead-entry
  // count is the stored excess over the pool's live count.
  void MaybeCompact() {
    const std::size_t stored = StoredEntries();
    if (stored >= kCompactMinEntries && stored - pool_->live() > stored / 2) {
      Compact();
    }
  }
  void Compact();

  // Empty every tier. Precondition: pool_->live() == 0, so each stored entry
  // is provably dead and no ordering or window state needs preserving.
  // Out-of-line (noinline) so the pop fast path stays compact, but NOT
  // __attribute__((cold)): the cancel-every-event pattern (timer churn,
  // BM_EngineCancelledEvent) reaches this on the hot path, and cold's
  // pessimized codegen/layout costs ~10%% there for no icache win.
  // Returns false so the caller can tail-call it without keeping any state
  // live across the call.
  __attribute__((noinline)) bool DropAllDead();

  Cycles now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t compactions_ = 0;
  bool stop_requested_ = false;
  EventPool* pool_;

  // --- Ladder state ---------------------------------------------------------
  // Epoch currently being drained (or next to drain). The ring window covers
  // epochs [cur_epoch_, cur_epoch_ + kBucketCount); the overflow tier holds
  // everything at or beyond the window's end.
  std::uint64_t cur_epoch_ = 0;
  std::size_t near_count_ = 0;  // entries across all ring buckets
  std::array<std::vector<QueueEntry>, kBucketCount> buckets_;
  std::array<std::uint64_t, kBucketCount / 64> occupied_;  // non-empty-bucket bitmap
  std::vector<QueueEntry> far_;  // overflow tier: binary heap under FiresLater
  // Drain batch for cur_epoch_: sorted ascending (when, seq); entries before
  // batch_pos_ have been dispatched or purged.
  std::vector<QueueEntry> batch_;
  std::size_t batch_pos_ = 0;
  bool batch_active_ = false;

  // --- Deadline lanes (see ArmLane) ------------------------------------------
  std::vector<Lane> lanes_;
  LaneId next_lane_ = kNoLane;  // earliest armed lane by (when, seq)
};

}  // namespace wdmlat::sim

#endif  // SRC_SIM_ENGINE_H_
