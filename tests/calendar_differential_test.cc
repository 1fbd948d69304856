// Differential model check of the ladder-queue calendar.
//
// The two-tier ladder queue in sim::Engine earns its O(1) hot path with a
// pile of window/epoch bookkeeping; this test pins its observable behavior
// to a reference model so trivially simple it is obviously correct: a flat
// vector scanned for the minimum (when, seq) on every pop. Both sides are
// driven through ~1M randomized schedule / cancel / fire / advance ops per
// seed and must agree on the complete fire order (including equal-tick FIFO
// ties), on now(), and on the pending count after every op. The op mix
// deliberately targets the ladder's seams: same-instant ties, zero delays,
// cancel-then-reschedule of the same pool slot, intra-bucket and cross-ring
// delays, exact horizon-boundary delays, and multi-horizon far-tier delays
// that must migrate near at bucket-epoch rollover.
//
// Deadline lanes ride the same op stream: the reference models a lane as one
// event id that arming cancels and reschedules and disarming cancels, so a
// lane must fire exactly where that event would have. Lane ops cover arming
// at now() beside same-tick scheduled events, re-arming at the same tick,
// disarming, and three lanes ("cores") armed against each other.
//
// A due lane strictly below the engine's calendar floor fires without the
// calendar scan; directed cases pin the floor's seams: a lane tied with an
// entry at the floor, an entry scheduled below a raised floor between lane
// fires, a calendar holding only overflow entries, Reset, and lanes on
// several cores interleaving below the floor.
//
// On divergence the failing op sequence is shrunk (ddmin-style chunk
// removal) before reporting, so a regression presents as a few ops, not a
// million.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/rng.h"

namespace wdmlat::sim {
namespace {

struct Op {
  // kReset appears only in directed sequences, never in the random mix.
  enum Kind : std::uint8_t { kSchedule, kCancel, kStep, kRunUntil, kArmLane, kDisarmLane, kReset };
  Kind kind;
  bool tie;             // kSchedule / kArmLane: reuse the previous op's absolute time
  std::uint64_t delay;  // kSchedule / kArmLane / kRunUntil: cycles from now()
  std::uint32_t victim;  // kCancel: reduced modulo the ids issued so far
  std::uint32_t lane = 0;  // kArmLane / kDisarmLane
};

// Lanes under test, one per simulated core. Their fires log negative ids
// so they can never be confused with scheduled events.
constexpr std::size_t kLanes = 3;
int LaneEventId(std::size_t lane) { return -1 - static_cast<int>(lane); }

// The reference calendar: minimum-scan over a flat vector. No buckets, no
// epochs, no lazy purge — cancel erases immediately.
class ReferenceCalendar {
 public:
  Cycles now = 0;

  void Schedule(Cycles when, int id) {
    if (when < now) {
      when = now;
    }
    live_.push_back(Event{when, next_seq_++, id});
  }

  void Cancel(int id) {
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (live_[i].id == id) {
        live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  }

  bool Step(std::vector<int>* log) {
    const std::size_t min = MinIndex();
    if (min == live_.size()) {
      return false;
    }
    now = live_[min].when;
    log->push_back(live_[min].id);
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(min));
    return true;
  }

  void RunUntil(Cycles deadline, std::vector<int>* log) {
    for (;;) {
      const std::size_t min = MinIndex();
      if (min == live_.size() || live_[min].when > deadline) {
        break;
      }
      now = live_[min].when;
      log->push_back(live_[min].id);
      live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(min));
    }
    if (now < deadline) {
      now = deadline;
    }
  }

  std::size_t pending() const { return live_.size(); }

  void Reset() {
    live_.clear();
    now = 0;
    next_seq_ = 0;
  }

  std::optional<Cycles> WhenOf(int id) const {
    for (const Event& event : live_) {
      if (event.id == id) {
        return event.when;
      }
    }
    return std::nullopt;
  }

 private:
  struct Event {
    Cycles when;
    std::uint64_t seq;
    int id;
  };

  std::size_t MinIndex() const {
    std::size_t best = live_.size();
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (best == live_.size() || live_[i].when < live_[best].when ||
          (live_[i].when == live_[best].when && live_[i].seq < live_[best].seq)) {
        best = i;
      }
    }
    return best;
  }

  std::vector<Event> live_;
  std::uint64_t next_seq_ = 0;
};

// Keep the reference's O(live) scans bounded: schedules convert to steps
// above this, so a million ops stay fast without losing churn coverage.
constexpr std::size_t kMaxLive = 768;

std::string DescribeOp(const Op& op) {
  switch (op.kind) {
    case Op::kSchedule:
      return op.tie ? "schedule{tie with previous when}"
                    : "schedule{delay=" + std::to_string(op.delay) + "}";
    case Op::kCancel:
      return "cancel{victim#" + std::to_string(op.victim) + "}";
    case Op::kStep:
      return "step{}";
    case Op::kRunUntil:
      return "run_until{now+" + std::to_string(op.delay) + "}";
    case Op::kArmLane:
      return "arm_lane{" + std::to_string(op.lane) +
             (op.tie ? ", tie with previous when}" : ", delay=" + std::to_string(op.delay) + "}");
    case Op::kDisarmLane:
      return "disarm_lane{" + std::to_string(op.lane) + "}";
    case Op::kReset:
      return "reset{}";
  }
  return "?";
}

// Run one op sequence through both calendars. Returns a failure description
// at the first divergence, or nullopt if they agree throughout. The engine
// is audited after op i when (i & audit_mask) == 0.
std::optional<std::string> RunOps(const std::vector<Op>& ops, std::size_t audit_mask = 0xFFF) {
  Engine engine;
  ReferenceCalendar reference;
  std::vector<EventHandle> handles;
  std::vector<int> engine_log;
  std::vector<int> reference_log;
  std::size_t verified = 0;  // logs agree on [0, verified)
  Cycles last_when = 0;

  struct LaneProbe {
    std::vector<int>* log;
    int id;
  };
  std::array<LaneProbe, kLanes> probes;
  std::array<Engine::LaneId, kLanes> lanes;
  for (std::size_t i = 0; i < kLanes; ++i) {
    probes[i] = LaneProbe{&engine_log, LaneEventId(i)};
    lanes[i] = engine.OpenLane(
        [](void* context) {
          const auto* probe = static_cast<const LaneProbe*>(context);
          probe->log->push_back(probe->id);
        },
        &probes[i]);
  }

  const auto diverged = [&](std::size_t op_index, const std::string& what) {
    return "op " + std::to_string(op_index) + " (" + DescribeOp(ops[op_index]) + "): " + what;
  };
  const auto check_logs = [&](std::size_t op_index) -> std::optional<std::string> {
    if (engine_log.size() != reference_log.size()) {
      return diverged(op_index, "engine fired " + std::to_string(engine_log.size()) +
                                    " events, reference fired " +
                                    std::to_string(reference_log.size()));
    }
    // Earlier calls verified [0, verified); only the new suffix can differ.
    for (; verified < engine_log.size(); ++verified) {
      if (engine_log[verified] != reference_log[verified]) {
        return diverged(op_index,
                        "fire order differs at event " + std::to_string(verified) +
                            ": engine fired id " + std::to_string(engine_log[verified]) +
                            ", reference fired id " + std::to_string(reference_log[verified]));
      }
    }
    return std::nullopt;
  };

  for (std::size_t i = 0; i < ops.size(); ++i) {
    Op op = ops[i];
    if (op.kind == Op::kSchedule && reference.pending() >= kMaxLive) {
      op.kind = Op::kStep;
    }
    switch (op.kind) {
      case Op::kSchedule: {
        const Cycles when = op.tie ? std::max(last_when, engine.now())
                                   : engine.now() + static_cast<Cycles>(op.delay);
        last_when = when;
        const int id = static_cast<int>(handles.size());
        handles.push_back(engine.ScheduleAt(when, [id, &engine_log] { engine_log.push_back(id); }));
        reference.Schedule(when, id);
        break;
      }
      case Op::kCancel: {
        if (handles.empty()) {
          break;
        }
        const int id = static_cast<int>(op.victim % handles.size());
        handles[static_cast<std::size_t>(id)].Cancel();
        reference.Cancel(id);
        break;
      }
      case Op::kStep: {
        const bool engine_fired = engine.Step();
        const bool reference_fired = reference.Step(&reference_log);
        if (engine_fired != reference_fired) {
          return diverged(i, std::string("engine.Step() returned ") +
                                 (engine_fired ? "true" : "false") + " but the reference " +
                                 (reference_fired ? "fired" : "was empty"));
        }
        break;
      }
      case Op::kRunUntil: {
        const Cycles deadline = engine.now() + static_cast<Cycles>(op.delay);
        engine.RunUntil(deadline);
        reference.RunUntil(deadline, &reference_log);
        break;
      }
      case Op::kArmLane: {
        const Cycles when = op.tie ? std::max(last_when, engine.now())
                                   : engine.now() + static_cast<Cycles>(op.delay);
        last_when = when;
        engine.ArmLane(lanes[op.lane], when - engine.now());
        reference.Cancel(LaneEventId(op.lane));
        reference.Schedule(when, LaneEventId(op.lane));
        break;
      }
      case Op::kDisarmLane: {
        // Disarming returns the cycles still ahead (0 when not armed).
        const std::optional<Cycles> when = reference.WhenOf(LaneEventId(op.lane));
        const Cycles expected = when ? *when - reference.now : 0;
        const Cycles left = engine.DisarmLane(lanes[op.lane]);
        if (left != expected) {
          return diverged(i, "disarm left " + std::to_string(left) + " cycles, reference " +
                                 std::to_string(expected));
        }
        reference.Cancel(LaneEventId(op.lane));
        break;
      }
      case Op::kReset: {
        engine.Reset();
        reference.Reset();
        last_when = 0;
        break;
      }
    }
    if (auto failure = check_logs(i)) {
      return failure;
    }
    if (engine.now() != reference.now) {
      return diverged(i, "engine.now()=" + std::to_string(engine.now()) +
                             " but reference now=" + std::to_string(reference.now));
    }
    if (engine.events_pending() != reference.pending()) {
      return diverged(i, "engine pending=" + std::to_string(engine.events_pending()) +
                             " but reference pending=" + std::to_string(reference.pending()));
    }
    if ((i & audit_mask) == 0) {
      std::vector<std::string> violations;
      engine.AuditCalendar(&violations);
      if (!violations.empty()) {
        return diverged(i, "calendar audit failed: " + violations.front());
      }
    }
  }

  // Drain both to the end: the tail must agree too.
  engine.RunUntilIdle();
  while (reference.Step(&reference_log)) {
  }
  if (auto failure = check_logs(ops.empty() ? 0 : ops.size() - 1)) {
    return failure;
  }
  if (engine.events_pending() != 0) {
    return std::optional<std::string>("engine still pending after full drain");
  }
  std::vector<std::string> violations;
  engine.AuditCalendar(&violations);
  if (!violations.empty()) {
    return std::optional<std::string>("final audit failed: " + violations.front());
  }
  return std::nullopt;
}

// ddmin-style shrink: repeatedly delete chunks that keep the failure alive.
// Bounded by a replay budget so a pathological case cannot hang the suite.
std::vector<Op> ShrinkFailure(std::vector<Op> ops) {
  int budget = 512;
  for (std::size_t chunk = ops.size() / 2; chunk > 0; chunk /= 2) {
    bool removed = true;
    while (removed && budget > 0) {
      removed = false;
      for (std::size_t start = 0; start + chunk <= ops.size() && budget > 0;) {
        std::vector<Op> candidate = ops;
        candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(start),
                        candidate.begin() + static_cast<std::ptrdiff_t>(start + chunk));
        --budget;
        if (RunOps(candidate)) {
          ops = std::move(candidate);
          removed = true;
        } else {
          start += chunk;
        }
      }
    }
  }
  return ops;
}

std::vector<Op> GenerateOps(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Op op{};
    const std::uint64_t kind = rng.UniformInt(0, 99);
    if (kind < 48) {
      // Lanes arm with the same delay shapes as schedules.
      op.kind = kind < 40 ? Op::kSchedule : Op::kArmLane;
      if (op.kind == Op::kArmLane) {
        op.lane = static_cast<std::uint32_t>(rng.UniformInt(0, kLanes - 1));
      }
      const std::uint64_t shape = rng.UniformInt(0, 9);
      if (shape == 0) {
        op.delay = 0;  // fires this instant: same-tick FIFO tie with now()
      } else if (shape == 1) {
        op.tie = true;  // exact (when, seq) tie with the previous schedule
      } else if (shape <= 4) {
        op.delay = rng.UniformInt(1, Engine::kBucketWidth - 1);  // intra-bucket
      } else if (shape <= 6) {
        op.delay = rng.UniformInt(Engine::kBucketWidth, Engine::kHorizonCycles - 1);  // ring
      } else if (shape == 7) {
        // Exactly astride the near/far horizon boundary.
        op.delay = Engine::kHorizonCycles - 3 + rng.UniformInt(0, 6);
      } else {
        // Deep far tier: must survive several window migrations.
        op.delay = rng.UniformInt(Engine::kHorizonCycles, 4 * Engine::kHorizonCycles);
      }
    } else if (kind < 60) {
      op.kind = Op::kCancel;
      op.victim = static_cast<std::uint32_t>(rng.NextU64());
    } else if (kind < 84) {
      op.kind = Op::kStep;
    } else if (kind < 89) {
      op.kind = Op::kDisarmLane;
      op.lane = static_cast<std::uint32_t>(rng.UniformInt(0, kLanes - 1));
    } else {
      op.kind = Op::kRunUntil;
      // Advances from sub-bucket nudges to multi-epoch rollovers.
      op.delay = rng.UniformInt(1, 3 * Engine::kBucketWidth);
    }
    ops.push_back(op);
  }
  return ops;
}

class CalendarDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CalendarDifferentialTest, MillionOpFireOrderMatchesReferenceModel) {
  const std::vector<Op> ops = GenerateOps(GetParam(), 1'000'000);
  std::optional<std::string> failure = RunOps(ops);
  if (!failure) {
    return;
  }
  const std::vector<Op> minimal = ShrinkFailure(ops);
  const std::optional<std::string> shrunk = RunOps(minimal);
  std::string script;
  for (std::size_t i = 0; i < minimal.size() && i < 64; ++i) {
    script += "\n  [" + std::to_string(i) + "] " + DescribeOp(minimal[i]);
  }
  FAIL() << "ladder queue diverged from the reference model (seed " << GetParam()
         << "):\n  " << *failure << "\nshrunk to " << minimal.size()
         << " ops: " << (shrunk ? *shrunk : "(shrink lost the failure)") << script;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalendarDifferentialTest,
                         ::testing::Values(0xC0FFEEull, 1999ull, 42ull));

// A directed (non-random) probe of the exact seams the random mix may take
// millions of ops to align: cancel-then-reschedule into the same pool slot
// at the same instant, and a far-tier event overtaken by later near events.
TEST(CalendarDifferentialTest, DirectedSlotReuseAndMigrationEdges) {
  std::vector<Op> ops;
  // Two ties at one instant, cancel the first, reschedule (reuses its pool
  // slot via the LIFO free list), then fire everything.
  ops.push_back(Op{Op::kSchedule, false, 100, 0});
  ops.push_back(Op{Op::kSchedule, true, 0, 0});
  ops.push_back(Op{Op::kCancel, false, 0, 0});
  ops.push_back(Op{Op::kSchedule, true, 0, 0});
  ops.push_back(Op{Op::kStep, false, 0, 0});
  ops.push_back(Op{Op::kStep, false, 0, 0});
  // A far event, then a pile of near ties, then advance clear across the
  // horizon so the far entry migrates mid-sequence.
  ops.push_back(Op{Op::kSchedule, false, 2 * Engine::kHorizonCycles, 0});
  for (int i = 0; i < 8; ++i) {
    ops.push_back(Op{Op::kSchedule, false, 50, 0});
    ops.push_back(Op{Op::kSchedule, true, 0, 0});
  }
  ops.push_back(Op{Op::kRunUntil, false, Engine::kHorizonCycles, 0});
  ops.push_back(Op{Op::kRunUntil, false, 2 * Engine::kHorizonCycles, 0});
  const std::optional<std::string> failure = RunOps(ops);
  EXPECT_FALSE(failure.has_value()) << *failure;
}

// Directed lane seams: a lane armed at now() beside same-tick schedules
// fires in its reserved seq slot; a same-tick re-arm moves it behind what
// was scheduled in between; a disarmed lane never fires; three lanes armed
// at one instant interleave with the calendar in arm order; and a lane far
// past the horizon of an empty calendar pulls the drain cursor along.
TEST(CalendarDifferentialTest, DirectedLaneEdges) {
  std::vector<Op> ops;
  ops.push_back(Op{Op::kSchedule, false, 0, 0});
  ops.push_back(Op{Op::kArmLane, false, 0, 0, 0});
  ops.push_back(Op{Op::kSchedule, true, 0, 0});
  ops.push_back(Op{Op::kArmLane, true, 0, 0, 0});
  for (int i = 0; i < 3; ++i) {
    ops.push_back(Op{Op::kStep, false, 0, 0});
  }
  ops.push_back(Op{Op::kArmLane, false, 500, 0, 1});
  ops.push_back(Op{Op::kDisarmLane, false, 0, 0, 1});
  ops.push_back(Op{Op::kRunUntil, false, 1000, 0});
  for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
    ops.push_back(Op{Op::kSchedule, false, 100, 0});
    ops.push_back(Op{Op::kArmLane, true, 0, 0, lane});
  }
  ops.push_back(Op{Op::kRunUntil, false, 200, 0});
  ops.push_back(Op{Op::kArmLane, false, 3 * Engine::kHorizonCycles, 0, 2});
  ops.push_back(Op{Op::kStep, false, 0, 0});
  ops.push_back(Op{Op::kSchedule, false, 10, 0});
  ops.push_back(Op{Op::kArmLane, false, 5, 0, 0});
  ops.push_back(Op{Op::kRunUntil, false, 20, 0});
  const std::optional<std::string> failure = RunOps(ops);
  EXPECT_FALSE(failure.has_value()) << *failure;
}

// Directed calendar-floor seams. The floor bounds every ring and overflow
// entry from below; a due lane strictly under it fires without the scan.
// Each case audits after every op, so a floor left above a live entry fails
// the audit even before it would reorder a fire.
TEST(CalendarDifferentialTest, DirectedFloorEdges) {
  constexpr Cycles kWidth = Engine::kBucketWidth;
  std::vector<Op> ops;
  // A lane due exactly at the floor: the entry at 3W sets the floor to 3W; a
  // lane below it fires straight away, then a lane armed at exactly 3W ties
  // with the entry and must fire after it (its seq is later).
  ops.push_back(Op{Op::kSchedule, false, 3 * kWidth, 0});
  ops.push_back(Op{Op::kArmLane, false, 10, 0, 0});
  ops.push_back(Op{Op::kStep, false, 0, 0});
  ops.push_back(Op{Op::kArmLane, false, 3 * kWidth - 10, 0, 0});
  ops.push_back(Op{Op::kStep, false, 0, 0});
  ops.push_back(Op{Op::kStep, false, 0, 0});
  // An entry scheduled below a raised floor between lane fires: a lane tied
  // with the floor makes the scan stop at the next occupied epoch (raising
  // the floor to 5 epochs ahead), a lane below that fires without the scan,
  // and an entry then scheduled under the raised floor must lower it — the
  // next lane lies beyond the entry and must fire after it.
  ops.push_back(Op{Op::kSchedule, false, 5 * kWidth, 0});
  ops.push_back(Op{Op::kArmLane, false, 10, 0, 0});
  ops.push_back(Op{Op::kStep, false, 0, 0});
  ops.push_back(Op{Op::kArmLane, false, kWidth, 0, 0});
  ops.push_back(Op{Op::kStep, false, 0, 0});
  ops.push_back(Op{Op::kArmLane, false, 100, 0, 0});
  ops.push_back(Op{Op::kStep, false, 0, 0});
  ops.push_back(Op{Op::kSchedule, false, 50, 0});
  ops.push_back(Op{Op::kArmLane, false, kWidth / 2, 0, 0});
  ops.push_back(Op{Op::kStep, false, 0, 0});
  ops.push_back(Op{Op::kStep, false, 0, 0});
  ops.push_back(Op{Op::kRunUntil, false, 8 * kWidth, 0});
  // Only the overflow tier holds entries: a cancelled near entry pins the
  // floor low until a scan purges it and stops at the overflow minimum; then
  // lanes fire beneath it, and a lane tied with the overflow entry fires
  // after it.
  ops.push_back(Op{Op::kSchedule, false, 2 * Engine::kHorizonCycles, 0});
  ops.push_back(Op{Op::kArmLane, true, 0, 0, 1});
  ops.push_back(Op{Op::kSchedule, false, 100, 0});
  ops.push_back(Op{Op::kCancel, false, 0, 4});  // the near entry just scheduled
  ops.push_back(Op{Op::kArmLane, false, 10, 0, 0});
  ops.push_back(Op{Op::kStep, false, 0, 0});
  ops.push_back(Op{Op::kArmLane, false, 200, 0, 0});
  ops.push_back(Op{Op::kStep, false, 0, 0});
  ops.push_back(Op{Op::kArmLane, false, Engine::kHorizonCycles, 0, 0});
  ops.push_back(Op{Op::kStep, false, 0, 0});
  ops.push_back(Op{Op::kStep, false, 0, 0});
  ops.push_back(Op{Op::kStep, false, 0, 0});
  // Lanes on three cores below the floor: arm order, not lane index, breaks
  // the same-instant tie, and a calendar entry between them interleaves.
  ops.push_back(Op{Op::kSchedule, false, 4 * kWidth, 0});
  ops.push_back(Op{Op::kArmLane, false, 30, 0, 2});
  ops.push_back(Op{Op::kArmLane, false, 20, 0, 0});
  ops.push_back(Op{Op::kArmLane, true, 0, 0, 1});
  ops.push_back(Op{Op::kSchedule, false, 25, 0});
  for (int i = 0; i < 4; ++i) {
    ops.push_back(Op{Op::kStep, false, 0, 0});
  }
  ops.push_back(Op{Op::kArmLane, false, 5, 0, 1});
  ops.push_back(Op{Op::kArmLane, false, 5, 0, 2});
  ops.push_back(Op{Op::kRunUntil, false, 10, 0});
  // Reset clears the floor along with the calendar: the replay below must
  // order exactly as on a new engine.
  ops.push_back(Op{Op::kArmLane, false, 7, 0, 0});
  ops.push_back(Op{Op::kReset, false, 0, 0});
  ops.push_back(Op{Op::kSchedule, false, 100, 0});
  ops.push_back(Op{Op::kArmLane, false, 200, 0, 0});
  ops.push_back(Op{Op::kArmLane, false, 50, 0, 1});
  ops.push_back(Op{Op::kSchedule, false, 2 * kWidth, 0});
  for (int i = 0; i < 3; ++i) {
    ops.push_back(Op{Op::kStep, false, 0, 0});
  }
  ops.push_back(Op{Op::kArmLane, false, 2 * kWidth - 200, 0, 2});
  const std::optional<std::string> failure = RunOps(ops, /*audit_mask=*/0);
  EXPECT_FALSE(failure.has_value()) << *failure;
}

}  // namespace
}  // namespace wdmlat::sim
