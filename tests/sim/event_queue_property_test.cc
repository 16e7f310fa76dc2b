// Property and regression tests for the slab/radix-heap event-queue kernel.
//
//  * Randomized property test: the kernel is driven with a mixed
//    schedule/cancel/pop workload and compared op-for-op against a naive
//    std::multimap reference keyed by (time, insertion sequence). Covers pop
//    order, Cancel semantics, and stale-token safety while slots are being
//    reused. Labeled "unit" so the asan/ubsan and tsan CI legs execute it.
//  * Compaction regression: cancel-heavy bursts must not pin key memory
//    (the lazy-deletion leak the compactor exists to prevent).
//  * Radix-heap edge cases: a RunUntil horizon before the earliest key,
//    signed zero, infinite and extreme times, equal times reaching the
//    front run by different routes, key storage after a long hold, and a
//    burst of events scheduled inside the span of a live front run.

#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

namespace vod {
namespace {

// ---- randomized property test vs std::multimap ----------------------------

/// Deterministic 64-bit LCG so failures reproduce exactly.
class MixRng {
 public:
  explicit MixRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 11;
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Reference model: events keyed by (time, schedule sequence), the exact
/// order the kernel promises. Also remembers every token ever issued and
/// whether its event is still live, so stale cancels can be replayed against
/// both implementations.
struct ReferenceModel {
  // (time, seq) -> event id. multimap iteration order is the required
  // execution order.
  std::multimap<std::pair<double, uint64_t>, uint64_t> pending;
  uint64_t next_seq = 0;
};

/// Times drawn as Now() + Below(steps) / per_unit. The dense case puts times
/// on a 1/64 grid over a few time units, so many keys share a time.
struct TimeGrid {
  uint64_t seed;
  uint64_t steps;
  double per_unit;
};

TEST(EventQueuePropertyTest, MatchesMultimapReferenceUnderRandomMix) {
  for (const TimeGrid& grid :
       {TimeGrid{1, 1000, 16.0}, TimeGrid{42, 1000, 16.0},
        TimeGrid{20260806, 1000, 16.0}, TimeGrid{5, 256, 64.0}}) {
    const uint64_t seed = grid.seed;
    EventQueue q;
    ReferenceModel ref;
    MixRng rng(seed);

    std::vector<uint64_t> executed_ids;        // from the kernel
    std::vector<uint64_t> expected_ids;        // from the reference
    uint64_t next_id = 0;

    // Handler path: payload is the event id. Exercises the allocation-free
    // fast path alongside closure events.
    const uint64_t kHandlerKind = q.AddHandler(
        [](void* ids, uint64_t payload) {
          static_cast<std::vector<uint64_t>*>(ids)->push_back(payload);
        },
        &executed_ids);

    // Live bookkeeping: token -> (event id, reference key). Dead tokens move
    // to `stale_tokens` and are fired at the kernel later, while their slots
    // are being recycled by new schedules.
    std::map<EventToken, std::pair<uint64_t, std::pair<double, uint64_t>>>
        live;
    std::vector<EventToken> stale_tokens;

    const auto schedule_one = [&] {
      const double t =
          q.Now() + static_cast<double>(rng.Below(grid.steps)) / grid.per_unit;
      const uint64_t id = next_id++;
      EventToken tok;
      if (rng.Below(2) == 0) {
        tok = q.ScheduleHandler(t, kHandlerKind, id);
      } else {
        tok = q.Schedule(t, [&executed_ids, id] { executed_ids.push_back(id); });
      }
      const auto key = std::make_pair(t, ref.next_seq++);
      ref.pending.emplace(key, id);
      ASSERT_TRUE(live.emplace(tok, std::make_pair(id, key)).second)
          << "kernel issued a duplicate token for a live event";
    };

    for (int op = 0; op < 20000; ++op) {
      const uint64_t dice = rng.Below(10);
      if (dice < 5) {  // 50%: schedule
        schedule_one();
      } else if (dice < 7 && !live.empty()) {  // 20%: cancel a live event
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.Below(live.size())));
        q.Cancel(it->first);
        ref.pending.erase(ref.pending.find(it->second.second));
        stale_tokens.push_back(it->first);
        live.erase(it);
      } else if (dice == 7 && !stale_tokens.empty()) {  // 10%: stale cancel
        // Must be a no-op even though the token's slot may by now hold a
        // different live event.
        q.Cancel(stale_tokens[rng.Below(stale_tokens.size())]);
      } else {  // pop
        const bool kernel_ran = q.RunNext();
        ASSERT_EQ(kernel_ran, !ref.pending.empty());
        if (kernel_ran) {
          const auto head = ref.pending.begin();
          expected_ids.push_back(head->second);
          // Retire the executed event's token.
          for (auto it = live.begin(); it != live.end(); ++it) {
            if (it->second.first == head->second) {
              stale_tokens.push_back(it->first);
              live.erase(it);
              break;
            }
          }
          ref.pending.erase(head);
        }
      }
      ASSERT_EQ(q.pending(), ref.pending.size());
    }

    // Drain both and compare the complete execution history.
    while (q.RunNext()) {
      const auto head = ref.pending.begin();
      ASSERT_NE(head, ref.pending.end());
      expected_ids.push_back(head->second);
      ref.pending.erase(head);
    }
    EXPECT_TRUE(ref.pending.empty());
    EXPECT_EQ(executed_ids, expected_ids) << "seed " << seed;
  }
}

TEST(EventQueuePropertyTest, StaleTokenNeverCancelsSlotReuser) {
  // Directed version of the reuse hazard: cancel A, let B recycle A's slab
  // slot, then replay A's token. Generation stamps must protect B.
  EventQueue q;
  int b_runs = 0;
  const EventToken a = q.Schedule(1.0, [] { FAIL() << "A was cancelled"; });
  q.Cancel(a);
  // The freed slot is head of the free list, so B reuses it immediately.
  const EventToken b = q.Schedule(2.0, [&b_runs] { ++b_runs; });
  EXPECT_EQ(static_cast<uint32_t>(a), static_cast<uint32_t>(b))
      << "test premise: B must recycle A's slot";
  q.Cancel(a);  // stale token, same slot, older generation
  while (q.RunNext()) {
  }
  EXPECT_EQ(b_runs, 1);
}

TEST(EventQueuePropertyTest, TokensRemainDistinctAcrossManyReuses) {
  // A slot reused N times must issue N distinct tokens, and only the newest
  // may cancel the current occupant.
  EventQueue q;
  std::vector<EventToken> history;
  for (int round = 0; round < 100; ++round) {
    const EventToken t = q.Schedule(1.0, [] { FAIL() << "cancelled"; });
    for (const EventToken old : history) EXPECT_NE(old, t);
    // Older tokens are all stale; none may touch the live event.
    for (const EventToken old : history) q.Cancel(old);
    EXPECT_EQ(q.pending(), 1u);
    q.Cancel(t);
    history.push_back(t);
  }
  EXPECT_EQ(q.pending(), 0u);
  int runs = 0;
  q.Schedule(1.0, [&runs] { ++runs; });
  while (q.RunNext()) {
  }
  EXPECT_EQ(runs, 1);
}

// ---- compaction / lazy-deletion leak regression ----------------------------

TEST(EventQueueCompactionTest, CancelHeavyBurstDoesNotPinHeapMemory) {
  // Before the compactor, each cancelled event left its heap key behind
  // until pop time; a mass-abandonment burst at a far-future timestamp
  // pinned O(cancelled) memory indefinitely. Now tombstones may never
  // exceed live keys (plus the small-heap threshold below which compaction
  // is pointless).
  EventQueue q;
  std::vector<EventToken> tokens;
  constexpr int kBurst = 100000;
  tokens.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    tokens.push_back(q.Schedule(1.0e6 + i, [] {}));
  }
  // Keep a handful alive so the heap cannot trivially empty.
  for (int i = 0; i < kBurst - 10; ++i) q.Cancel(tokens[i]);
  EXPECT_EQ(q.pending(), 10u);
  // Invariant maintained by Cancel: tombstones <= max(live, threshold).
  EXPECT_LE(q.keys_held(), 2u * q.pending() + 64u)
      << "cancelled keys are pinning heap memory";
}

TEST(EventQueueCompactionTest, RepeatedBurstsKeepSlabAndHeapBounded) {
  // Steady-state churn: every round schedules a wave and cancels most of
  // it. Slab and heap must stay proportional to the peak concurrent
  // population, not to cumulative throughput.
  EventQueue q;
  constexpr int kRounds = 50;
  constexpr int kWave = 1000;
  size_t max_concurrent = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<EventToken> wave;
    wave.reserve(kWave);
    const double base = q.Now() + 1.0;
    for (int i = 0; i < kWave; ++i) {
      wave.push_back(q.Schedule(base + i, [] {}));
    }
    max_concurrent = std::max(max_concurrent, q.pending());
    for (int i = 0; i < kWave; ++i) {
      if (i % 10 != 0) q.Cancel(wave[i]);
    }
    q.RunUntil(base + kWave);  // drain the survivors
  }
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.keys_held(), 0u);
  EXPECT_LE(q.slab_slots(), max_concurrent + 64)
      << "slab grew with throughput instead of peak population";
}

TEST(EventQueueCompactionTest, CompactionPreservesExecutionOrder) {
  // Force a compaction mid-stream and check the survivors still run in
  // (time, schedule order).
  EventQueue q;
  std::vector<int> order;
  std::vector<EventToken> victims;
  for (int i = 0; i < 1000; ++i) {
    const double t = static_cast<double>((i * 37) % 500) + 1.0;
    if (i % 5 == 0) {
      q.Schedule(t, [&order, i] { order.push_back(i); });
    } else {
      victims.push_back(q.Schedule(t, [] { FAIL() << "cancelled"; }));
    }
  }
  for (const EventToken t : victims) q.Cancel(t);  // 800 tombstones -> compact
  EXPECT_LE(q.keys_held(), 2u * q.pending() + 64u);
  while (q.RunNext()) {
  }
  ASSERT_EQ(order.size(), 200u);
  // Reference order: stable sort of the survivor ids by time (schedule
  // order breaks ties because i increases monotonically).
  std::vector<int> survivors;
  for (int i = 0; i < 1000; i += 5) survivors.push_back(i);
  std::stable_sort(survivors.begin(), survivors.end(), [](int a, int b) {
    return (a * 37) % 500 < (b * 37) % 500;
  });
  EXPECT_EQ(order, survivors);
}

// ---- radix-heap edge cases ---------------------------------------------------

/// Logs each handler event's payload and the time it ran at.
struct RunLog {
  EventQueue q;
  uint64_t kind = 0;
  std::vector<uint64_t> ids;
  std::vector<double> times;

  RunLog() {
    kind = q.AddHandler(
        [](void* c, uint64_t id) {
          RunLog* log = static_cast<RunLog*>(c);
          log->ids.push_back(id);
          log->times.push_back(log->q.Now());
        },
        this);
  }
  EventToken At(double t, uint64_t id) { return q.ScheduleHandler(t, kind, id); }
};

TEST(EventQueueRadixTest, SchedulesBetweenHorizonAndEarliestKeyRunFirst) {
  // RunUntil(h) stops while the earliest key is after h, live or cancelled.
  // Drivers then schedule between h and that key; those events must run
  // first, in (time, schedule order), even though the refill that found
  // that key may have anchored the heap after h.
  for (const bool tombstoned : {false, true}) {
    RunLog log;
    log.At(1.0, 1);
    const EventToken earliest = log.At(10.0, 10);
    log.At(12.0, 12);
    if (tombstoned) log.q.Cancel(earliest);
    log.q.RunUntil(5.0);
    EXPECT_EQ(log.ids, (std::vector<uint64_t>{1}));
    EXPECT_EQ(log.q.Now(), 5.0);
    log.At(9.5, 95);
    log.At(5.0, 50);
    log.At(7.25, 72);
    log.At(7.25, 73);
    log.At(10.0, 100);
    log.q.RunUntil(20.0);
    const std::vector<uint64_t> expected =
        tombstoned ? std::vector<uint64_t>{1, 50, 72, 73, 95, 100, 12}
                   : std::vector<uint64_t>{1, 50, 72, 73, 95, 10, 100, 12};
    EXPECT_EQ(log.ids, expected) << "tombstoned " << tombstoned;
  }
}

TEST(EventQueueRadixTest, EmptiedQueueAcceptsTimesBeforeDroppedMinimum) {
  // RunNext drops a cancelled key at t = 10 and finds the queue empty; the
  // clock is still at 1, so events between 1 and 10 must run in order.
  RunLog log;
  log.At(1.0, 1);
  log.q.Cancel(log.At(10.0, 10));
  EXPECT_TRUE(log.q.RunNext());
  EXPECT_FALSE(log.q.RunNext());
  EXPECT_EQ(log.q.Now(), 1.0);
  log.At(6.0, 6);
  log.At(2.0, 2);
  log.At(9.0, 9);
  log.At(1.5, 15);
  log.q.RunUntil(20.0);
  EXPECT_EQ(log.ids, (std::vector<uint64_t>{1, 15, 2, 6, 9}));
}

TEST(EventQueueRadixTest, WindowedRunsMatchReference) {
  // A windowed driver: each window runs to its horizon, then schedules keys
  // anywhere from the horizon on, some exactly at it, while a random share
  // of pending keys is cancelled. Keys land up to steps / per_unit after
  // the horizon, and a horizon moves by less than 48 / per_unit. In the
  // dense case (1/64 grid, up to 160 keys a window) windows end inside the
  // front run, so later schedules land in its middle, often enough to reach
  // the run's re-anchor cap.
  struct WindowGrid {
    uint64_t seed;
    uint64_t steps;
    double per_unit;
    uint64_t max_keys;
  };
  for (const WindowGrid& grid :
       {WindowGrid{3, 400, 8.0, 40}, WindowGrid{77, 400, 8.0, 40},
        WindowGrid{8, 64, 64.0, 160}}) {
    const uint64_t seed = grid.seed;
    RunLog log;
    MixRng rng(seed);
    std::multimap<std::pair<double, uint64_t>, uint64_t> ref;
    std::vector<std::pair<EventToken, std::pair<double, uint64_t>>> tokens;
    std::vector<uint64_t> expected;
    uint64_t seq = 0;
    double horizon = 0.0;
    for (int window = 0; window < 300; ++window) {
      const int n = static_cast<int>(rng.Below(grid.max_keys));
      for (int i = 0; i < n; ++i) {
        const double t =
            rng.Below(4) == 0
                ? horizon
                : horizon + static_cast<double>(rng.Below(grid.steps)) /
                                grid.per_unit;
        const auto key = std::make_pair(t, seq);
        tokens.emplace_back(log.At(t, seq), key);
        ref.emplace(key, seq++);
      }
      if (!tokens.empty() && rng.Below(3) == 0) {
        const size_t victim = rng.Below(tokens.size());
        const auto it = ref.find(tokens[victim].second);
        if (it != ref.end()) {
          log.q.Cancel(tokens[victim].first);
          ref.erase(it);
        }
      }
      horizon += static_cast<double>(rng.Below(24)) * 2.0 / grid.per_unit;
      log.q.RunUntil(horizon);
      while (!ref.empty() && ref.begin()->first.first <= horizon) {
        expected.push_back(ref.begin()->second);
        ref.erase(ref.begin());
      }
      ASSERT_EQ(log.ids, expected) << "seed " << seed << " window " << window;
      ASSERT_EQ(log.q.pending(), ref.size());
    }
  }
}

TEST(EventQueueRadixTest, SignedZeroInfinityAndExtremeTimesRunInOrder) {
  // -0.0 equals +0.0 and must tie with it in schedule order; +inf is a
  // valid time; times over 1e-300 .. 1e300 span almost every exponent.
  RunLog log;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> scheduled = {0.0,
                                   -0.0,
                                   0.0,
                                   kInf,
                                   std::numeric_limits<double>::denorm_min(),
                                   std::numeric_limits<double>::max(),
                                   kInf};
  for (int e = -300; e <= 300; e += 7) {
    scheduled.push_back(std::stod("1e" + std::to_string(e)));
  }
  // Schedule in a scrambled order so no bucket is filled in time order.
  std::vector<size_t> order(scheduled.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = (i * 37) % order.size();
  std::vector<std::pair<double, uint64_t>> ref;
  for (const size_t i : order) {
    ref.emplace_back(scheduled[i] + 0.0, ref.size());
    log.At(scheduled[i], ref.size() - 1);
  }
  std::stable_sort(ref.begin(), ref.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  log.q.RunUntil(kInf);
  ASSERT_EQ(log.ids.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(log.ids[i], ref[i].second) << "position " << i;
    EXPECT_EQ(log.times[i], ref[i].first) << "position " << i;
  }
  EXPECT_EQ(log.q.Now(), kInf);
  // The clock stays usable at +inf and after an empty queue.
  log.At(kInf, 999);
  EXPECT_TRUE(log.q.RunNext());
  EXPECT_EQ(log.ids.back(), 999u);
  EXPECT_FALSE(log.q.RunNext());
}

TEST(EventQueueRadixTest, EqualTimesFromRefillAndDirectPushKeepScheduleOrder) {
  // Keys at t = 5 scheduled before the first pop reach the front run through
  // a refill; keys at t = 5 scheduled at t = 3 and at t = 5 are inserted
  // into the run directly, after the equal keys already there. All of them
  // run in schedule order.
  struct Cascade {
    RunLog log;
    uint64_t spawn = 0;
  } c;
  c.spawn = c.log.q.AddHandler(
      [](void* ctx, uint64_t id) {
        Cascade* cc = static_cast<Cascade*>(ctx);
        cc->log.ids.push_back(id);
        if (id == 3) {  // at t = 3: two more keys at 5, pushed against 3
          cc->log.At(5.0, 7);
          cc->log.q.ScheduleHandler(5.0, cc->spawn, 8);
        } else if (id == 8) {  // at t = 5: direct pushes onto the front
          cc->log.At(5.0, 9);
          cc->log.At(5.0, 10);
        }
      },
      &c);
  c.log.At(5.0, 1);
  c.log.At(5.0, 2);
  c.log.q.ScheduleHandler(3.0, c.spawn, 3);
  c.log.At(5.0, 4);
  c.log.At(6.0, 11);
  c.log.q.RunUntil(10.0);
  EXPECT_EQ(c.log.ids,
            (std::vector<uint64_t>{3, 1, 2, 4, 7, 8, 9, 10, 11}));
}

TEST(EventQueueRadixTest, KeyStorageFollowsPendingThroughLongHold) {
  // After 10^6 hold steps at the catalog's 19,250 pending events, key
  // storage stays within 1.25x of the keys held. Buckets that kept the
  // largest buffer they ever had hold several times that: which buckets
  // fill depends on the bits of the current time, so they change as the
  // clock passes powers of two.
  constexpr size_t kPending = 19250;
  EventQueue q;
  const uint64_t kind = q.AddHandler([](void*, uint64_t) {}, nullptr);
  MixRng rng(9);
  const double range = static_cast<double>(kPending);
  const auto draw = [&rng, range] {
    return static_cast<double>(rng.Below(1 << 20)) * range / (1 << 20);
  };
  for (size_t i = 0; i < kPending; ++i) q.ScheduleHandler(draw(), kind, i);
  for (int step = 0; step < 1000000; ++step) {
    ASSERT_TRUE(q.RunNext());
    q.ScheduleHandler(q.Now() + draw(), kind, 0);
  }
  EXPECT_EQ(q.pending(), kPending);
  EXPECT_LE(q.key_capacity(), kPending + kPending / 4)
      << "key storage grew beyond the keys held";
}

TEST(EventQueueRadixTest, BurstInsideFrontRunStaysFastAndOrdered) {
  // 600 and 1000 share a bucket, so the first pop sorts both into the run
  // and anchors it at 1000. Every key of the burst then falls inside the
  // run's span. Without the re-anchor cap each insert shifts the whole run
  // (about 100 s for this burst, past the test's ctest timeout); with it
  // the burst goes to the buckets after 64 inserts.
  RunLog log;
  log.At(600.0, 0);
  log.At(1000.0, 1);
  ASSERT_TRUE(log.q.RunNext());
  constexpr uint64_t kBurst = 1000000;
  MixRng rng(14);
  // Reference: (time, schedule order), the multimap order.
  std::vector<std::pair<double, uint64_t>> ref;
  ref.reserve(kBurst + 1);
  ref.emplace_back(1000.0, 1);
  for (uint64_t id = 2; id < kBurst + 2; ++id) {
    const double t =
        601.0 + static_cast<double>(1 + rng.Below(397999)) / 1000.0;
    log.At(t, id);
    ref.emplace_back(t, id);
  }
  std::sort(ref.begin(), ref.end());
  while (log.q.RunNext()) {
  }
  ASSERT_EQ(log.ids.size(), ref.size() + 1);
  EXPECT_EQ(log.ids[0], 0u);
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(log.ids[i + 1], ref[i].second) << "position " << i + 1;
    ASSERT_EQ(log.times[i + 1], ref[i].first) << "position " << i + 1;
  }
}

}  // namespace
}  // namespace vod
