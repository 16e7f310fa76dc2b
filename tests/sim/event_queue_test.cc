#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace vod {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(3.0, [&] { order.push_back(3); });
  q.Schedule(1.0, [&] { order.push_back(1); });
  q.Schedule(2.0, [&] { order.push_back(2); });
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.Now(), 3.0);
}

TEST(EventQueueTest, SimultaneousEventsRunInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(1.0, [&order, i] { order.push_back(i); });
  }
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelSkipsEvent) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(1.0, [&] { order.push_back(1); });
  const EventToken t = q.Schedule(2.0, [&] { order.push_back(2); });
  q.Schedule(3.0, [&] { order.push_back(3); });
  q.Cancel(t);
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, CancelUnknownTokenIsHarmless) {
  EventQueue q;
  q.Cancel(9999);
  q.Schedule(1.0, [] {});
  EXPECT_TRUE(q.RunNext());
  EXPECT_FALSE(q.RunNext());
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  std::vector<double> times;
  q.Schedule(1.0, [&] {
    times.push_back(q.Now());
    q.Schedule(2.5, [&] { times.push_back(q.Now()); });
  });
  while (q.RunNext()) {
  }
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.5}));
}

TEST(EventQueueTest, SchedulingInThePastAborts) {
  EventQueue q;
  q.Schedule(5.0, [] {});
  EXPECT_TRUE(q.RunNext());
  EXPECT_DEATH(q.Schedule(4.0, [] {}), "past");
}

TEST(EventQueueTest, RunUntilStopsAtHorizon) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(1.0, [&] { order.push_back(1); });
  q.Schedule(2.0, [&] { order.push_back(2); });
  q.Schedule(5.0, [&] { order.push_back(5); });
  q.RunUntil(3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(q.Now(), 3.0);
  EXPECT_EQ(q.pending(), 1u);
  q.RunUntil(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 5}));
}

TEST(EventQueueTest, RunUntilExecutesEventAtExactHorizon) {
  EventQueue q;
  bool ran = false;
  q.Schedule(3.0, [&] { ran = true; });
  q.RunUntil(3.0);
  EXPECT_TRUE(ran);
}

TEST(EventQueueTest, RunUntilAdvancesClockOnEmptyQueue) {
  EventQueue q;
  q.RunUntil(7.0);
  EXPECT_DOUBLE_EQ(q.Now(), 7.0);
}

TEST(EventQueueTest, PendingCountExcludesCancelled) {
  EventQueue q;
  q.Schedule(1.0, [] {});
  const EventToken t = q.Schedule(2.0, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.Cancel(t);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueueTest, CancelledHeadDoesNotBlockHorizonCheck) {
  EventQueue q;
  bool ran = false;
  const EventToken t = q.Schedule(1.0, [] {});
  q.Schedule(2.0, [&] { ran = true; });
  q.Cancel(t);
  q.RunUntil(2.5);
  EXPECT_TRUE(ran);
}

TEST(EventQueueTest, CancellingAnAlreadyPoppedTokenIsANoOp) {
  EventQueue q;
  int runs = 0;
  const EventToken t = q.Schedule(1.0, [&] { ++runs; });
  EXPECT_TRUE(q.RunNext());
  EXPECT_EQ(runs, 1);
  q.Cancel(t);  // token already executed; must not poison anything
  EXPECT_EQ(q.pending(), 0u);
  // A later event must still run (a stale cancel must not eat it even if
  // token values were ever reused).
  q.Schedule(2.0, [&] { ++runs; });
  EXPECT_TRUE(q.RunNext());
  EXPECT_EQ(runs, 2);
}

TEST(EventQueueTest, CancelAfterPopDoesNotCancelLaterEventAtSameTime) {
  EventQueue q;
  std::vector<int> order;
  const EventToken first = q.Schedule(1.0, [&] { order.push_back(0); });
  q.Schedule(1.0, [&] { order.push_back(1); });
  EXPECT_TRUE(q.RunNext());
  q.Cancel(first);  // stale: the event at the same timestamp must survive
  EXPECT_TRUE(q.RunNext());
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueueTest, ObserverFiresAfterEachExecutedEvent) {
  EventQueue q;
  std::vector<double> observed;
  int side_effect = 0;
  struct Seen {
    std::vector<double>* observed;
    const int* side_effect;
  } seen{&observed, &side_effect};
  q.set_observer(
      [](void* c, double t) {
        Seen* s = static_cast<Seen*>(c);
        s->observed->push_back(t);
        // Observer fires *after* the action: state must be settled.
        EXPECT_GT(*s->side_effect, 0);
      },
      &seen);
  q.Schedule(1.0, [&] { ++side_effect; });
  const EventToken t = q.Schedule(2.0, [&] { ++side_effect; });
  q.Schedule(3.0, [&] { ++side_effect; });
  q.Cancel(t);
  while (q.RunNext()) {
  }
  // Cancelled events never execute, so the observer must not see them.
  EXPECT_EQ(observed, (std::vector<double>{1.0, 3.0}));
  EXPECT_EQ(q.executed(), 2u);
}

// ---- equal-time ordering through registered handlers -----------------------

/// Two registered handler kinds that log (kind tag, payload); closures log
/// tag 2 themselves. With `reschedule` on, a first-generation payload
/// p % 5 == 0 schedules a same-kind child and p % 7 == 3 an other-kind
/// child, both at Now().
struct HandlerLog {
  static constexpr uint64_t kChild = uint64_t{1} << 20;

  EventQueue q;
  uint64_t kind_a = 0;
  uint64_t kind_b = 0;
  std::vector<std::pair<uint64_t, uint64_t>> log;  ///< (kind tag, payload)
  bool reschedule = false;

  HandlerLog() {
    kind_a = q.AddHandler(
        [](void* c, uint64_t p) { static_cast<HandlerLog*>(c)->OnEvent(0, p); },
        this);
    kind_b = q.AddHandler(
        [](void* c, uint64_t p) { static_cast<HandlerLog*>(c)->OnEvent(1, p); },
        this);
  }

  void OnEvent(uint64_t tag, uint64_t payload) {
    log.emplace_back(tag, payload);
    // The offset keeps children out of the trigger ranges, so the cascade
    // stops after one generation.
    if (!reschedule || payload >= kChild) return;
    if (payload % 5 == 0) {
      q.ScheduleHandler(q.Now(), tag == 0 ? kind_a : kind_b, payload + kChild);
    } else if (payload % 7 == 3) {
      q.ScheduleHandler(q.Now(), tag == 0 ? kind_b : kind_a,
                        payload + 2 * kChild);
    }
  }
};

using Log = std::vector<std::pair<uint64_t, uint64_t>>;

TEST(EventQueueTest, EqualTimeEventsKeepScheduleOrderAcrossKinds) {
  // Interleaved handler kinds and a closure at one timestamp run in
  // schedule order: no event leaps over a foreign one of equal time.
  HandlerLog h;
  h.q.ScheduleHandler(1.0, h.kind_a, 0);
  h.q.ScheduleHandler(1.0, h.kind_a, 1);
  h.q.ScheduleHandler(1.0, h.kind_b, 2);
  h.q.ScheduleHandler(1.0, h.kind_a, 3);
  h.q.Schedule(1.0, [&h] { h.log.emplace_back(2, 4); });
  h.q.ScheduleHandler(1.0, h.kind_a, 5);
  h.q.RunUntil(2.0);
  EXPECT_EQ(h.log, (Log{{0, 0}, {0, 1}, {1, 2}, {0, 3}, {2, 4}, {0, 5}}));
  EXPECT_EQ(h.q.executed(), 6u);
}

TEST(EventQueueTest, CancelledEqualTimeHandlerEventsAreSkippedExactly) {
  HandlerLog h;
  std::vector<EventToken> tokens;
  for (uint64_t i = 0; i < 5; ++i) {
    tokens.push_back(h.q.ScheduleHandler(1.0, h.kind_a, i));
  }
  h.q.Cancel(tokens[1]);
  h.q.Cancel(tokens[3]);
  h.q.RunUntil(2.0);
  EXPECT_EQ(h.log, (Log{{0, 0}, {0, 2}, {0, 4}}));
  EXPECT_EQ(h.q.executed(), 3u);
  EXPECT_TRUE(h.q.empty());
}

TEST(EventQueueTest, SameTimeChildrenRunAfterEveryPendingPeer) {
  // Events a handler schedules at the current timestamp carry a higher
  // generation than every event already pending there, so they run after
  // all of them, in the order they were scheduled.
  HandlerLog h;
  h.reschedule = true;
  // Payloads 0 and 5 spawn same-kind children; payload 3 a kind-B child.
  for (uint64_t i = 0; i < 6; ++i) h.q.ScheduleHandler(1.0, h.kind_a, i);
  h.q.RunUntil(2.0);
  constexpr uint64_t kChild = HandlerLog::kChild;
  EXPECT_EQ(h.log, (Log{{0, 0},
                        {0, 1},
                        {0, 2},
                        {0, 3},
                        {0, 4},
                        {0, 5},
                        {0, kChild},
                        {1, 3 + 2 * kChild},
                        {0, 5 + kChild}}));
}

TEST(EventQueueTest, ObserverTicksOncePerHandlerEventAtItsTime) {
  // RunUntil's observed loop fires the observer after each handler event,
  // with that event's state already applied.
  HandlerLog h;
  struct Tick {
    HandlerLog* h;
    std::vector<double> times;
    std::vector<size_t> logged;  ///< log size when the tick fired
  } tick{&h, {}, {}};
  h.q.set_observer(
      [](void* c, double t) {
        Tick* tk = static_cast<Tick*>(c);
        tk->times.push_back(t);
        tk->logged.push_back(tk->h->log.size());
      },
      &tick);
  for (uint64_t i = 0; i < 3; ++i) h.q.ScheduleHandler(1.0, h.kind_a, i);
  h.q.ScheduleHandler(2.0, h.kind_b, 9);
  h.q.RunUntil(3.0);
  EXPECT_EQ(tick.times, (std::vector<double>{1.0, 1.0, 1.0, 2.0}));
  EXPECT_EQ(tick.logged, (std::vector<size_t>{1, 2, 3, 4}));
}

TEST(EventQueueTest, ManyEventsStressOrder) {
  EventQueue q;
  double last = -1.0;
  int count = 0;
  // Deterministic pseudo-random times.
  uint64_t state = 12345;
  for (int i = 0; i < 10000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double t = static_cast<double>(state >> 40);
    q.Schedule(t, [&, t] {
      EXPECT_GE(t, last);
      last = t;
      ++count;
    });
  }
  while (q.RunNext()) {
  }
  EXPECT_EQ(count, 10000);
}

}  // namespace
}  // namespace vod
