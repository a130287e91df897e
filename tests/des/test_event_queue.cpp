#include "des/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "des/distributions.hpp"
#include "des/rng.hpp"

namespace mobichk::des {
namespace {

/// Bare (time, seq) entry.
EventEntry ev(Time t, u64 seq) {
  EventEntry e;
  e.time = t;
  e.seq = seq;
  return e;
}

class EventQueueTest : public ::testing::TestWithParam<QueueKind> {
 protected:
  std::unique_ptr<EventQueue> make() { return make_event_queue(GetParam()); }
};

TEST_P(EventQueueTest, EmptyInitially) {
  auto q = make();
  EXPECT_TRUE(q->empty());
  EXPECT_EQ(q->size(), 0u);
}

TEST_P(EventQueueTest, PopsInTimeOrder) {
  auto q = make();
  q->push(ev(3.0, 1));
  q->push(ev(1.0, 2));
  q->push(ev(2.0, 3));
  EXPECT_EQ(q->pop().time, 1.0);
  EXPECT_EQ(q->pop().time, 2.0);
  EXPECT_EQ(q->pop().time, 3.0);
  EXPECT_TRUE(q->empty());
}

TEST_P(EventQueueTest, BreaksTimeTiesBySequence) {
  auto q = make();
  q->push(ev(5.0, 30));
  q->push(ev(5.0, 10));
  q->push(ev(5.0, 20));
  EXPECT_EQ(q->pop().seq, 10u);
  EXPECT_EQ(q->pop().seq, 20u);
  EXPECT_EQ(q->pop().seq, 30u);
}

TEST_P(EventQueueTest, PeekTimeDoesNotRemove) {
  auto q = make();
  q->push(ev(2.0, 1));
  q->push(ev(1.0, 2));
  EXPECT_DOUBLE_EQ(q->peek_time_below(kNoEventBelow), 1.0);
  EXPECT_EQ(q->size(), 2u);
  EXPECT_DOUBLE_EQ(q->peek_time_below(kNoEventBelow), 1.0);  // idempotent
  EXPECT_EQ(q->pop().seq, 2u);
  EXPECT_DOUBLE_EQ(q->peek_time_below(kNoEventBelow), 2.0);
}

TEST_P(EventQueueTest, PeekThenEarlierPushStaysOrdered) {
  // A peek advances internal cursors (calendar queue); a subsequent push
  // of an *earlier* event must still pop first.
  auto q = make();
  q->push(ev(10.0, 1));
  EXPECT_DOUBLE_EQ(q->peek_time_below(kNoEventBelow), 10.0);
  q->push(ev(2.0, 2));
  EXPECT_DOUBLE_EQ(q->peek_time_below(kNoEventBelow), 2.0);
  EXPECT_EQ(q->pop().seq, 2u);
  EXPECT_EQ(q->pop().seq, 1u);
}

TEST_P(EventQueueTest, InterleavedPushPop) {
  auto q = make();
  u64 seq = 1;
  q->push(ev(10.0, seq++));
  q->push(ev(20.0, seq++));
  EXPECT_EQ(q->pop().time, 10.0);
  q->push(ev(15.0, seq++));
  q->push(ev(12.0, seq++));
  EXPECT_EQ(q->pop().time, 12.0);
  EXPECT_EQ(q->pop().time, 15.0);
  q->push(ev(25.0, seq++));
  EXPECT_EQ(q->pop().time, 20.0);
  EXPECT_EQ(q->pop().time, 25.0);
  EXPECT_TRUE(q->empty());
}

TEST_P(EventQueueTest, HandlesManyEventsAcrossScales) {
  // Time scales spanning several orders of magnitude exercise the
  // calendar queue's resizing and year-jumping logic.
  auto q = make();
  RngStream rng(42, "queue-test");
  std::vector<f64> times;
  f64 t = 0.0;
  for (u64 i = 0; i < 5000; ++i) {
    t += rng.uniform01() * ((i % 100 == 0) ? 1000.0 : 1.0);
    times.push_back(t);
  }
  // Insert in shuffled order.
  std::vector<usize> order(times.size());
  for (usize i = 0; i < order.size(); ++i) order[i] = i;
  for (usize i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[uniform_index(rng, i)]);
  }
  // Monotone-nondecreasing insertion constraint of the calendar queue is
  // satisfied because nothing has been popped yet (last_popped = 0).
  u64 seq = 1;
  for (const usize i : order) q->push(ev(times[i], seq++));
  std::sort(times.begin(), times.end());
  for (const f64 expect : times) {
    ASSERT_FALSE(q->empty());
    EXPECT_DOUBLE_EQ(q->pop().time, expect);
  }
  EXPECT_TRUE(q->empty());
}

TEST_P(EventQueueTest, SteadyStateHoldAndPop) {
  // Classic hold-model workload: pop one, push one slightly later.
  auto q = make();
  RngStream rng(7, "hold");
  u64 seq = 1;
  for (int i = 0; i < 64; ++i) q->push(ev(rng.uniform01() * 10.0, seq++));
  f64 last = 0.0;
  for (int i = 0; i < 20000; ++i) {
    EventEntry e = q->pop();
    EXPECT_GE(e.time, last);
    last = e.time;
    q->push(ev(last + rng.uniform01() * 10.0, seq++));
  }
  EXPECT_EQ(q->size(), 64u);
}

TEST_P(EventQueueTest, PeekTimeBelowEmptyQueueAndStrictBound) {
  auto q = make();
  // The probe is defined on an empty queue.
  EXPECT_EQ(q->peek_time_below(100.0), kNoEventBelow);
  q->push(ev(5.0, 1));
  EXPECT_DOUBLE_EQ(q->peek_time_below(10.0), 5.0);
  EXPECT_EQ(q->peek_time_below(5.0), kNoEventBelow);  // bound is strict
  EXPECT_EQ(q->peek_time_below(1.0), kNoEventBelow);
  EXPECT_EQ(q->size(), 1u);  // non-destructive
  EXPECT_EQ(q->pop().seq, 1u);
}

TEST_P(EventQueueTest, PeekTimeBelowThenEarlierPushStaysOrdered) {
  // The probe may advance internal cursors (calendar queue); an earlier
  // push afterwards must still surface first, in probe and pop order.
  auto q = make();
  q->push(ev(10.0, 1));
  EXPECT_EQ(q->peek_time_below(5.0), kNoEventBelow);
  q->push(ev(2.0, 2));
  EXPECT_DOUBLE_EQ(q->peek_time_below(5.0), 2.0);
  EXPECT_EQ(q->pop().seq, 2u);
  EXPECT_EQ(q->pop().seq, 1u);
}

TEST_P(EventQueueTest, PeekTimeBelowRandomizedAgainstLiveMinimum) {
  // Fuzz the probe against the ground truth: after every push or pop, the
  // probe at a random bound must agree with the true pending minimum.
  auto q = make();
  RngStream rng(7, "peek-below");
  std::vector<f64> pending;
  u64 seq = 1;
  f64 now = 0.0;
  for (int round = 0; round < 4000; ++round) {
    if (rng.uniform01() < 0.6 || pending.empty()) {
      const f64 t = now + rng.uniform01() * 30.0;
      q->push(ev(t, seq++));
      pending.push_back(t);
    } else {
      const EventEntry e = q->pop();
      now = e.time;
      const auto it = std::find(pending.begin(), pending.end(), e.time);
      ASSERT_NE(it, pending.end());
      pending.erase(it);
    }
    f64 truth = kNoEventBelow;
    for (const f64 t : pending) truth = std::min(truth, t);
    const f64 bound = now + rng.uniform01() * 40.0;
    const f64 expect = truth < bound ? truth : kNoEventBelow;
    ASSERT_EQ(q->peek_time_below(bound), expect) << q->name() << " round " << round;
    ASSERT_EQ(q->size(), pending.size()) << q->name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueues, EventQueueTest,
                         ::testing::ValuesIn(kAllQueueKinds),
                         [](const ::testing::TestParamInfo<QueueKind>& pi) {
                           switch (pi.param) {
                             case QueueKind::kBinaryHeap: return "BinaryHeap";
                             case QueueKind::kCalendar: return "Calendar";
                             case QueueKind::kSortedList: return "SortedList";
                           }
                           return "Unknown";
                         });

TEST(QueueEquivalence, IdenticalPopSequences) {
  auto heap = make_event_queue(QueueKind::kBinaryHeap);
  auto cal = make_event_queue(QueueKind::kCalendar);
  RngStream rng(11, "equiv");
  u64 seq = 1;
  f64 now = 0.0;
  for (int round = 0; round < 5000; ++round) {
    if (rng.uniform01() < 0.6 || heap->empty()) {
      const f64 t = now + rng.uniform01() * 50.0;
      heap->push(ev(t, seq));
      cal->push(ev(t, seq));
      ++seq;
    } else {
      const EventEntry a = heap->pop();
      const EventEntry b = cal->pop();
      EXPECT_DOUBLE_EQ(a.time, b.time);
      EXPECT_EQ(a.seq, b.seq);
      now = a.time;
    }
  }
  while (!heap->empty()) {
    ASSERT_FALSE(cal->empty());
    const EventEntry a = heap->pop();
    const EventEntry b = cal->pop();
    EXPECT_DOUBLE_EQ(a.time, b.time);
    EXPECT_EQ(a.seq, b.seq);
  }
  EXPECT_TRUE(cal->empty());
}

TEST(QueueEquivalence, FuzzedSchedulePopProbeAcrossAllKinds) {
  // Differential fuzz against the sorted-list oracle: every queue kind
  // sees the same schedule / pop / horizon-probe stream and must agree
  // on size, emptiness, probe results and exact pop order.
  std::vector<std::unique_ptr<EventQueue>> queues;
  for (const QueueKind kind : kAllQueueKinds) queues.push_back(make_event_queue(kind));
  RngStream rng(23, "fuzz");
  u64 seq = 1;
  usize pending = 0;
  f64 now = 0.0;
  for (int round = 0; round < 20000; ++round) {
    const f64 dice = rng.uniform01();
    if (dice < 0.55 || pending == 0) {
      const f64 t = now + rng.uniform01() * 40.0;
      for (auto& q : queues) q->push(ev(t, seq));
      ++pending;
      ++seq;
    } else if (dice < 0.85) {
      const EventEntry a = queues[0]->pop();
      for (usize k = 1; k < queues.size(); ++k) {
        const EventEntry b = queues[k]->pop();
        ASSERT_DOUBLE_EQ(a.time, b.time) << queues[k]->name();
        ASSERT_EQ(a.seq, b.seq) << queues[k]->name();
      }
      now = a.time;
      --pending;
    } else {
      const Time bound = now + rng.uniform01() * 20.0;
      const Time want = queues[0]->peek_time_below(bound);
      for (usize k = 1; k < queues.size(); ++k) {
        ASSERT_EQ(queues[k]->peek_time_below(bound), want) << queues[k]->name();
      }
    }
    for (auto& q : queues) {
      ASSERT_EQ(q->size(), pending) << q->name();
      ASSERT_EQ(q->empty(), pending == 0) << q->name();
    }
  }
  // Drain: every queue must agree to the last event.
  while (!queues[0]->empty()) {
    const EventEntry a = queues[0]->pop();
    for (usize k = 1; k < queues.size(); ++k) {
      ASSERT_FALSE(queues[k]->empty()) << queues[k]->name();
      const EventEntry b = queues[k]->pop();
      ASSERT_EQ(a.seq, b.seq) << queues[k]->name();
    }
  }
  for (auto& q : queues) EXPECT_TRUE(q->empty()) << q->name();
}

TEST(QueueFactory, NamesAreDistinctAndMatchKindNames) {
  for (const QueueKind kind : kAllQueueKinds) {
    EXPECT_STREQ(make_event_queue(kind)->name(), queue_kind_name(kind));
  }
  EXPECT_STREQ(make_event_queue(QueueKind::kBinaryHeap)->name(), "binary-heap");
  EXPECT_STREQ(make_event_queue(QueueKind::kCalendar)->name(), "calendar");
  EXPECT_STREQ(make_event_queue(QueueKind::kSortedList)->name(), "sorted-list");
}

}  // namespace
}  // namespace mobichk::des
