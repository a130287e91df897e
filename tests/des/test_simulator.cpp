#include "des/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

namespace mobichk::des {
namespace {

/// Test target: records every dispatched payload with the clock at
/// dispatch, then runs the test's optional reaction (e.g. a reschedule).
struct Recorder final : EventTarget {
  struct Hit {
    Time at;
    EventKind kind;
    u8 sub;
    u32 a;
    u64 b;
    u64 c;
  };

  explicit Recorder(Simulator& s) : sim(s) {}

  Simulator& sim;
  std::vector<Hit> hits;
  std::function<void(const EventPayload&)> react;

  void on_event(const EventPayload& p) override {
    hits.push_back(Hit{sim.now(), p.kind, p.sub, p.a, p.b, p.c});
    if (react) react(p);
  }

  /// A payload addressed to this recorder, tagged with `id` in operand a.
  EventPayload ev(u32 id, EventKind kind = EventKind::kWorkloadOp, u8 sub = 0, u64 b = 0,
                  u64 c = 0) {
    EventPayload p;
    p.target = this;
    p.kind = kind;
    p.sub = sub;
    p.a = id;
    p.b = b;
    p.c = c;
    return p;
  }

  /// The ids dispatched so far, in dispatch order.
  std::vector<u32> ids() const {
    std::vector<u32> out;
    for (const Hit& h : hits) out.push_back(h.a);
    return out;
  }
};

class SimulatorTest : public ::testing::TestWithParam<QueueKind> {};

TEST_P(SimulatorTest, StartsAtZero) {
  Simulator sim(GetParam());
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST_P(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim(GetParam());
  Recorder rec(sim);
  sim.schedule_at(3.0, rec.ev(3));
  sim.schedule_at(1.0, rec.ev(1));
  sim.schedule_at(2.0, rec.ev(2));
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(rec.ids(), (std::vector<u32>{1, 2, 3}));
}

TEST_P(SimulatorTest, SimultaneousEventsRunInScheduleOrder) {
  Simulator sim(GetParam());
  Recorder rec(sim);
  sim.schedule_at(5.0, rec.ev(1));
  sim.schedule_at(5.0, rec.ev(2));
  sim.schedule_at(5.0, rec.ev(3));
  sim.run();
  EXPECT_EQ(rec.ids(), (std::vector<u32>{1, 2, 3}));
}

TEST_P(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim(GetParam());
  Recorder rec(sim);
  sim.schedule_at(7.5, rec.ev(1));
  sim.run();
  ASSERT_EQ(rec.hits.size(), 1u);
  EXPECT_DOUBLE_EQ(rec.hits[0].at, 7.5);
  EXPECT_DOUBLE_EQ(sim.now(), 7.5);
}

TEST_P(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim(GetParam());
  Recorder rec(sim);
  rec.react = [&](const EventPayload& p) {
    if (p.a == 1) sim.schedule_after(2.5, rec.ev(2));
  };
  sim.schedule_at(10.0, rec.ev(1));
  sim.run();
  ASSERT_EQ(rec.hits.size(), 2u);
  EXPECT_DOUBLE_EQ(rec.hits[1].at, 12.5);
}

TEST_P(SimulatorTest, EventsCanScheduleChains) {
  Simulator sim(GetParam());
  Recorder rec(sim);
  rec.react = [&](const EventPayload& p) {
    if (rec.hits.size() < 100) sim.schedule_after(1.0, p);
  };
  sim.schedule_at(0.0, rec.ev(0));
  sim.run();
  EXPECT_EQ(rec.hits.size(), 100u);
  EXPECT_DOUBLE_EQ(sim.now(), 99.0);
}

TEST_P(SimulatorTest, RunUntilStopsAtHorizon) {
  Simulator sim(GetParam());
  Recorder rec(sim);
  for (u32 i = 1; i <= 10; ++i) sim.schedule_at(static_cast<Time>(i), rec.ev(i));
  EXPECT_EQ(sim.run_until(5.0), 5u);
  EXPECT_EQ(rec.hits.size(), 5u);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending(), 5u);
  EXPECT_EQ(sim.run_until(100.0), 5u);
  EXPECT_EQ(rec.hits.size(), 10u);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST_P(SimulatorTest, RunUntilIncludesEventsAtHorizon) {
  Simulator sim(GetParam());
  Recorder rec(sim);
  sim.schedule_at(5.0, rec.ev(1));
  sim.run_until(5.0);
  EXPECT_EQ(rec.hits.size(), 1u);
}

TEST_P(SimulatorTest, ThrowsOnSchedulingInThePast) {
  Simulator sim(GetParam());
  Recorder rec(sim);
  sim.schedule_at(10.0, rec.ev(1));
  sim.run();
  EXPECT_THROW(sim.schedule_at(5.0, rec.ev(2)), std::invalid_argument);
}

TEST_P(SimulatorTest, CountsExecutedEvents) {
  Simulator sim(GetParam());
  Recorder rec(sim);
  for (u32 i = 0; i < 37; ++i) sim.schedule_at(static_cast<Time>(i), rec.ev(i));
  sim.run();
  EXPECT_EQ(sim.events_executed(), 37u);
}

TEST_P(SimulatorTest, InvariantLedgerReconciles) {
  // scheduled == executed + pending, mid-run and at the end, with events
  // scheduled from inside handlers as well as up front.
  Simulator sim(GetParam());
  Recorder rec(sim);
  rec.react = [&](const EventPayload& p) {
    if (p.a <= 20 && p.a % 4 == 0) sim.schedule_after(0.5, rec.ev(100 + p.a));
  };
  for (u32 i = 1; i <= 20; ++i) sim.schedule_at(static_cast<Time>(i), rec.ev(i));
  sim.run_until(12.0);
  const SimInvariants& inv = sim.invariants();
  EXPECT_EQ(inv.scheduled, 23u);  // 20 up front, 3 from the events at t=4, 8, 12
  EXPECT_EQ(inv.executed, 14u);   // t=1..12 plus the ones at 4.5 and 8.5
  EXPECT_EQ(sim.pending(), 9u);   // t=12.5 and 13..20
  EXPECT_EQ(inv.scheduled, inv.executed + sim.pending());
  EXPECT_EQ(inv.time_regressions, 0u);
  EXPECT_EQ(inv.max_pending, 20u);
  EXPECT_TRUE(inv.consistent(sim.pending()));
  EXPECT_TRUE(sim.invariants_ok());
  sim.run();
  EXPECT_EQ(rec.hits.size(), 25u);
  EXPECT_EQ(sim.invariants().scheduled, sim.invariants().executed);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_TRUE(sim.invariants_ok());
}

TEST_P(SimulatorTest, TypedEventsDispatchWithOperandsIntact) {
  Simulator sim(GetParam());
  Recorder rec(sim);
  sim.schedule_at(2.0, rec.ev(42, EventKind::kMessageHop, 1, 7, 99));
  sim.schedule_at(1.0, rec.ev(3, EventKind::kHandoff));
  sim.schedule_after(3.0, rec.ev(5, EventKind::kWorkloadOp, 2, 11, 13));
  EXPECT_EQ(sim.run(), 3u);
  ASSERT_EQ(rec.hits.size(), 3u);
  EXPECT_DOUBLE_EQ(rec.hits[0].at, 1.0);
  EXPECT_EQ(rec.hits[0].kind, EventKind::kHandoff);
  EXPECT_EQ(rec.hits[0].a, 3u);
  EXPECT_DOUBLE_EQ(rec.hits[1].at, 2.0);
  EXPECT_EQ(rec.hits[1].kind, EventKind::kMessageHop);
  EXPECT_EQ(rec.hits[1].sub, 1);
  EXPECT_EQ(rec.hits[1].a, 42u);
  EXPECT_EQ(rec.hits[1].b, 7u);
  EXPECT_EQ(rec.hits[1].c, 99u);
  EXPECT_DOUBLE_EQ(rec.hits[2].at, 3.0);
  EXPECT_EQ(rec.hits[2].kind, EventKind::kWorkloadOp);
  EXPECT_TRUE(sim.invariants_ok());
}

TEST_P(SimulatorTest, EventsOfTwoTargetsInterleaveInScheduleOrder) {
  // Ties at the same instant fire in scheduling order whichever target
  // they are addressed to: dispatch never reorders (time, seq).
  Simulator sim(GetParam());
  Recorder first(sim);
  Recorder second(sim);
  std::vector<u32> order;
  first.react = second.react = [&](const EventPayload& p) { order.push_back(p.a); };
  sim.schedule_at(5.0, first.ev(1));
  sim.schedule_at(5.0, second.ev(2, EventKind::kConnectivity));
  sim.schedule_at(5.0, first.ev(3));
  sim.schedule_at(5.0, second.ev(4, EventKind::kConnectivity));
  sim.run();
  EXPECT_EQ(order, (std::vector<u32>{1, 2, 3, 4}));
  EXPECT_EQ(first.ids(), (std::vector<u32>{1, 3}));
  EXPECT_EQ(second.ids(), (std::vector<u32>{2, 4}));
}

INSTANTIATE_TEST_SUITE_P(AllQueues, SimulatorTest,
                         ::testing::ValuesIn(kAllQueueKinds),
                         [](const ::testing::TestParamInfo<QueueKind>& pi) {
                           switch (pi.param) {
                             case QueueKind::kBinaryHeap: return "BinaryHeap";
                             case QueueKind::kCalendar: return "Calendar";
                             case QueueKind::kSortedList: return "SortedList";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace mobichk::des
