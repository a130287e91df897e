#include "des/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

namespace mobichk::des {
namespace {

/// Test target: records every dispatched payload with the clock at
/// dispatch, then runs the test's optional reaction (reschedule, cancel).
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

TEST_P(SimulatorTest, CancelPreventsExecution) {
  Simulator sim(GetParam());
  Recorder rec(sim);
  EventHandle h = sim.schedule_at(1.0, rec.ev(1));
  sim.schedule_at(2.0, rec.ev(2));
  sim.cancel(h);
  sim.run();
  EXPECT_EQ(rec.ids(), (std::vector<u32>{2}));
}

TEST_P(SimulatorTest, CancelFromWithinEvent) {
  Simulator sim(GetParam());
  Recorder rec(sim);
  EventHandle victim = sim.schedule_at(2.0, rec.ev(2));
  rec.react = [&](const EventPayload& p) {
    if (p.a == 1) sim.cancel(victim);
  };
  sim.schedule_at(1.0, rec.ev(1));
  sim.run();
  EXPECT_EQ(rec.ids(), (std::vector<u32>{1}));
}

TEST_P(SimulatorTest, ThrowsOnSchedulingInThePast) {
  Simulator sim(GetParam());
  Recorder rec(sim);
  sim.schedule_at(10.0, rec.ev(1));
  sim.run();
  EXPECT_THROW(sim.schedule_at(5.0, rec.ev(2)), std::invalid_argument);
}

TEST_P(SimulatorTest, InvalidHandleIsNoop) {
  Simulator sim(GetParam());
  Recorder rec(sim);
  EventHandle h;
  EXPECT_FALSE(h.valid());
  sim.cancel(h);  // must not crash
  sim.schedule_at(1.0, rec.ev(1));
  sim.run();
  EXPECT_EQ(rec.hits.size(), 1u);
}

TEST_P(SimulatorTest, CountsExecutedEvents) {
  Simulator sim(GetParam());
  Recorder rec(sim);
  for (u32 i = 0; i < 37; ++i) sim.schedule_at(static_cast<Time>(i), rec.ev(i));
  sim.run();
  EXPECT_EQ(sim.events_executed(), 37u);
}

TEST_P(SimulatorTest, CancelOfFiredHandleCannotTruncateTheRun) {
  // Regression for the event-queue lifetime bug: cancelling a handle
  // whose event already fired corrupted the live count, so empty()
  // reported true while real events remained and run()/run_until()
  // silently dropped the tail of the simulation.
  Simulator sim(GetParam());
  Recorder rec(sim);
  EventHandle h = sim.schedule_at(1.0, rec.ev(1));
  sim.schedule_at(2.0, rec.ev(2));
  sim.schedule_at(3.0, rec.ev(3));
  EXPECT_EQ(sim.run_until(1.5), 1u);
  ASSERT_EQ(rec.hits.size(), 1u);
  sim.cancel(h);  // h already fired: must be a no-op
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_EQ(sim.run_until(2.5), 1u);
  EXPECT_EQ(rec.hits.size(), 2u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(rec.hits.size(), 3u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_TRUE(sim.invariants_ok());
}

TEST_P(SimulatorTest, RepeatedCancelOfFiredHandleIsStable) {
  Simulator sim(GetParam());
  Recorder rec(sim);
  EventHandle h = sim.schedule_at(1.0, rec.ev(1));
  for (u32 i = 2; i <= 10; ++i) sim.schedule_at(static_cast<Time>(i), rec.ev(i));
  sim.run_until(1.0);
  for (int i = 0; i < 5; ++i) sim.cancel(h);
  EXPECT_EQ(sim.pending(), 9u);
  sim.run();
  EXPECT_EQ(rec.hits.size(), 10u);
  EXPECT_EQ(sim.invariants().cancels_requested, 5u);
  EXPECT_EQ(sim.invariants().cancels_effective, 0u);
  EXPECT_EQ(sim.invariants().cancels_noop(), 5u);
  EXPECT_TRUE(sim.invariants_ok());
}

TEST_P(SimulatorTest, InvariantLedgerReconciles) {
  Simulator sim(GetParam());
  Recorder rec(sim);
  std::vector<EventHandle> handles;
  for (u32 i = 1; i <= 20; ++i) {
    handles.push_back(sim.schedule_at(static_cast<Time>(i), rec.ev(i)));
  }
  sim.cancel(handles[4]);
  sim.cancel(handles[4]);  // double cancel: one effective, two requested
  sim.cancel(handles[9]);
  sim.cancel(EventHandle{});  // invalid handle: not even counted
  sim.run_until(12.0);
  const SimInvariants& inv = sim.invariants();
  EXPECT_EQ(inv.scheduled, 20u);
  EXPECT_EQ(inv.cancels_requested, 3u);
  EXPECT_EQ(inv.cancels_effective, 2u);
  EXPECT_EQ(inv.executed, 10u);  // events at t=1..12 minus the two cancelled
  EXPECT_EQ(inv.time_regressions, 0u);
  EXPECT_EQ(inv.max_pending, 20u);
  EXPECT_TRUE(inv.consistent(sim.pending()));
  EXPECT_TRUE(sim.invariants_ok());
  sim.run();
  EXPECT_EQ(rec.hits.size(), 18u);
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

TEST_P(SimulatorTest, TypedEventsCancelByHandle) {
  Simulator sim(GetParam());
  Recorder rec(sim);
  const EventHandle h = sim.schedule_at(1.0, rec.ev(8, EventKind::kCheckpointTransfer));
  sim.schedule_at(2.0, rec.ev(9, EventKind::kCheckpointTransfer, 1));
  sim.cancel(h);
  sim.run();
  ASSERT_EQ(rec.hits.size(), 1u);
  EXPECT_EQ(rec.hits[0].a, 9u);
  EXPECT_EQ(sim.invariants().cancels_effective, 1u);
  EXPECT_TRUE(sim.invariants_ok());
}

TEST_P(SimulatorTest, RunUntilHorizonPeekKeepsHandlesLive) {
  // Regression guard for the peek path: an event beyond the horizon is
  // only peeked, never popped-and-repushed, so its handle must stay
  // cancellable after run_until returns.
  Simulator sim(GetParam());
  Recorder rec(sim);
  const EventHandle h = sim.schedule_at(10.0, rec.ev(10));
  sim.schedule_at(1.0, rec.ev(1));
  EXPECT_EQ(sim.run_until(5.0), 1u);
  sim.cancel(h);  // must still refer to the t=10 event
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(rec.hits.size(), 1u);
  EXPECT_EQ(sim.invariants().cancels_effective, 1u);
  EXPECT_TRUE(sim.invariants_ok());
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
