// Calendar-queue self-tuning: the scan-cost monitor, the even-sample
// width estimator, large-population differential fuzz against the
// sorted-list oracle, and the memory the pooled bucket lists hold.
#include <gtest/gtest.h>

#include <cstdio>
#include <unordered_map>
#include <vector>

#include "des/distributions.hpp"
#include "des/event_queue.hpp"
#include "des/rng.hpp"
#include "des/sorted_list_queue.hpp"

namespace mobichk::des {
namespace {

EventEntry entry(Time t, u64 seq) {
  EventEntry e;
  e.time = t;
  e.seq = seq;
  return e;
}

TEST(CalendarTuning, ScanMonitorRetunesAMistunedWidth) {
  // Hold-and-pop with a small, constant population: no grow/shrink
  // resize ever fires, so the width stays at its initial 1.0 while the
  // events are spaced ~1e6 apart — every pop has to scan a whole year
  // and fall through to the jump-to-minimum path. The scan-cost monitor
  // must notice and force a re-tune, after which the width matches the
  // actual spacing and the scan rate collapses.
  CalendarQueue cal;
  SortedListQueue oracle;
  u64 seq = 0;
  Time t = 0.0;
  for (int i = 0; i < 8; ++i) {
    t += 1'000'000.0;
    cal.push(entry(t, seq));
    oracle.push(entry(t, seq));
    ++seq;
  }
  EXPECT_DOUBLE_EQ(cal.bucket_width(), 1.0);  // mistuned on purpose

  const int kOps = 3000;
  for (int i = 0; i < kOps; ++i) {
    const EventEntry got = cal.pop();
    const EventEntry want = oracle.pop();
    ASSERT_DOUBLE_EQ(got.time, want.time);
    ASSERT_EQ(got.seq, want.seq);
    t += 1'000'000.0;
    cal.push(entry(t, seq));
    oracle.push(entry(t, seq));
    ++seq;
  }
  EXPECT_GE(cal.retunes(), 1u);
  EXPECT_GT(cal.bucket_width(), 1.0);  // re-estimated from the real gaps
  // Post-tune steady state: near-constant scan cost. Measure a fresh
  // window and demand it stays close to one bucket per pop.
  const u64 scans_before = cal.scan_steps();
  for (int i = 0; i < 500; ++i) {
    cal.pop();
    t += 1'000'000.0;
    cal.push(entry(t, seq++));
  }
  const f64 per_pop = static_cast<f64>(cal.scan_steps() - scans_before) / 500.0;
  EXPECT_LT(per_pop, 4.0);
}

TEST(CalendarTuning, WidthEstimateIgnoresOutlierGap) {
  // A far-future straggler plus 99 events spaced 0.01 apart: the growth
  // resizes re-estimate the width with the 1e9 gap in the sample, and
  // the median-gap estimator must tune to the cluster spacing, not to
  // the mean (which the lone huge gap would dominate).
  CalendarQueue cal;
  u64 seq = 0;
  cal.push(entry(1e9, seq++));
  for (int i = 0; i < 99; ++i) cal.push(entry(static_cast<f64>(i) * 0.01, seq++));
  EXPECT_LT(cal.bucket_width(), 1.0);
  EXPECT_GT(cal.bucket_width(), 0.0);
  // Pop order is still exact.
  Time prev = -1.0;
  while (!cal.empty()) {
    const Time now = cal.pop().time;
    ASSERT_GE(now, prev);
    prev = now;
  }
}

TEST(CalendarTuning, SimultaneousEventsDoNotZeroTheWidth) {
  // All events at the same instant: every sampled gap is zero. The
  // estimator must fall back rather than set width = 0 (which would put
  // everything in one bucket forever / divide by zero).
  CalendarQueue cal;
  for (u64 s = 0; s < 200; ++s) cal.push(entry(5.0, s));
  EXPECT_GT(cal.bucket_width(), 0.0);
  for (u64 s = 0; s < 200; ++s) ASSERT_EQ(cal.pop().seq, s);  // seq breaks ties
}

TEST(CalendarTuning, LargePopulationFuzzMatchesSortedOracle) {
  // n ~ 1000 live events, mixed time scales (three decades of spacing),
  // random push/pop/cancel churn: the calendar must reproduce the
  // oracle's (time, seq) sequence exactly through every resize and
  // re-tune.
  CalendarQueue cal;
  SortedListQueue oracle;
  RngStream rng(99, "cal-fuzz");
  u64 seq = 0;
  Time now = 0.0;
  std::vector<std::pair<EventHandle, EventHandle>> live;

  auto push_one = [&] {
    // Bimodal horizon: mostly near-future, sometimes far.
    const f64 scale = rng.uniform01() < 0.8 ? 1.0 : 1000.0;
    const Time t = now + rng.uniform01() * scale;
    const EventHandle hc = cal.push(entry(t, seq));
    const EventHandle ho = oracle.push(entry(t, seq));
    live.push_back({hc, ho});
    ++seq;
  };

  for (int i = 0; i < 1000; ++i) push_one();
  for (int step = 0; step < 20'000; ++step) {
    const f64 r = rng.uniform01();
    if (r < 0.45 || cal.empty()) {
      push_one();
    } else if (r < 0.9) {
      const EventEntry got = cal.pop();
      const EventEntry want = oracle.pop();
      ASSERT_DOUBLE_EQ(got.time, want.time) << "step " << step;
      ASSERT_EQ(got.seq, want.seq) << "step " << step;
      now = got.time;
    } else if (!live.empty()) {
      const usize j = static_cast<usize>(rng.uniform01() * static_cast<f64>(live.size())) %
                      live.size();
      const bool a = cal.cancel(live[j].first);
      const bool b = oracle.cancel(live[j].second);
      ASSERT_EQ(a, b) << "step " << step;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(j));
    }
    ASSERT_EQ(cal.size(), oracle.size());
  }
  // Drain completely; sequences must agree to the last event.
  while (!cal.empty()) {
    const EventEntry got = cal.pop();
    const EventEntry want = oracle.pop();
    ASSERT_DOUBLE_EQ(got.time, want.time);
    ASSERT_EQ(got.seq, want.seq);
  }
  EXPECT_TRUE(oracle.empty());
}

/// An entry whose payload operands are all derived from `seq`, so a pop
/// that returns the right (time, seq) with another node's payload shows.
EventEntry tagged(Time t, u64 seq) {
  EventEntry e = entry(t, seq);
  e.payload.kind = static_cast<EventKind>(seq % kEventKindCount);
  e.payload.sub = static_cast<u8>(seq % 251);
  e.payload.flags = static_cast<u16>(seq % 65'521);
  e.payload.a = static_cast<u32>(seq * 2'654'435'761u);
  e.payload.b = seq ^ 0x9e37'79b9'7f4a'7c15u;
  e.payload.c = ~seq;
  return e;
}

::testing::AssertionResult same_entry(const EventEntry& got, const EventEntry& want) {
  const EventPayload& g = got.payload;
  const EventPayload& w = want.payload;
  if (got.time == want.time && got.seq == want.seq && g.target == w.target && g.kind == w.kind &&
      g.sub == w.sub && g.flags == w.flags && g.a == w.a && g.b == w.b && g.c == w.c) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "got (" << got.time << ", " << got.seq << ", a=" << g.a << ", b=" << g.b
         << ", c=" << g.c << ") want (" << want.time << ", " << want.seq << ", a=" << w.a
         << ", b=" << w.b << ", c=" << w.c << ")";
}

TEST(CalendarTuning, LinkedBucketFuzzMatchesSortedOracle) {
  // Differential fuzz aimed at the pooled bucket lists, in phases:
  // horizon probes (the sharded window probe) each followed by pushes
  // behind the probed cursor; cancel bursts that trip compaction; a
  // drain down to the minimum bucket count, then regrowth; and cancels
  // through stale handles whose slots now hold other events. Every pop
  // must return the oracle's whole entry, and the tombstone bound must
  // hold after every step.
  CalendarQueue cal;
  SortedListQueue oracle;
  RngStream rng(2024, "linked-fuzz");
  u64 seq = 0;
  Time now = 0.0;
  struct Tracked {
    u64 seq;
    EventHandle cal;
    EventHandle oracle;
  };
  std::vector<Tracked> live;
  std::unordered_map<u64, usize> live_at;  // seq -> index in live
  std::vector<Tracked> stale;              // fired or cancelled
  u64 reused_stale_cancels = 0;

  const auto push_at = [&](Time t) {
    const EventHandle hc = cal.push(tagged(t, seq));
    const EventHandle ho = oracle.push(tagged(t, seq));
    live_at[seq] = live.size();
    live.push_back({seq, hc, ho});
    ++seq;
  };
  const auto push_one = [&] {
    // Legs, local timers and far timers: three decades of spacing.
    const f64 r = rng.uniform01();
    const f64 scale = r < 0.6 ? 0.05 : (r < 0.9 ? 5.0 : 1000.0);
    push_at(now + rng.uniform01() * scale);
  };
  const auto retire = [&](u64 s) {
    const usize i = live_at.at(s);
    stale.push_back(live[i]);
    live[i] = live.back();
    live_at[live[i].seq] = i;
    live.pop_back();
    live_at.erase(s);
  };
  const auto pop_one = [&]() -> ::testing::AssertionResult {
    const EventEntry want = oracle.pop();
    const EventEntry got = cal.pop();
    now = want.time;
    retire(want.seq);
    return same_entry(got, want);
  };
  const auto cancel_one = [&]() -> ::testing::AssertionResult {
    const Tracked t = live[uniform_index(rng, live.size())];
    if (!cal.cancel(t.cal) || !oracle.cancel(t.oracle)) {
      return ::testing::AssertionFailure() << "cancel of live seq " << t.seq << " failed";
    }
    retire(t.seq);
    return ::testing::AssertionSuccess();
  };
  const auto cancel_stale = [&]() -> ::testing::AssertionResult {
    const Tracked t = stale[uniform_index(rng, stale.size())];
    for (const Tracked& l : live) {
      if (l.cal.slot == t.cal.slot) {
        ++reused_stale_cancels;
        break;
      }
    }
    if (cal.cancel(t.cal) || oracle.cancel(t.oracle)) {
      return ::testing::AssertionFailure() << "stale handle of seq " << t.seq << " cancelled";
    }
    return ::testing::AssertionSuccess();
  };
  const auto probe_then_push_behind = [&]() -> ::testing::AssertionResult {
    const Time bound = now + rng.uniform01() * 10.0;
    const Time got = cal.peek_time_below(bound);
    const Time want = oracle.peek_time_below(bound);
    if (got != want) {
      return ::testing::AssertionFailure() << "probe below " << bound << ": " << got
                                           << " != " << want;
    }
    // The probe parked the cursor on the minimum: events due before it
    // must pull the cursor back.
    if (!oracle.empty()) {
      const Time min = oracle.peek_time();
      for (u64 k = 1 + uniform_index(rng, 3); k > 0; --k) {
        push_at(now + rng.uniform01() * (min - now));
      }
    }
    return ::testing::AssertionSuccess();
  };
  const auto check = [&](const char* phase, int step) -> ::testing::AssertionResult {
    if (cal.size() != oracle.size() || cal.size() != live.size()) {
      return ::testing::AssertionFailure() << phase << " step " << step << ": size "
                                           << cal.size() << " vs oracle " << oracle.size();
    }
    if (cal.stored() > 2 * cal.size() + 64) {
      return ::testing::AssertionFailure() << phase << " step " << step << ": stored "
                                           << cal.stored() << " > 2 * " << cal.size() << " + 64";
    }
    return ::testing::AssertionSuccess();
  };
  // One random step of the general mix.
  const auto mixed = [&](f64 push_share) -> ::testing::AssertionResult {
    const f64 r = rng.uniform01();
    if (r < push_share || live.empty()) {
      push_one();
      return ::testing::AssertionSuccess();
    }
    if (r < push_share + 0.2) return pop_one();
    if (r < push_share + 0.3) return probe_then_push_behind();
    if (r < push_share + 0.4) return cancel_one();
    if (!stale.empty()) return cancel_stale();
    return ::testing::AssertionSuccess();
  };

  // Phase 1: grow to a few thousand events under the full mix.
  for (int step = 0; step < 12'000; ++step) {
    ASSERT_TRUE(mixed(0.5)) << "grow step " << step;
    ASSERT_TRUE(check("grow", step));
  }
  const usize grown_buckets = cal.bucket_count();
  EXPECT_GE(grown_buckets, 512u);

  // Phase 2: cancel bursts big enough to trip compaction, each followed
  // by steady churn.
  for (int burst = 0; burst < 4; ++burst) {
    const u64 before = cal.compactions();
    for (usize n = live.size() / 2 + 40; n > 0 && !live.empty(); --n) {
      ASSERT_TRUE(cancel_one()) << "burst " << burst;
      ASSERT_TRUE(check("burst", burst));
    }
    EXPECT_GT(cal.compactions(), before) << "burst " << burst;
    for (int step = 0; step < 2'000; ++step) {
      ASSERT_TRUE(mixed(0.45)) << "churn step " << step;
      ASSERT_TRUE(check("churn", step));
    }
  }

  // Phase 3: drain to empty; the calendar shrinks to its two-bucket floor.
  for (int step = 0; !live.empty(); ++step) {
    const f64 r = rng.uniform01();
    if (r < 0.1) {
      ASSERT_TRUE(probe_then_push_behind()) << "drain step " << step;
    } else if (r < 0.15) {
      ASSERT_TRUE(cancel_one()) << "drain step " << step;
    } else if (r < 0.2) {
      ASSERT_TRUE(cancel_stale()) << "drain step " << step;
    } else {
      ASSERT_TRUE(pop_one()) << "drain step " << step;
    }
    ASSERT_TRUE(check("drain", step));
  }
  EXPECT_TRUE(cal.empty());
  EXPECT_EQ(cal.bucket_count(), 2u);
  EXPECT_EQ(cal.peek_time_below(now + 1e9), kNoEventBelow);

  // Phase 4: regrow from the floor under the full mix, then drain.
  for (int step = 0; step < 8'000; ++step) {
    ASSERT_TRUE(mixed(0.55)) << "regrow step " << step;
    ASSERT_TRUE(check("regrow", step));
  }
  EXPECT_GE(cal.bucket_count(), grown_buckets / 2);
  for (int step = 0; !live.empty(); ++step) {
    ASSERT_TRUE(pop_one()) << "final drain step " << step;
    ASSERT_TRUE(check("final drain", step));
  }
  EXPECT_TRUE(oracle.empty());
  // Popped and cancelled slots were reused by later pushes, so many of
  // the stale cancels aimed at a slot that held a live event.
  EXPECT_GT(reused_stale_cancels, 100u);
}

TEST(CalendarTuning, HeldBytesTrackPendingNotBucketHistory) {
  // One hold model on both queues: 20,000 pending events, and every pop
  // reschedules one event -- 70% a message leg 0.01-0.03 ahead, 30% a
  // timer U(0, 1000) ahead. The bucket a burst of legs lands in moves
  // with the clock, so over the run every bucket is crowded at some
  // point. Buckets that kept their own high-water capacity held ~6x the
  // heap's bytes here; pooled nodes hold the same entries as the heap
  // plus 4 bytes per bucket.
  constexpr usize kPending = 20'000;
  constexpr int kSteps = 1'000'000;
  const auto hold = [](auto& q) {
    RngStream rng(7, "held-bytes");
    const auto delay = [&rng] {
      return rng.uniform01() < 0.7 ? 0.01 + 0.02 * rng.uniform01() : 1000.0 * rng.uniform01();
    };
    u64 seq = 0;
    for (usize i = 0; i < kPending; ++i) q.push(entry(delay(), seq++));
    for (int i = 0; i < kSteps; ++i) {
      const Time now = q.pop().time;
      q.push(entry(now + delay(), seq++));
    }
    EXPECT_EQ(q.size(), usize{kPending});
    return q.held_bytes();
  };
  CalendarQueue cal;
  BinaryHeapQueue heap;
  const usize cal_bytes = hold(cal);
  const usize heap_bytes = hold(heap);
  std::printf("held bytes: calendar %zu, binary heap %zu (%.2fx)\n", cal_bytes, heap_bytes,
              static_cast<f64>(cal_bytes) / static_cast<f64>(heap_bytes));
  EXPECT_LE(2 * cal_bytes, 3 * heap_bytes)
      << "calendar holds " << cal_bytes << " B against the heap's " << heap_bytes << " B";
}

TEST(CalendarTuning, TinyPopulationsStayCorrect) {
  // n in {1, 2}: the estimator's small-sample edges (0 or 1 gaps).
  for (const int n : {1, 2}) {
    CalendarQueue cal;
    for (int i = 0; i < n; ++i) cal.push(entry(static_cast<f64>(i) * 7.5, static_cast<u64>(i)));
    for (int i = 0; i < n; ++i) EXPECT_EQ(cal.pop().seq, static_cast<u64>(i));
    EXPECT_TRUE(cal.empty());
    EXPECT_GT(cal.bucket_width(), 0.0);
  }
}

}  // namespace
}  // namespace mobichk::des
