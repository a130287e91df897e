// Observability layer tests: metric registry semantics, the
// branch-on-null zero-cost contract (no allocations, bit-identical trace
// hashes across every queue kind), checkpoint-timeline content against
// the per-protocol counters, and both exporters — including a golden
// Chrome-trace file for a tiny deterministic run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <locale>
#include <map>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "des/event.hpp"
#include "des/rng.hpp"
#include "mobichk.hpp"

namespace {

std::atomic<unsigned long long> g_allocs{0};

}  // namespace

// Count every heap allocation in the process; the zero-cost tests
// difference this counter around their measured regions. GCC flags the
// malloc-backed replacement pair as mismatched; the pairing is intended.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace mobichk {
namespace {

unsigned long long allocs_now() { return g_allocs.load(std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// MetricRegistry semantics
// ---------------------------------------------------------------------------

TEST(Metrics, CounterGaugeBasics) {
  obs::MetricRegistry reg;
  obs::Counter& c = reg.counter("a.count");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  obs::Gauge& g = reg.gauge("a.gauge");
  g.set(2.5);
  g.max_of(1.0);  // smaller: ignored
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.max_of(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(Metrics, RegistrationIsIdempotentByName) {
  obs::MetricRegistry reg;
  obs::Counter& c1 = reg.counter("x");
  obs::Counter& c2 = reg.counter("x");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(reg.size(), 1u);
  obs::FixedHistogram& h1 = reg.histogram("h", 0.0, 10.0, 5);
  obs::FixedHistogram& h2 = reg.histogram("h", 0.0, 10.0, 5);
  EXPECT_EQ(&h1, &h2);
}

TEST(Metrics, KindAndShapeMismatchesThrow) {
  obs::MetricRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("x", 0.0, 1.0, 2), std::invalid_argument);
  reg.histogram("h", 0.0, 10.0, 5);
  EXPECT_THROW(reg.histogram("h", 0.0, 10.0, 6), std::invalid_argument);
  EXPECT_THROW(reg.histogram("h", 0.0, 20.0, 5), std::invalid_argument);
}

TEST(Metrics, FindDoesNotRegister) {
  obs::MetricRegistry reg;
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  reg.counter("c");
  EXPECT_NE(reg.find_counter("c"), nullptr);
  EXPECT_EQ(reg.find_gauge("c"), nullptr);  // wrong kind
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Metrics, HistogramBucketsAndQuantiles) {
  obs::FixedHistogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(static_cast<f64>(i) + 0.5);
  h.add(-1.0);  // underflow
  h.add(99.0);  // overflow
  EXPECT_EQ(h.count(), 12u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), -1.0);
  EXPECT_DOUBLE_EQ(h.max(), 99.0);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(3), 4.0);
  // Median of a uniform fill sits near the middle of the range.
  EXPECT_NEAR(h.quantile(0.5), 5.0, 1.0);
  EXPECT_LE(h.quantile(0.0), h.quantile(1.0));
}

TEST(Metrics, BatchAddOfIntegersMatchesOneAddPerValue) {
  // Three batches of integer values, several at or above hi: the batch
  // path must leave every field where one add() per value leaves it.
  obs::FixedHistogram one(0.0, 8.0, 8);
  obs::FixedHistogram batch(0.0, 8.0, 8);
  const std::vector<std::vector<u64>> samples = {{3, 0, 9, 3, 7}, {12, 1, 1}, {0, 8, 5, 5, 2, 40}};
  for (const std::vector<u64>& values : samples) {
    std::vector<u64> buckets(8, 0);
    u64 overflow = 0, sum = 0;
    for (const u64 v : values) {
      one.add(static_cast<f64>(v));
      if (v < 8) {
        ++buckets[v];
      } else {
        ++overflow;
      }
      sum += v;
    }
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    batch.add_batch(buckets, overflow, static_cast<f64>(sum), static_cast<f64>(*lo),
                    static_cast<f64>(*hi));
  }
  batch.add_batch(std::vector<u64>(8, 0), 0, 0.0, 0.0, 0.0);  // empty: no change
  EXPECT_EQ(batch.count(), one.count());
  EXPECT_EQ(batch.sum(), one.sum());
  EXPECT_EQ(batch.min(), one.min());
  EXPECT_EQ(batch.max(), one.max());
  EXPECT_EQ(batch.underflow(), 0u);
  EXPECT_EQ(batch.overflow(), one.overflow());
  for (usize i = 0; i < 8; ++i) EXPECT_EQ(batch.bucket_count(i), one.bucket_count(i)) << i;
  EXPECT_EQ(batch.quantile(0.5), one.quantile(0.5));
  EXPECT_EQ(batch.quantile(0.95), one.quantile(0.95));
}

TEST(Metrics, SnapshotKeepsRegistrationOrderAndExpandsHistograms) {
  obs::MetricRegistry reg;
  reg.counter("first").add(3);
  reg.gauge("second").set(1.5);
  reg.histogram("third", 0.0, 1.0, 4).add(0.25);
  const std::vector<obs::MetricSample> snap = reg.snapshot();
  ASSERT_GE(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "first");
  EXPECT_DOUBLE_EQ(snap[0].value, 3.0);
  EXPECT_EQ(snap[1].name, "second");
  // The histogram flattens into several named scalars.
  bool saw_count = false, saw_mean = false;
  for (const obs::MetricSample& s : snap) {
    if (s.name == "third.count") {
      saw_count = true;
      EXPECT_DOUBLE_EQ(s.value, 1.0);
    }
    if (s.name == "third.mean") {
      saw_mean = true;
      EXPECT_DOUBLE_EQ(s.value, 0.25);
    }
  }
  EXPECT_TRUE(saw_count);
  EXPECT_TRUE(saw_mean);
}

TEST(Metrics, ScopedTimerNullIsNoOpAndRealTimerRecords) {
  obs::ScopedTimer noop(nullptr);
  EXPECT_DOUBLE_EQ(noop.stop(), 0.0);
  obs::FixedHistogram h(0.0, 1.0, 10);
  {
    obs::ScopedTimer t(&h);
    const f64 elapsed = t.stop();
    EXPECT_GE(elapsed, 0.0);
    t.stop();  // idempotent: second stop records nothing
  }
  EXPECT_EQ(h.count(), 1u);
}

// ---------------------------------------------------------------------------
// The zero-cost contract
// ---------------------------------------------------------------------------

TEST(ObsZeroCost, MetricUpdatesAndReservedTimelineNeverAllocate) {
  obs::MetricRegistry reg;
  obs::Counter& c = reg.counter("hot.counter");
  obs::Gauge& g = reg.gauge("hot.gauge");
  obs::FixedHistogram& h = reg.histogram("hot.hist", 0.0, 1.0, 64);
  obs::Timeline timeline(/*reserve_hint=*/2048);
  obs::ProbeEvent e;
  e.kind = obs::ProbeKind::kCheckpoint;

  const unsigned long long before = allocs_now();
  for (int i = 0; i < 100'000; ++i) {
    c.add();
    g.max_of(static_cast<f64>(i));
    h.add(static_cast<f64>(i % 97) / 97.0);
  }
  for (int i = 0; i < 2'000; ++i) {
    e.t = static_cast<f64>(i);
    timeline.record(e);
  }
  EXPECT_EQ(allocs_now() - before, 0u);
  EXPECT_EQ(c.value(), 100'000u);
  EXPECT_EQ(timeline.size(), 2'000u);
}

namespace {

struct CountingListener final : obs::ProbeEventListener {
  u64 seen = 0;
  void on_probe_event(const obs::ProbeEvent&) override { ++seen; }
};

}  // namespace

TEST(Timeline, CapacityCapCountsDropsButListenerSeesEveryEvent) {
  obs::MetricRegistry reg;
  obs::Counter& dropped = reg.counter("obs.timeline.dropped_events");
  CountingListener listener;
  obs::Timeline timeline(/*reserve_hint=*/8);
  timeline.set_capacity(8);
  timeline.set_dropped_counter(&dropped);
  timeline.set_listener(&listener);

  obs::ProbeEvent e;
  e.kind = obs::ProbeKind::kCheckpoint;
  for (int i = 0; i < 20; ++i) {
    e.t = static_cast<f64>(i);
    timeline.record(e);
  }
  // The stored window is capped, the overflow is counted, and the
  // online listener still observed every event.
  EXPECT_EQ(timeline.size(), 8u);
  EXPECT_EQ(timeline.dropped(), 12u);
  EXPECT_EQ(dropped.value(), 12u);
  EXPECT_EQ(listener.seen, 20u);
}

namespace {

struct ChurnTarget final : des::EventTarget {
  des::Simulator* sim = nullptr;
  des::RngStream* rng = nullptr;
  u64 fired = 0;
  u64 budget = 0;

  void on_event(const des::EventPayload& p) override {
    ++fired;
    if (fired < budget) sim->schedule_after(rng->uniform01(), p);
  }
};

/// Self-rescheduling typed churn; returns allocations inside run().
unsigned long long churn_allocs(des::Simulator& sim, u64 events) {
  des::RngStream rng(7, "obs-churn");
  ChurnTarget target;
  target.sim = &sim;
  target.rng = &rng;
  target.budget = events;
  des::EventPayload tick;
  tick.target = &target;
  tick.kind = des::EventKind::kWorkloadOp;
  for (int i = 0; i < 8; ++i) sim.schedule_after(rng.uniform01(), tick);
  const unsigned long long before = allocs_now();
  sim.run();
  return allocs_now() - before;
}

}  // namespace

TEST(ObsZeroCost, KernelProbeAddsNoAllocationsToTheHotPath) {
  // Warm both simulators (queue capacity, slot table), then compare a
  // probe-attached run against a bare one: the probe may not add a
  // single allocation.
  des::Simulator bare(des::QueueKind::kBinaryHeap);
  churn_allocs(bare, 10'000);
  const unsigned long long off = churn_allocs(bare, 50'000);

  obs::RunObserver observer;
  des::Simulator observed(des::QueueKind::kBinaryHeap);
  observed.set_probe(observer.kernel_probe());
  churn_allocs(observed, 10'000);
  const unsigned long long on = churn_allocs(observed, 50'000);

  EXPECT_EQ(off, 0u);
  EXPECT_EQ(on, 0u);
  // Each churn pops budget + 7 events (8 seeds, budget-1 reschedules).
  EXPECT_EQ(observer.registry().find_counter("des.queue.pops")->value(), 60'014u);
}

TEST(ObsZeroCost, TraceHashIdenticalWithObserverOnEveryQueueKind) {
  sim::SimConfig cfg;
  cfg.sim_length = 2'000.0;
  cfg.seed = 7;
  for (const des::QueueKind kind : des::kAllQueueKinds) {
    sim::ExperimentOptions opts;
    opts.queue_kind = kind;
    opts.collect_trace_hash = true;
    const sim::RunResult off = sim::run_experiment(cfg, opts);
    EXPECT_TRUE(off.metrics.empty());

    obs::RunObserver observer;
    opts.observer = &observer;
    const sim::RunResult on = sim::run_experiment(cfg, opts);
    EXPECT_EQ(on.trace_hash, off.trace_hash) << des::queue_kind_name(kind);
    EXPECT_EQ(on.events_executed, off.events_executed) << des::queue_kind_name(kind);
    EXPECT_FALSE(on.metrics.empty());
    EXPECT_GT(observer.timeline().size(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Probe/timeline content against the run's own statistics
// ---------------------------------------------------------------------------

class ObservedRun : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cfg_ = new sim::SimConfig();
    cfg_->sim_length = 5'000.0;
    cfg_->seed = 11;
    observer_ = new obs::RunObserver();
    sim::ExperimentOptions opts;
    opts.observer = observer_;
    result_ = new sim::RunResult(sim::run_experiment(*cfg_, opts));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete observer_;
    delete cfg_;
    result_ = nullptr;
    observer_ = nullptr;
    cfg_ = nullptr;
  }

  static sim::SimConfig* cfg_;
  static obs::RunObserver* observer_;
  static sim::RunResult* result_;
};

sim::SimConfig* ObservedRun::cfg_ = nullptr;
obs::RunObserver* ObservedRun::observer_ = nullptr;
sim::RunResult* ObservedRun::result_ = nullptr;

TEST_F(ObservedRun, KernelCountersReconcileWithTheRun) {
  const obs::MetricRegistry& reg = observer_->registry();
  EXPECT_EQ(reg.find_counter("des.queue.pops")->value(), result_->events_executed);
  EXPECT_EQ(reg.find_counter("des.queue.pushes")->value(), result_->invariants.scheduled);
  EXPECT_EQ(reg.find_counter("des.queue.cancels")->value(),
            result_->invariants.cancels_effective);
  EXPECT_DOUBLE_EQ(reg.find_gauge("des.queue.max_pending")->value(),
                   static_cast<f64>(result_->invariants.max_pending));
  // Per-kind dispatch counters partition the pop count.
  u64 dispatched = 0;
  for (const auto& entry : reg.entries()) {
    if (entry.name.rfind("des.dispatch.", 0) == 0 && entry.counter != nullptr) {
      dispatched += entry.counter->value();
    }
  }
  EXPECT_EQ(dispatched, result_->events_executed);
}

TEST_F(ObservedRun, NetCountersReconcileWithNetworkStats) {
  const obs::MetricRegistry& reg = observer_->registry();
  EXPECT_EQ(reg.find_counter("net.mobility.handoffs")->value(), result_->net.handoffs);
  EXPECT_EQ(reg.find_counter("net.mobility.disconnects")->value(), result_->net.disconnects);
  EXPECT_EQ(reg.find_counter("net.mobility.reconnects")->value(), result_->net.reconnects);
  EXPECT_EQ(reg.find_counter("net.leg.uplink")->value(), result_->net.app_sent);
  EXPECT_EQ(reg.find_counter("net.bytes.piggyback")->value(), result_->net.piggyback_bytes);
  const obs::FixedHistogram* lat = reg.find_histogram("net.delivery_latency_tu");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), result_->net.app_delivered);
  EXPECT_NEAR(lat->mean(), result_->net.delivery_latency.mean(), 1e-9);
}

TEST_F(ObservedRun, CheckpointTimelineMatchesProtocolCounts) {
  // Count timeline checkpoints per (slot, kind) and compare with the
  // authoritative per-protocol statistics.
  const usize slots = result_->protocols.size();
  std::vector<u64> basic(slots, 0), forced(slots, 0), initial(slots, 0);
  for (const obs::ProbeEvent& e : observer_->timeline().events()) {
    if (e.kind != obs::ProbeKind::kCheckpoint) continue;
    ASSERT_GE(e.track, 0);
    ASSERT_LT(static_cast<usize>(e.track), slots);
    ASSERT_GE(e.actor, 0);
    ASSERT_LT(e.actor, static_cast<i32>(cfg_->network.n_hosts));
    switch (e.ckpt_kind) {
      case obs::CkptKind::kBasic: ++basic[static_cast<usize>(e.track)]; break;
      case obs::CkptKind::kForced: ++forced[static_cast<usize>(e.track)]; break;
      case obs::CkptKind::kInitial: ++initial[static_cast<usize>(e.track)]; break;
    }
  }
  for (usize s = 0; s < slots; ++s) {
    EXPECT_EQ(basic[s], result_->protocols[s].basic) << result_->protocols[s].name;
    EXPECT_EQ(forced[s], result_->protocols[s].forced) << result_->protocols[s].name;
    EXPECT_EQ(initial[s], result_->protocols[s].initial) << result_->protocols[s].name;
  }
}

TEST_F(ObservedRun, ForcedCheckpointsCarryTheTriggeringRule) {
  // Slot order is TP, BCS, QBC (the default protocol set).
  ASSERT_EQ(result_->protocols[0].name, "TP");
  ASSERT_EQ(result_->protocols[1].name, "BCS");
  u64 tp_forced = 0, bcs_forced = 0;
  for (const obs::ProbeEvent& e : observer_->timeline().events()) {
    if (e.kind != obs::ProbeKind::kCheckpoint || e.ckpt_kind != obs::CkptKind::kForced) continue;
    if (e.track == 0) {
      ++tp_forced;
      EXPECT_EQ(e.rule, obs::ForcedRule::kReceiveAfterSend);
    } else if (e.track == 1) {
      ++bcs_forced;
      EXPECT_EQ(e.rule, obs::ForcedRule::kSnGreater);
    }
    EXPECT_GT(e.t, 0.0);  // forced checkpoints are triggered by traffic
  }
  EXPECT_EQ(tp_forced, result_->protocols[0].forced);
  EXPECT_EQ(bcs_forced, result_->protocols[1].forced);
  EXPECT_GT(tp_forced, 0u);
  EXPECT_GT(bcs_forced, 0u);
  EXPECT_STREQ(obs::forced_rule_name(obs::ForcedRule::kSnGreater), "m.sn > sn_i");
  EXPECT_STREQ(obs::forced_rule_name(obs::ForcedRule::kReceiveAfterSend),
               "first receive after send");
}

TEST_F(ObservedRun, HandoffTimelineMatchesNetworkStats) {
  u64 handoffs = 0, disconnects = 0, reconnects = 0;
  for (const obs::ProbeEvent& e : observer_->timeline().events()) {
    if (e.kind == obs::ProbeKind::kHandoff) {
      ++handoffs;
      EXPECT_GE(e.track, 0);  // destination MSS
      EXPECT_LT(e.track, static_cast<i32>(cfg_->network.n_mss));
    }
    if (e.kind == obs::ProbeKind::kDisconnect) ++disconnects;
    if (e.kind == obs::ProbeKind::kReconnect) ++reconnects;
  }
  EXPECT_EQ(handoffs, result_->net.handoffs);
  EXPECT_EQ(disconnects, result_->net.disconnects);
  EXPECT_EQ(reconnects, result_->net.reconnects);
}

TEST_F(ObservedRun, RunResultMetricsAreTheRegistrySnapshot) {
  const std::vector<obs::MetricSample> snap = observer_->registry().snapshot();
  ASSERT_EQ(result_->metrics.size(), snap.size());
  for (usize i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(result_->metrics[i].name, snap[i].name);
    EXPECT_DOUBLE_EQ(result_->metrics[i].value, snap[i].value);
  }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST_F(ObservedRun, JsonlExportParsesLineByLine) {
  std::ostringstream os;
  obs::write_metrics_jsonl(os, *observer_);
  std::istringstream lines(os.str());
  std::string line;
  usize events = 0, metrics = 0;
  bool saw_metric = false, saw_rule = false;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    const sim::JsonValue doc = sim::json_parse(line);
    const std::string& type = doc.at("type").as_string();
    if (type == "event") {
      EXPECT_FALSE(saw_metric) << "event line after the metric block";
      ++events;
      if (doc.at("kind").as_string() == "checkpoint" &&
          doc.at("ckpt").as_string() == "forced" && doc.at("protocol").as_string() == "BCS") {
        EXPECT_EQ(doc.at("rule").as_string(), "m.sn > sn_i");
        saw_rule = true;
      }
    } else {
      ASSERT_EQ(type, "metric");
      saw_metric = true;
      ++metrics;
      EXPECT_FALSE(doc.at("name").as_string().empty());
    }
  }
  EXPECT_EQ(events, observer_->timeline().size());
  EXPECT_EQ(metrics, observer_->registry().snapshot().size());
  EXPECT_TRUE(saw_rule);
}

TEST_F(ObservedRun, ChromeTraceIsValidJsonWithCheckpointsAndFlowArrows) {
  std::ostringstream os;
  obs::write_chrome_trace(os, *observer_);
  const sim::JsonValue doc = sim::json_parse(os.str());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());

  usize metadata = 0, forced = 0, basic = 0, sends = 0, delivers = 0;
  usize flow_starts = 0, flow_finishes = 0;
  std::set<std::pair<std::string, u64>> open_flows;
  for (const sim::JsonValue& e : events) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") {
      ++metadata;
      continue;
    }
    if (ph == "s" || ph == "f") {
      // Flow arrows: identified by (cat, id); every finish must follow
      // its start in file order, and each flow terminates exactly once.
      const std::string& cat = e.at("cat").as_string();
      EXPECT_TRUE(cat == "msg" || cat == "force") << cat;
      const u64 id = e.at("id").as_u64();
      if (ph == "s") {
        ++flow_starts;
        open_flows.emplace(cat, id);
      } else {
        ++flow_finishes;
        EXPECT_EQ(e.at("bp").as_string(), "e");
        EXPECT_EQ(open_flows.erase({cat, id}), 1u) << cat << ":" << id;
      }
      continue;
    }
    const std::string& name = e.at("name").as_string();
    if (ph == "X") {
      // Slices: sends, deliveries, and forced checkpoints with a trigger.
      (void)e.at("dur").as_u64();
      if (name.rfind("send #", 0) == 0) {
        ++sends;
        EXPECT_EQ(e.at("pid").as_u64(), 0u);
        (void)e.at("args").at("msg").as_u64();
        (void)e.at("args").at("dst").as_u64();
      } else if (name.rfind("deliver #", 0) == 0) {
        ++delivers;
        EXPECT_EQ(e.at("pid").as_u64(), 0u);
        (void)e.at("args").at("src").as_u64();
      } else {
        ASSERT_EQ(name, "forced checkpoint");
        ++forced;
        EXPECT_GE(e.at("pid").as_u64(), 1u);
        EXPECT_NE(e.at("args").at("rule").as_string(), "none");
        (void)e.at("args").at("msg").as_u64();  // the triggering message
      }
      continue;
    }
    ASSERT_EQ(ph, "i");
    EXPECT_EQ(e.at("s").as_string(), "t");
    if (name == "forced checkpoint") {
      // Forced without a recorded trigger (e.g. a coordinator marker).
      ++forced;
      EXPECT_GE(e.at("pid").as_u64(), 1u);
      EXPECT_LT(e.at("tid").as_u64(), u64{cfg_->network.n_hosts});
      EXPECT_NE(e.at("args").at("rule").as_string(), "none");
      (void)e.at("args").at("sn").as_u64();
    } else if (name == "basic checkpoint") {
      ++basic;
      EXPECT_EQ(e.at("args").at("rule").as_string(), "none");
    }
  }
  // process/thread metadata: pid 0 (network) + one per protocol, each
  // with one thread row per host.
  const usize expected_meta =
      (1 + result_->protocols.size()) * (1 + cfg_->network.n_hosts);
  EXPECT_EQ(metadata, expected_meta);
  EXPECT_GT(forced, 0u);
  EXPECT_GT(basic, 0u);
  EXPECT_GT(sends, 0u);
  EXPECT_GT(delivers, 0u);
  EXPECT_GT(flow_starts, 0u);
  // Every emitted flow start is terminated by exactly one finish.
  EXPECT_EQ(flow_finishes, flow_starts);
  EXPECT_TRUE(open_flows.empty());
  // The trailing metrics block mirrors the registry.
  EXPECT_EQ(doc.at("metrics").object.size(), observer_->registry().snapshot().size());
}

TEST_F(ObservedRun, TimelineCarriesSendAndDeliverEventsMatchingNetStats) {
  u64 sends = 0, delivers = 0;
  for (const obs::ProbeEvent& e : observer_->timeline().events()) {
    if (e.kind == obs::ProbeKind::kSend) {
      ++sends;
      EXPECT_GT(e.a, 0u);  // message ids are 1-based
    } else if (e.kind == obs::ProbeKind::kDeliver) {
      ++delivers;
      EXPECT_GT(e.a, 0u);
    }
  }
  EXPECT_EQ(sends, result_->net.app_sent);
  EXPECT_EQ(delivers, result_->net.app_received);
}

#ifndef MOBICHK_TEST_DATA_DIR
#error "MOBICHK_TEST_DATA_DIR must point at tests/obs"
#endif

TEST(ObsGolden, ChromeTraceOfTinyRunMatchesCommittedFile) {
  // A deliberately tiny deterministic run: any change to the exporter
  // format, the probe wiring or the simulation itself moves this golden.
  sim::SimConfig cfg;
  cfg.network.n_hosts = 4;
  cfg.network.n_mss = 2;
  cfg.sim_length = 300.0;
  cfg.t_switch = 50.0;
  cfg.p_switch = 0.8;
  cfg.seed = 3;
  obs::RunObserver observer;
  sim::ExperimentOptions opts;
  opts.observer = &observer;
  (void)sim::run_experiment(cfg, opts);
  std::ostringstream got;
  obs::write_chrome_trace(got, observer);

  const std::string path = std::string(MOBICHK_TEST_DATA_DIR) + "/golden_chrome_trace.json";
  std::ifstream file(path);
  if (!file) {
    std::ofstream regen(path);
    regen << got.str();
    FAIL() << "golden file was missing; regenerated " << path << " — inspect and commit it";
  }
  std::ostringstream want;
  want << file.rdbuf();
  EXPECT_EQ(got.str(), want.str())
      << "chrome-trace output changed; delete " << path << " and re-run to regenerate";
}

TEST(ObsGolden, TransferSlicesOfTinyDataPlaneRunMatchCommittedFile) {
  // The same tiny run with the checkpoint data plane on: the chrome
  // trace now carries storage-transfer slices (uploads and migrations).
  // Pins the exporter format for kStorageTransfer probes and the plane's
  // deterministic completion times; tools/lint_trace.py checks the
  // committed file structurally in CI.
  sim::SimConfig cfg;
  cfg.network.n_hosts = 4;
  cfg.network.n_mss = 2;
  cfg.sim_length = 300.0;
  cfg.t_switch = 50.0;
  cfg.p_switch = 0.8;
  cfg.seed = 3;
  obs::RunObserver observer;
  sim::ExperimentOptions opts;
  opts.observer = &observer;
  opts.data_plane.enabled = true;
  const sim::RunResult result = sim::run_experiment(cfg, opts);
  ASSERT_TRUE(result.data_plane_enabled);
  ASSERT_GT(result.data_plane.transfers_completed, 0u);
  u64 transfer_probes = 0;
  for (const obs::ProbeEvent& e : observer.timeline().events()) {
    if (e.kind == obs::ProbeKind::kStorageTransfer) ++transfer_probes;
  }
  EXPECT_EQ(transfer_probes, result.data_plane.transfers_completed);
  std::ostringstream got;
  obs::write_chrome_trace(got, observer);

  const std::string path = std::string(MOBICHK_TEST_DATA_DIR) + "/golden_transfer_slices.json";
  std::ifstream file(path);
  if (!file) {
    std::ofstream regen(path);
    regen << got.str();
    FAIL() << "golden file was missing; regenerated " << path << " — inspect and commit it";
  }
  std::ostringstream want;
  want << file.rdbuf();
  EXPECT_EQ(got.str(), want.str())
      << "transfer-slice trace changed; delete " << path << " and re-run to regenerate";
}

TEST(ObsGolden, FlowEventsJsonlOfTinyRunMatchesCommittedFile) {
  // Same tiny run, JSONL exporter: pins the send/deliver/sn_promote
  // event lines and the rl.* recovery-line metric families.
  sim::SimConfig cfg;
  cfg.network.n_hosts = 4;
  cfg.network.n_mss = 2;
  cfg.sim_length = 300.0;
  cfg.t_switch = 50.0;
  cfg.p_switch = 0.8;
  cfg.seed = 3;
  obs::RunObserver observer;
  sim::ExperimentOptions opts;
  opts.observer = &observer;
  (void)sim::run_experiment(cfg, opts);
  std::ostringstream got;
  obs::write_metrics_jsonl(got, observer);

  const std::string path = std::string(MOBICHK_TEST_DATA_DIR) + "/golden_flow_events.jsonl";
  std::ifstream file(path);
  if (!file) {
    std::ofstream regen(path);
    regen << got.str();
    FAIL() << "golden file was missing; regenerated " << path << " — inspect and commit it";
  }
  std::ostringstream want;
  want << file.rdbuf();
  EXPECT_EQ(got.str(), want.str())
      << "jsonl output changed; delete " << path << " and re-run to regenerate";
}

// ---------------------------------------------------------------------------
// Exports larger than one output block, and the caller's stream state
// ---------------------------------------------------------------------------

/// FNV-1a 64 of a whole document.
u64 fnv1a(const std::string& s) {
  u64 h = 0xCBF29CE484222325ULL;
  for (const char c : s) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  return h;
}

struct ExportDigest {
  usize jsonl_bytes;
  u64 jsonl_hash;
  usize chrome_bytes;
  u64 chrome_hash;
};

/// An L=20000 run at seed 42, observed; `faulty` adds duplicate
/// deliveries without transport dedup and independent MH crashes.
void run_observed(obs::RunObserver& observer, bool faulty) {
  sim::SimConfig cfg;
  cfg.sim_length = 20'000.0;
  cfg.seed = 42;
  if (faulty) {
    cfg.network.duplicate_prob = 0.2;
    cfg.network.transport_dedup = false;
    cfg.faults.mode = sim::CrashMode::kMhCrash;
    cfg.faults.crash_interval = 2'000.0;
  }
  sim::ExperimentOptions opts;
  opts.observer = &observer;
  (void)sim::run_experiment(cfg, opts);
}

TEST(ObsExport, MultiBlockExportsMatchPinnedDigests) {
  // The goldens above fit in one output block; these documents span 9 to
  // 45 blocks of 64 KiB. Each pin is the byte count and FNV-1a of one
  // export, recorded before exports were written in blocks.
  struct Case {
    bool faulty;
    usize timeline_cap;
    ExportDigest want;
  };
  const Case cases[] = {
      {false, 0, {1'351'849, 0xa1b6e89b66fa4ae5ULL, 2'911'977, 0xc00c7b5e75a5e5fcULL}},
      {true, 0, {1'418'144, 0xfe21f17455228c6cULL, 2'958'007, 0x57a6b2be778dda1bULL}},
      {true, 5'000, {560'061, 0x45bd2c86b454c303ULL, 1'156'901, 0x90f346c3e4a093a1ULL}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "faulty " << c.faulty << ", cap " << c.timeline_cap);
    obs::RunObserver observer;
    observer.set_timeline_capacity(c.timeline_cap);
    run_observed(observer, c.faulty);
    std::ostringstream jsonl, chrome;
    obs::write_metrics_jsonl(jsonl, observer);
    obs::write_chrome_trace(chrome, observer);
    EXPECT_EQ(jsonl.str().size(), c.want.jsonl_bytes);
    EXPECT_EQ(fnv1a(jsonl.str()), c.want.jsonl_hash);
    EXPECT_EQ(chrome.str().size(), c.want.chrome_bytes);
    EXPECT_EQ(fnv1a(chrome.str()), c.want.chrome_hash);

    if (c.faulty && c.timeline_cap == 0) {
      // The pins cover what they claim: duplicate deliveries (each one's
      // flow arrow finishes once) and a crash paired with its recovery.
      std::map<u64, u64> deliveries;
      u64 crashes = 0, recovers = 0;
      for (const obs::ProbeEvent& e : observer.timeline().events()) {
        if (e.kind == obs::ProbeKind::kDeliver) ++deliveries[e.a];
        crashes += e.kind == obs::ProbeKind::kCrash ? 1 : 0;
        recovers += e.kind == obs::ProbeKind::kRecover ? 1 : 0;
      }
      u64 repeated = 0;
      for (const auto& [id, n] : deliveries) repeated += n > 1 ? 1 : 0;
      EXPECT_EQ(repeated, 786u);
      EXPECT_EQ(crashes, 1u);
      EXPECT_EQ(recovers, 1u);
    }
    if (c.timeline_cap != 0) {
      EXPECT_GT(observer.timeline().dropped(), 0u);
    }
  }
}

/// Groups thousands with ',' under any locale that installs it.
struct ThousandsGrouping final : std::numpunct<char> {
  char do_thousands_sep() const override { return ','; }
  std::string do_grouping() const override { return "\3"; }
};

TEST(ObsExport, OutputIgnoresTheStreamsLocaleAndFormatFlags) {
  // Ids and counts above 999 would print as "1,234" through a grouping
  // locale (invalid JSON) and as hex under std::hex; neither may reach
  // an export.
  obs::RunObserver observer;
  run_observed(observer, false);
  std::ostringstream plain_jsonl, plain_chrome;
  obs::write_metrics_jsonl(plain_jsonl, observer);
  obs::write_chrome_trace(plain_chrome, observer);
  ASSERT_NE(plain_jsonl.str().find("\"msg\":1234,"), std::string::npos);

  std::ostringstream grouped_jsonl, grouped_chrome, hex_jsonl, hex_chrome;
  const std::locale grouping(std::locale::classic(), new ThousandsGrouping);
  grouped_jsonl.imbue(grouping);
  grouped_chrome.imbue(grouping);
  hex_jsonl << std::hex;
  hex_chrome << std::hex;
  obs::write_metrics_jsonl(grouped_jsonl, observer);
  obs::write_chrome_trace(grouped_chrome, observer);
  obs::write_metrics_jsonl(hex_jsonl, observer);
  obs::write_chrome_trace(hex_chrome, observer);
  EXPECT_TRUE(grouped_jsonl.str() == plain_jsonl.str());
  EXPECT_TRUE(grouped_chrome.str() == plain_chrome.str());
  EXPECT_TRUE(hex_jsonl.str() == plain_jsonl.str());
  EXPECT_TRUE(hex_chrome.str() == plain_chrome.str());
}

}  // namespace
}  // namespace mobichk
