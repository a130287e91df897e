// Host-time profiler tests: the zero-cost contract (profile-off runs
// reproduce the golden Figure 1 hash bit-identically and stay
// allocation-free on the hot path, for every queue kind and sharded or
// not), the reconciliation contract (profile-on dispatch counts agree
// with the kernel's event ledger and the trace hash does not move), the
// ProfScope overhead discipline, and the host-time Chrome-trace track's
// structure (including the committed golden_host_trace.json).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <utility>

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

/// The Figure 1 golden determinism anchor (same constant as
/// test_sharded.cpp, test_audit.cpp and kernel_smoke).
constexpr u64 kGoldenFig1Hash = 0xd165928ffbf08bb4ull;

sim::SimConfig golden_config() {
  sim::SimConfig cfg;
  cfg.sim_length = 50'000.0;
  cfg.t_switch = 1'000.0;
  cfg.p_switch = 1.0;
  cfg.heterogeneity = 0.0;
  cfg.seed = 42;
  return cfg;
}

// ---------------------------------------------------------------------------
// Zero-cost contract: profile-off and profile-on both reproduce the
// golden hash — profiling must never perturb the simulation.
// ---------------------------------------------------------------------------

/// Runs the golden config on `queue` over `shards`, unprofiled and then
/// profiled: both must keep the golden hash and reconcile the ledger, and
/// the profiler must bucket each fired event exactly once, by the kind the
/// kernel's ledger counted it under.
void expect_golden_hash_profiled_or_not(des::QueueKind queue, u32 shards) {
  for (const bool profiled : {false, true}) {
    obs::Profiler profiler;
    sim::ExperimentOptions opts;
    opts.collect_trace_hash = true;
    opts.queue_kind = queue;
    opts.shards = shards;
    if (profiled) opts.profiler = &profiler;
    const sim::RunResult r = sim::run_experiment(golden_config(), opts);
    const std::string label = std::string(des::queue_kind_name(queue)) + " shards=" +
                              std::to_string(shards) + (profiled ? " profiled" : " unprofiled");
    EXPECT_EQ(r.trace_hash, kGoldenFig1Hash) << label;
    EXPECT_TRUE(r.invariants_ok) << label;
    if (!profiled) continue;
    for (usize k = 0; k < des::kEventKindCount; ++k) {
      EXPECT_EQ(profiler.dispatch_count(k), r.invariants.dispatched[k])
          << label << " " << des::event_kind_name(k);
    }
    // prof.* samples landed in the result's metric snapshot, and
    // prof.events is the per-kind counts' sum.
    const obs::MetricSample* events = nullptr;
    for (const obs::MetricSample& m : r.metrics) {
      if (m.name == "prof.events") events = &m;
    }
    ASSERT_NE(events, nullptr) << label;
    EXPECT_EQ(events->value, static_cast<f64>(r.events_executed)) << label;
  }
}

TEST(Prof, GoldenHashUnchangedProfiledOrNotEveryQueueKindSequential) {
  for (const des::QueueKind queue : des::kAllQueueKinds) {
    expect_golden_hash_profiled_or_not(queue, 1);
  }
}

// The sharded half is the one the thread sanitizer runs: its shard
// workers write their own profiler lanes.
TEST(Prof, GoldenHashUnchangedProfiledOrNotEveryQueueKindSharded) {
  for (const des::QueueKind queue : des::kAllQueueKinds) {
    expect_golden_hash_profiled_or_not(queue, 4);
  }
}

// ---------------------------------------------------------------------------
// Allocation contract on the kernel hot path: a warmed-up typed-event
// churn loop allocates nothing per event, profile-off AND profile-on,
// on every queue kind. (The ProfLane accumulators are plain counters;
// only the sharded executor's slice journal may allocate, and it is not
// on this path.)
// ---------------------------------------------------------------------------

struct ChurnTarget final : des::EventTarget {
  des::Simulator* sim = nullptr;
  des::RngStream* rng = nullptr;
  u64 fired = 0;
  u64 stop_at = 0;

  void on_event(const des::EventPayload& p) override {
    ++fired;
    if (fired < stop_at) sim->schedule_after(rng->uniform01(), p);
  }
};

TEST(Prof, SteadyStateChurnAllocationFreeOffAndOnEveryQueueKind) {
  constexpr u64 kWarmup = 20'000;
  constexpr u64 kMeasured = 50'000;
  for (const des::QueueKind queue : des::kAllQueueKinds) {
    for (const bool profiled : {false, true}) {
      des::Simulator sim(queue);
      obs::ProfLane lane;
      if (profiled) sim.set_prof(&lane);
      des::RngStream rng(7, "prof-churn");
      ChurnTarget target;
      target.sim = &sim;
      target.rng = &rng;
      target.stop_at = kWarmup;
      des::EventPayload tick;
      tick.target = &target;
      tick.kind = des::EventKind::kWorkloadOp;
      for (int i = 0; i < 16; ++i) sim.schedule_after(rng.uniform01(), tick);
      sim.run();  // warmup: queue storage grown, calendar tuned
      // With 16 events in flight the stop check overshoots by up to 15.
      ASSERT_GE(target.fired, kWarmup);
      ASSERT_LT(target.fired, kWarmup + 16);

      target.stop_at = target.fired + kMeasured;
      for (int i = 0; i < 16; ++i) sim.schedule_after(rng.uniform01(), tick);
      const unsigned long long before = allocs_now();
      sim.run();
      const unsigned long long allocs = allocs_now() - before;
      const std::string label = std::string(des::queue_kind_name(queue)) +
                                (profiled ? " profiled" : " unprofiled");
      // The calendar queue re-tunes its bucket array a couple dozen times
      // over this horizon (identically with the profiler on and off — it
      // is driven by occupancy, not the clock); everything else must be
      // exactly zero. The bound is a constant, not a rate: 50k events may
      // not buy 50k allocations.
      EXPECT_LE(allocs, 64u) << label << ": " << allocs << " allocations over " << kMeasured
                             << " steady-state events";
      if (profiled) {
        EXPECT_EQ(lane.dispatch[static_cast<usize>(des::EventKind::kWorkloadOp)].count,
                  target.fired)
            << label;
      }
    }
  }
}

TEST(Prof, ShardedSteadyStateMarginalAllocationRateBoundedProfileOff) {
  // Experiment-level allocation gate for the sharded engine with the
  // profiler explicitly off: the marginal allocations per event between
  // two horizons (startup cost cancels) must stay at the pre-profiler
  // level. A profile-off regression that puts clock reads or journal
  // pushes on the hot path shows up here as a rate jump.
  unsigned long long allocs[2];
  u64 events[2];
  const f64 lengths[2] = {10'000.0, 50'000.0};
  for (int i = 0; i < 2; ++i) {
    sim::SimConfig cfg = golden_config();
    cfg.sim_length = lengths[i];
    sim::ExperimentOptions opts;
    opts.shards = 4;
    sim::Experiment exp(cfg, opts);
    const unsigned long long before = allocs_now();
    exp.run();
    allocs[i] = allocs_now() - before;
    events[i] = exp.result().events_executed;
    ASSERT_TRUE(exp.result().invariants_ok);
  }
  ASSERT_GT(events[1], events[0] + 10'000u);
  const f64 marginal =
      static_cast<f64>(allocs[1] - allocs[0]) / static_cast<f64>(events[1] - events[0]);
  // The sharded engine's per-window machinery (merge journals, id maps,
  // cross-shard parking) runs at ~4.6 allocations/event on this config;
  // the headroom to 7 absorbs platform noise while still failing loudly
  // on an O(n)-per-event regression or profile-off journal pushes.
  EXPECT_LT(marginal, 7.0) << allocs[1] - allocs[0] << " allocations over " << events[1] - events[0]
                           << " steady-state events";
}

// ---------------------------------------------------------------------------
// ProfScope discipline
// ---------------------------------------------------------------------------

TEST(Prof, NullProfScopeNeverReadsTheClockAndAddsNothing) {
  // A null-accumulator scope must be pure branch: no allocation, and
  // cheap enough that 10^6 of them are unmeasurable next to a clock
  // read per iteration. The bound is deliberately generous (CI noise);
  // what it catches is an unconditional prof_now_ns() sneaking in.
  constexpr int kIters = 1'000'000;
  const unsigned long long before_allocs = allocs_now();
  const u64 t0 = obs::prof_now_ns();
  for (int i = 0; i < kIters; ++i) {
    obs::ProfScope scope(nullptr);
  }
  const u64 null_ns = obs::prof_now_ns() - t0;
  EXPECT_EQ(allocs_now() - before_allocs, 0u);

  obs::PhaseAccum acc;
  const u64 t1 = obs::prof_now_ns();
  for (int i = 0; i < kIters; ++i) {
    obs::ProfScope scope(&acc);
  }
  const u64 timed_ns = obs::prof_now_ns() - t1;
  EXPECT_EQ(acc.count, static_cast<u64>(kIters));
  EXPECT_GT(timed_ns, 0u);
  // Null scopes must cost well under a clock read each. Two clock reads
  // per timed scope vs zero per null scope: 10x headroom on the ratio.
  EXPECT_LT(null_ns, timed_ns * 10) << "null ProfScope suspiciously expensive: " << null_ns
                                    << " ns vs timed " << timed_ns << " ns";
}

TEST(Prof, SnapshotCatalogShapeAndImbalance) {
  obs::Profiler prof;
  prof.ensure_lanes(3);  // coordinator + 2 shards
  prof.lane_ref(1).window.ns = 2'000'000'000ull;
  prof.lane_ref(1).window.count = 10;
  prof.lane_ref(2).window.ns = 1'000'000'000ull;
  prof.lane_ref(2).window.count = 10;
  prof.lane_ref(1).dispatch[static_cast<usize>(des::EventKind::kMessageHop)].count = 60;
  prof.lane_ref(1).dispatch[static_cast<usize>(des::EventKind::kWorkloadOp)].count = 40;
  prof.lane_ref(2).dispatch[static_cast<usize>(des::EventKind::kWorkloadOp)].count = 50;
  // max busy = 2s, mean = 1.5s.
  EXPECT_DOUBLE_EQ(prof.imbalance_ratio(), 2.0 / 1.5);
  const std::vector<obs::MetricSample> samples = prof.snapshot();
  auto find = [&](const std::string& name) -> const obs::MetricSample* {
    for (const obs::MetricSample& m : samples) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  ASSERT_NE(find("prof.shard.0.busy_seconds"), nullptr);
  EXPECT_DOUBLE_EQ(find("prof.shard.0.busy_seconds")->value, 2.0);
  ASSERT_NE(find("prof.shard.1.busy_seconds"), nullptr);
  ASSERT_NE(find("prof.imbalance_ratio"), nullptr);
  ASSERT_NE(find("prof.events"), nullptr);
  EXPECT_DOUBLE_EQ(find("prof.events")->value, 150.0);
  ASSERT_NE(find("prof.shard.0.events"), nullptr);
  EXPECT_DOUBLE_EQ(find("prof.shard.0.events")->value, 100.0);
  ASSERT_NE(find("prof.dispatch.workload_op.seconds"), nullptr);
  ASSERT_NE(find("prof.queue.push.count"), nullptr);
}

// ---------------------------------------------------------------------------
// Host-time trace structure
// ---------------------------------------------------------------------------

/// Structural validation of one trace document: parses as JSON, host-time
/// rows live on their own pid, every B has a matching E per (pid, tid)
/// with non-decreasing timestamps, and no flow/instant events share the
/// host pid. Mirrors tools/lint_trace.py's host-track checks.
void check_host_trace_structure(const std::string& text, bool expect_host_rows) {
  const sim::JsonValue doc = sim::json_parse(text);
  const sim::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  constexpr i64 kHostPid = 9999;
  bool saw_host_row = false;
  std::map<std::pair<i64, i64>, int> depth;
  std::map<std::pair<i64, i64>, f64> last_ts;
  for (const sim::JsonValue& e : events->as_array()) {
    const std::string ph = e.at("ph").as_string();
    const i64 pid = static_cast<i64>(e.at("pid").as_f64());
    if (ph == "M") continue;  // metadata carries no ts
    const i64 tid = static_cast<i64>(e.at("tid").as_f64());
    const auto key = std::make_pair(pid, tid);
    const f64 ts = e.at("ts").as_f64();
    if (pid == kHostPid) {
      saw_host_row = true;
      EXPECT_TRUE(ph == "B" || ph == "E" || ph == "X")
          << "host pid carries only slice events, got ph=" << ph;
      EXPECT_GE(ts, 0.0);
      if (ph == "B" || ph == "X") {
        auto it = last_ts.find(key);
        if (it != last_ts.end()) {
          EXPECT_GE(ts, it->second) << "host row (tid " << tid << ") timestamps regressed";
        }
        last_ts[key] = ts;
      }
      if (ph == "B") ++depth[key];
      if (ph == "E") {
        EXPECT_GT(depth[key], 0) << "E without B on host tid " << tid;
        --depth[key];
      }
    } else {
      EXPECT_NE(ph, "M");
    }
  }
  for (const auto& [key, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed B slice on pid " << key.first << " tid " << key.second;
  }
  EXPECT_EQ(saw_host_row, expect_host_rows);
}

TEST(Prof, HostTraceOfShardedRunIsStructurallySound) {
  obs::Profiler profiler;
  sim::SimConfig cfg = golden_config();
  cfg.sim_length = 5'000.0;
  sim::ExperimentOptions opts;
  opts.shards = 4;
  opts.profiler = &profiler;
  (void)sim::run_experiment(cfg, opts);
  std::ostringstream os;
  obs::write_host_trace(os, profiler);
  check_host_trace_structure(os.str(), true);
  // The lanes journaled real windows: the document mentions each shard.
  EXPECT_NE(os.str().find("shard 0"), std::string::npos);
  EXPECT_NE(os.str().find("shard 3"), std::string::npos);
  EXPECT_NE(os.str().find("coordinator"), std::string::npos);
}

TEST(Prof, CombinedTraceCarriesBothSimAndHostTracks) {
  sim::SimConfig cfg;
  cfg.network.n_hosts = 4;
  cfg.network.n_mss = 2;
  cfg.sim_length = 300.0;
  cfg.t_switch = 50.0;
  cfg.p_switch = 0.8;
  cfg.seed = 3;
  obs::RunObserver observer;
  obs::Profiler profiler;
  sim::ExperimentOptions opts;
  opts.observer = &observer;
  opts.profiler = &profiler;
  (void)sim::run_experiment(cfg, opts);

  // Without the profiler argument the output must be byte-identical to
  // the legacy two-argument exporter (old goldens stay valid).
  std::ostringstream plain, with_null, with_prof;
  obs::write_chrome_trace(plain, observer);
  obs::write_chrome_trace(with_null, observer, nullptr);
  EXPECT_EQ(plain.str(), with_null.str());

  obs::write_chrome_trace(with_prof, observer, &profiler);
  EXPECT_NE(with_prof.str(), plain.str());
  check_host_trace_structure(with_prof.str(), true);
  EXPECT_NE(with_prof.str().find("\"prof.dispatch.workload_op.count\""), std::string::npos);
}

#ifndef MOBICHK_TEST_DATA_DIR
#error "MOBICHK_TEST_DATA_DIR must point at tests/obs"
#endif

TEST(Prof, CommittedGoldenHostTraceIsStructurallySound) {
  // Host times are wall-clock, so the golden cannot be byte-compared the
  // way golden_chrome_trace.json is; instead the committed file (also
  // linted by tools/lint_trace.py in CI) must keep passing the
  // structural checks. Regenerated here if missing.
  const std::string path = std::string(MOBICHK_TEST_DATA_DIR) + "/golden_host_trace.json";
  std::ifstream file(path);
  if (!file) {
    obs::Profiler profiler;
    sim::SimConfig cfg = golden_config();
    cfg.sim_length = 20.0;  // short run: the committed file stays small
    cfg.t_switch = 5.0;
    sim::ExperimentOptions opts;
    opts.shards = 4;
    opts.profiler = &profiler;
    (void)sim::run_experiment(cfg, opts);
    obs::write_host_trace(path, profiler);
    FAIL() << "golden file was missing; regenerated " << path << " — inspect and commit it";
  }
  std::ostringstream text;
  text << file.rdbuf();
  check_host_trace_structure(text.str(), true);
}

}  // namespace
}  // namespace mobichk
