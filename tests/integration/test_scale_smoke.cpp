// City-scale smoke: a 10^4-host run must complete fast, reconcile the
// kernel's event ledger, keep the sparse piggybacks under the dense
// cost, and keep the hot path essentially allocation-free with
// observability off.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/experiment.hpp"

namespace {
std::atomic<unsigned long long> g_allocs{0};
}  // namespace

// Global allocation counter: the steady-state gate below differences it
// around Experiment::run(). (gtest's own bookkeeping happens outside the
// measured region.)
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

namespace mobichk::sim {
namespace {

SimConfig scale_config() {
  SimConfig cfg;
  cfg.network.n_hosts = 10'000;
  cfg.network.n_mss = 500;
  cfg.sim_length = 50.0;  // short horizon: ~50k events, still city-scale state
  cfg.t_switch = 1'000.0;
  cfg.p_switch = 1.0;
  cfg.heterogeneity = 0.0;
  cfg.seed = 42;
  return cfg;
}

TEST(ScaleSmoke, TenThousandHostsCompleteWithinBudget) {
  ExperimentOptions opts;
  opts.queue_kind = des::QueueKind::kCalendar;
  const RunResult r = run_experiment(scale_config(), opts);
  EXPECT_TRUE(r.invariants_ok);
  EXPECT_GT(r.events_executed, 10'000u);
  EXPECT_GT(r.net.app_sent, 0u);
  // Wall-clock budget: the run takes well under a second on any dev
  // machine; 30 s catches an accidental O(n^2) hot path even on the
  // slowest CI runner or under sanitizers.
  EXPECT_LT(r.wall_seconds, 30.0);
  // The city-scale acceptance: sparse TP ships a vanishing fraction of
  // the paper-literal dense cost at n = 10^4 (2n u32s per message).
  const auto& tp = r.by_name("TP");
  EXPECT_GT(tp.piggyback_bytes, 0u);
  EXPECT_LT(tp.piggyback_bytes, tp.piggyback_dense_bytes / 100);
}

TEST(ScaleSmoke, SteadyStateAllocationRateStaysBounded) {
  // Basic-only protocol with probes off: pooled messages, SoA host state,
  // recycled mailboxes and typed event payloads keep the event loop off
  // the heap. What remains per app message is the piggyback vector it
  // carries from send to receive, plus the amortized growth of the
  // checkpoint and message logs: 0.58 allocations per event at this
  // config (the count is deterministic). Keeping a record per message
  // outside the message, a hash node in the harness and another in the
  // message log, read 0.86. Gate the *marginal* rate between two horizons
  // — the 10^4-host startup cost (initial checkpoints, arenas) cancels
  // out — so a per-message map, dense piggybacks (two n-entry vectors per
  // send, >= 2 allocs/event) or any O(n)-per-event allocation fails.
  unsigned long long allocs[2];
  u64 events[2];
  const f64 lengths[2] = {5.0, 50.0};
  for (int i = 0; i < 2; ++i) {
    SimConfig cfg = scale_config();
    cfg.sim_length = lengths[i];
    ExperimentOptions opts;
    opts.queue_kind = des::QueueKind::kCalendar;
    opts.protocols = {core::ProtocolKind::kBasicOnly};
    Experiment exp(cfg, opts);
    const unsigned long long before = g_allocs.load(std::memory_order_relaxed);
    exp.run();
    allocs[i] = g_allocs.load(std::memory_order_relaxed) - before;
    events[i] = exp.result().events_executed;
    ASSERT_TRUE(exp.result().invariants_ok);
  }
  ASSERT_GT(events[1], events[0] + 10'000u);
  const f64 marginal = static_cast<f64>(allocs[1] - allocs[0]) /
                       static_cast<f64>(events[1] - events[0]);
  EXPECT_LT(marginal, 0.65) << allocs[1] - allocs[0] << " allocations over "
                           << events[1] - events[0] << " steady-state events";
}

TEST(ScaleSmoke, TpAllocationRateStaysBounded) {
  // Sparse TP alone: on top of the per-message piggyback vector above,
  // each send allocates its encoded delta once, at its exact size, and
  // moves it onto the message; a receive grows the receiver's entry list
  // at most once. A checkpoint's snapshot goes to the log's block arena,
  // so it allocates only when a 64 KiB block fills. 1.10 allocations per
  // event at this config (the count is deterministic); parking the
  // piggybacks in the harness behind a per-message hash map read 1.32,
  // and a delta grown byte by byte, or copied on every leg, puts the rate
  // above 2 and makes it grow with the run as the deltas lengthen.
  unsigned long long allocs[2];
  u64 events[2];
  const f64 lengths[2] = {100.0, 200.0};
  for (int i = 0; i < 2; ++i) {
    SimConfig cfg = scale_config();
    cfg.sim_length = lengths[i];
    ExperimentOptions opts;
    opts.queue_kind = des::QueueKind::kCalendar;
    opts.protocols = {core::ProtocolKind::kTp};
    Experiment exp(cfg, opts);
    const unsigned long long before = g_allocs.load(std::memory_order_relaxed);
    exp.run();
    allocs[i] = g_allocs.load(std::memory_order_relaxed) - before;
    events[i] = exp.result().events_executed;
    ASSERT_TRUE(exp.result().invariants_ok);
  }
  ASSERT_GT(events[1], events[0] + 10'000u);
  const f64 marginal = static_cast<f64>(allocs[1] - allocs[0]) /
                       static_cast<f64>(events[1] - events[0]);
  EXPECT_LT(marginal, 1.15) << allocs[1] - allocs[0] << " allocations over "
                            << events[1] - events[0] << " steady-state events";
}

TEST(ScaleSmoke, TpSnapshotBytesPerEntryStayCompact) {
  // A checkpoint stores its dependency snapshot in the encoding the wire
  // is charged for (gap-coded host, ckpt and loc varints), not as 12-byte
  // structs: walking every record of the log, snapshot bytes over
  // snapshot entries read 4.7 at this config, 12.0 with structs.
  SimConfig cfg = scale_config();
  cfg.sim_length = 200.0;
  ExperimentOptions opts;
  opts.queue_kind = des::QueueKind::kCalendar;
  opts.protocols = {core::ProtocolKind::kTp};
  Experiment exp(cfg, opts);
  exp.run();
  ASSERT_TRUE(exp.result().invariants_ok);
  const core::CheckpointLog& log = exp.harness().log(0);
  u64 bytes = 0;
  u64 entries = 0;
  for (net::HostId h = 0; h < log.n_hosts(); ++h) {
    for (const core::CheckpointRecord& rec : log.of(h)) {
      net::DepReader in = rec.deps();
      while (!in.done()) in.next();
      bytes += static_cast<u64>(in.pos() - rec.dep_bytes);
      entries += rec.dep_count;
    }
  }
  ASSERT_GT(entries, 10'000u);
  const f64 per_entry = static_cast<f64>(bytes) / static_cast<f64>(entries);
  EXPECT_LE(per_entry, 6.0) << bytes << " snapshot bytes for " << entries << " entries";
}

}  // namespace
}  // namespace mobichk::sim
