// KERNEL SMOKE: release-build perf gate for the typed-event DES kernel.
//
// Measures, without google-benchmark (so CI can parse one small JSON):
//  * typed-churn events/s on the binary-heap queue, with observability
//    off AND with a KernelProbe attached, in 9 alternating pairs,
//  * heap allocations per event on both paths (global new/delete counter),
//  * one Figure 1 point end-to-end (events/s, wall-clock, trace hash),
//  * the observed Figure 1 point at L and 2L (median of 3 each): the
//    doubling ratio must stay <= 2.5x, i.e. observed runs scale linearly.
//
// Output: a BENCH_kernel.json blob on the path given by --out= (default
// ./BENCH_kernel.json). The CI perf-smoke job archives it per commit so
// kernel regressions show up as a trajectory, not an anecdote. The
// headline gated ratio is obs_on_off_ratio: probe-on over probe-off
// events/s, the median of the per-pair ratios. Both sides run in the same
// process on the same workload, so the ratio is machine-independent; with
// --baseline=<json> it must stay at or above the floor that
// bench/kernel_baseline.json records under the same key.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <thread>

#include "des/event.hpp"
#include "mobichk.hpp"

namespace {

std::atomic<unsigned long long> g_allocs{0};

}  // namespace

// Count every heap allocation the process makes; the churn loops below
// difference the counter around their measured region.
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

namespace {

using namespace mobichk;

constexpr u64 kChurnEvents = 200'000;
constexpr int kChurnFanout = 16;
constexpr usize kChurnPairs = 9;
constexpr int kObservedRepeats = 3;
constexpr f64 kMaxDoublingRatio = 2.5;

struct Measurement {
  f64 events_per_second = 0.0;
  f64 allocs_per_event = 0.0;
};

f64 seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<f64>(std::chrono::steady_clock::now() - t0).count();
}

/// Self-rescheduling exponential-ish churn through the typed-payload path.
struct ChurnTarget final : des::EventTarget {
  des::Simulator* sim = nullptr;
  des::RngStream* rng = nullptr;
  u64 fired = 0;

  void on_event(const des::EventPayload& p) override {
    ++fired;
    if (fired < kChurnEvents) sim->schedule_after(rng->uniform01(), p);
  }
};

/// One churn run on a fresh binary-heap simulator, optionally observed.
Measurement measure_churn(const obs::KernelProbe* probe) {
  des::Simulator sim(des::QueueKind::kBinaryHeap);
  sim.set_probe(probe);
  des::RngStream rng(1, "kernel-smoke");
  ChurnTarget target;
  target.sim = &sim;
  target.rng = &rng;
  des::EventPayload tick;
  tick.target = &target;
  tick.kind = des::EventKind::kWorkloadOp;
  const unsigned long long allocs_before = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kChurnFanout; ++i) sim.schedule_after(rng.uniform01(), tick);
  sim.run();
  const f64 wall = seconds_since(t0);
  const unsigned long long allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const f64 fired = static_cast<f64>(target.fired);
  return Measurement{fired / wall, static_cast<f64>(allocs) / fired};
}

template <usize N>
f64 median_of(std::array<f64, N> values) {
  std::sort(values.begin(), values.end());
  return values[N / 2];
}

/// obs_on_off_ratio floor recorded in a committed baseline JSON; 0.0 = no
/// file / no usable field.
f64 baseline_floor_from(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
    return 0.0;
  }
  std::ostringstream text;
  text << file.rdbuf();
  try {
    const sim::JsonValue doc = sim::json_parse(text.str());
    if (const sim::JsonValue* v = doc.find("obs_on_off_ratio")) return v->as_f64();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "baseline %s: %s\n", path.c_str(), e.what());
  }
  return 0.0;
}

int run(int argc, char** argv) {
  sim::FlagSet flags("kernel_smoke [flags]");
  flags.add("out", sim::FlagType::kString, "BENCH_kernel.json", "result JSON path")
      .add("baseline", sim::FlagType::kString, "",
           "committed baseline JSON; fail when obs_on_off_ratio drops below "
           "the floor it records under the same key")
      .add("profile-trace", sim::FlagType::kString, "",
           "write the profiled fig1 point's combined sim+host Chrome trace to <path>");
  const sim::ArgParser args = flags.parse(argc, argv);
  if (args.get_flag("help")) {
    flags.print_help(std::cout);
    return 0;
  }
  const std::string out_path = args.get_string("out", "BENCH_kernel.json");
  const std::string baseline_path = args.get_string("baseline", "");

  std::printf("kernel smoke: %llu-event churn on the binary-heap queue, median of %zu "
              "alternating probe-off/probe-on pairs\n",
              static_cast<unsigned long long>(kChurnEvents), kChurnPairs);
  // The probe-on side attaches a resolved KernelProbe: every push/pop
  // goes through the branch-on-null counters. The observer lives outside
  // the measured region; counter increments must not allocate. Pairs
  // alternate so drift in machine load hits both sides alike; the
  // allocation figures keep the worst run.
  obs::RunObserver observer;
  std::array<f64, kChurnPairs> off_eps{};
  std::array<f64, kChurnPairs> on_eps{};
  std::array<f64, kChurnPairs> pair_ratios{};
  Measurement typed;
  Measurement typed_obs;
  for (usize i = 0; i < kChurnPairs; ++i) {
    const Measurement off = measure_churn(nullptr);
    const Measurement on = measure_churn(observer.kernel_probe());
    off_eps[i] = off.events_per_second;
    on_eps[i] = on.events_per_second;
    pair_ratios[i] = on.events_per_second / off.events_per_second;
    typed.allocs_per_event = std::max(typed.allocs_per_event, off.allocs_per_event);
    typed_obs.allocs_per_event = std::max(typed_obs.allocs_per_event, on.allocs_per_event);
  }
  typed.events_per_second = median_of(off_eps);
  typed_obs.events_per_second = median_of(on_eps);
  const f64 obs_ratio = median_of(pair_ratios);
  std::printf("  typed path:     %.3gM events/s, %.3f allocs/event\n",
              typed.events_per_second / 1e6, typed.allocs_per_event);
  std::printf("  typed+obs path: %.3gM events/s, %.3f allocs/event\n",
              typed_obs.events_per_second / 1e6, typed_obs.allocs_per_event);
  std::printf("  obs on/off ratio: %.3f (median of %zu pairs)\n", obs_ratio, kChurnPairs);

  // One Figure 1 point, end-to-end (the golden determinism config).
  sim::SimConfig cfg;
  cfg.sim_length = 50'000.0;
  cfg.t_switch = 1'000.0;
  cfg.p_switch = 1.0;
  cfg.heterogeneity = 0.0;
  cfg.seed = 42;
  sim::ExperimentOptions opts;
  opts.collect_trace_hash = true;
  const auto t0 = std::chrono::steady_clock::now();
  const sim::RunResult fig1 = sim::run_experiment(cfg, opts);
  const f64 fig1_wall = seconds_since(t0);
  const f64 fig1_eps = static_cast<f64>(fig1.events_executed) / fig1_wall;
  std::printf("  fig1 point: %llu events in %.3fs (%.3gM events/s), hash=%016llx\n",
              static_cast<unsigned long long>(fig1.events_executed), fig1_wall, fig1_eps / 1e6,
              static_cast<unsigned long long>(fig1.trace_hash));

  // The same point with the host-time profiler AND the observer attached:
  // the trace hash must not move, and the profiler's per-kind dispatch
  // counts must reconcile with the kernel probe's des.dispatch.* counters
  // — the same events, counted by two independent mechanisms.
  obs::RunObserver prof_observer;
  obs::Profiler profiler;
  sim::ExperimentOptions prof_opts;
  prof_opts.collect_trace_hash = true;
  prof_opts.observer = &prof_observer;
  prof_opts.profiler = &profiler;
  const auto prof_t0 = std::chrono::steady_clock::now();
  const sim::RunResult fig1_prof = sim::run_experiment(cfg, prof_opts);
  const f64 prof_wall = seconds_since(prof_t0);
  f64 prof_dispatch_seconds = 0.0;
  for (usize k = 0; k < des::kEventKindCount; ++k) {
    prof_dispatch_seconds += profiler.dispatch_seconds(k);
  }
  std::printf("  fig1 profiled: %.3fs wall (obs-off %.3fs), %.3fs in dispatch, hash=%016llx\n",
              prof_wall, fig1_wall, prof_dispatch_seconds,
              static_cast<unsigned long long>(fig1_prof.trace_hash));
  const std::string profile_trace_path = args.get_string("profile-trace", "");
  if (!profile_trace_path.empty()) {
    obs::write_chrome_trace(profile_trace_path, prof_observer, &profiler);
    std::printf("  wrote %s\n", profile_trace_path.c_str());
  }

  // Observed-run scaling: the Fig.1 point with a RunObserver attached
  // (online recovery-line tracking plus its Z-cycle finalize) at L and
  // 2L. A linear pipeline takes about twice the time for twice the run;
  // the gate below fails above 2.5x, which a quadratic stage exceeds.
  const auto observed_wall = [&cfg](f64 length) {
    std::array<f64, kObservedRepeats> walls{};
    for (f64& wall : walls) {
      sim::SimConfig c = cfg;
      c.sim_length = length;
      obs::RunObserver watcher;
      sim::ExperimentOptions o;
      o.observer = &watcher;
      const auto t = std::chrono::steady_clock::now();
      (void)sim::run_experiment(c, o);
      wall = seconds_since(t);
    }
    std::sort(walls.begin(), walls.end());
    return walls[kObservedRepeats / 2];
  };
  const f64 observed_short = observed_wall(50'000.0);
  const f64 observed_long = observed_wall(100'000.0);
  const f64 doubling_ratio = observed_long / observed_short;
  std::printf("  observed fig1: L=50000 %.3fs, L=100000 %.3fs (median of %d): %.2fx for 2x "
              "the run\n",
              observed_short, observed_long, kObservedRepeats, doubling_ratio);

  // One large-n point (10^4 hosts, short horizon, sparse TP piggybacks):
  // the city-scale smoke. Records throughput plus the encoded vs
  // dense-equivalent control-byte split so scaling regressions land in
  // the same trajectory file as the kernel numbers.
  sim::SimConfig scale_cfg;
  scale_cfg.network.n_hosts = 10'000;
  scale_cfg.network.n_mss = 500;
  scale_cfg.sim_length = 50.0;
  scale_cfg.t_switch = 1'000.0;
  scale_cfg.p_switch = 1.0;
  scale_cfg.heterogeneity = 0.0;
  scale_cfg.seed = 42;
  sim::ExperimentOptions scale_opts;
  scale_opts.queue_kind = des::QueueKind::kCalendar;
  const auto scale_t0 = std::chrono::steady_clock::now();
  const sim::RunResult scale = sim::run_experiment(scale_cfg, scale_opts);
  const f64 scale_wall = seconds_since(scale_t0);
  const f64 scale_eps = static_cast<f64>(scale.events_executed) / scale_wall;
  const u64 scale_encoded = scale.by_name("TP").piggyback_bytes;
  const u64 scale_dense = scale.by_name("TP").piggyback_dense_bytes;
  std::printf("  scale point: n=10^4, %llu events in %.3fs (%.3gM events/s), "
              "TP enc/dense = %llu/%llu B\n",
              static_cast<unsigned long long>(scale.events_executed), scale_wall,
              scale_eps / 1e6, static_cast<unsigned long long>(scale_encoded),
              static_cast<unsigned long long>(scale_dense));

  // The same city-scale point at n=10^5 under the spatially sharded
  // engine: shards=1 (sequential path) vs shards=4, with trace hashing on
  // so the comparison doubles as a bit-identity gate. The >= 1.8x
  // throughput bar only arms when the machine actually has >= 4 hardware
  // threads — on smaller runners the parallel engine time-slices on one
  // core and the number is meaningless, but identity must still hold.
  const unsigned hw_threads = std::thread::hardware_concurrency();
  sim::SimConfig shard_cfg;
  shard_cfg.network.n_hosts = 100'000;
  shard_cfg.network.n_mss = 512;
  shard_cfg.sim_length = 50.0;
  shard_cfg.t_switch = 1'000.0;
  shard_cfg.p_switch = 1.0;
  shard_cfg.heterogeneity = 0.0;
  shard_cfg.seed = 42;
  sim::ExperimentOptions shard_opts;
  shard_opts.queue_kind = des::QueueKind::kCalendar;
  shard_opts.collect_trace_hash = true;
  const auto seq_t0 = std::chrono::steady_clock::now();
  const sim::RunResult shard_seq = sim::run_experiment(shard_cfg, shard_opts);
  const f64 shard_seq_wall = seconds_since(seq_t0);
  shard_opts.shards = 4;
  const auto par_t0 = std::chrono::steady_clock::now();
  const sim::RunResult shard_par = sim::run_experiment(shard_cfg, shard_opts);
  const f64 shard_par_wall = seconds_since(par_t0);
  const f64 shard_speedup = shard_seq_wall / shard_par_wall;
  std::printf("  shard point: n=10^5 x4 shards, %llu events, %.3fs -> %.3fs (%.2fx, "
              "%llu sync rounds, %.3fs stall), hash %016llx vs %016llx\n",
              static_cast<unsigned long long>(shard_par.events_executed), shard_seq_wall,
              shard_par_wall, shard_speedup,
              static_cast<unsigned long long>(shard_par.sync_rounds),
              shard_par.barrier_stall_seconds,
              static_cast<unsigned long long>(shard_seq.trace_hash),
              static_cast<unsigned long long>(shard_par.trace_hash));

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"kernel_smoke\",\n");
  std::fprintf(out, "  \"queue\": \"binary-heap\",\n");
  std::fprintf(out, "  \"churn_events\": %llu,\n",
               static_cast<unsigned long long>(kChurnEvents));
  std::fprintf(out, "  \"typed_events_per_second\": %.1f,\n", typed.events_per_second);
  std::fprintf(out, "  \"typed_allocs_per_event\": %.4f,\n", typed.allocs_per_event);
  std::fprintf(out, "  \"typed_obs_events_per_second\": %.1f,\n", typed_obs.events_per_second);
  std::fprintf(out, "  \"typed_obs_allocs_per_event\": %.4f,\n", typed_obs.allocs_per_event);
  std::fprintf(out, "  \"obs_on_off_ratio\": %.3f,\n", obs_ratio);
  std::fprintf(out, "  \"fig1_events\": %llu,\n",
               static_cast<unsigned long long>(fig1.events_executed));
  std::fprintf(out, "  \"fig1_wall_seconds\": %.4f,\n", fig1_wall);
  std::fprintf(out, "  \"fig1_events_per_second\": %.1f,\n", fig1_eps);
  std::fprintf(out, "  \"fig1_trace_hash\": \"%016llx\",\n",
               static_cast<unsigned long long>(fig1.trace_hash));
  std::fprintf(out, "  \"fig1_prof_wall_seconds\": %.4f,\n", prof_wall);
  std::fprintf(out, "  \"fig1_prof_dispatch_seconds\": %.4f,\n", prof_dispatch_seconds);
  std::fprintf(out, "  \"fig1_prof_overhead_ratio\": %.3f,\n",
               fig1_wall > 0.0 ? prof_wall / fig1_wall : 0.0);
  std::fprintf(out, "  \"obs_l50k_wall_seconds\": %.4f,\n", observed_short);
  std::fprintf(out, "  \"obs_l100k_wall_seconds\": %.4f,\n", observed_long);
  std::fprintf(out, "  \"obs_doubling_ratio\": %.3f,\n", doubling_ratio);
  std::fprintf(out, "  \"scale_hosts\": %u,\n", scale_cfg.network.n_hosts);
  std::fprintf(out, "  \"scale_events\": %llu,\n",
               static_cast<unsigned long long>(scale.events_executed));
  std::fprintf(out, "  \"scale_wall_seconds\": %.4f,\n", scale_wall);
  std::fprintf(out, "  \"scale_events_per_second\": %.1f,\n", scale_eps);
  std::fprintf(out, "  \"scale_tp_encoded_bytes\": %llu,\n",
               static_cast<unsigned long long>(scale_encoded));
  std::fprintf(out, "  \"scale_tp_dense_bytes\": %llu,\n",
               static_cast<unsigned long long>(scale_dense));
  std::fprintf(out, "  \"hardware_threads\": %u,\n", hw_threads);
  std::fprintf(out, "  \"shard_hosts\": %u,\n", shard_cfg.network.n_hosts);
  std::fprintf(out, "  \"shard_count\": 4,\n");
  std::fprintf(out, "  \"shard_seq_wall_seconds\": %.4f,\n", shard_seq_wall);
  std::fprintf(out, "  \"shard_par_wall_seconds\": %.4f,\n", shard_par_wall);
  std::fprintf(out, "  \"shard_speedup\": %.3f,\n", shard_speedup);
  std::fprintf(out, "  \"shard_sync_rounds\": %llu,\n",
               static_cast<unsigned long long>(shard_par.sync_rounds));
  std::fprintf(out, "  \"shard_barrier_stall_seconds\": %.4f,\n",
               shard_par.barrier_stall_seconds);
  std::fprintf(out, "  \"shard_trace_hash\": \"%016llx\"\n",
               static_cast<unsigned long long>(shard_par.trace_hash));
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  // Gate: the typed hot path must stay allocation-free per event, with
  // and without a probe attached.
  if (typed.allocs_per_event > 0.01) {
    std::fprintf(stderr, "FAIL: typed path allocates (%.4f allocs/event)\n",
                 typed.allocs_per_event);
    return 1;
  }
  if (typed_obs.allocs_per_event > 0.01) {
    std::fprintf(stderr, "FAIL: typed path with probe allocates (%.4f allocs/event)\n",
                 typed_obs.allocs_per_event);
    return 1;
  }
  // Observability-cost gate against the committed floor. It runs before
  // the shard throughput gate, which returns early on machines where the
  // sharded engine does not yet pay for itself.
  if (!baseline_path.empty()) {
    const f64 floor = baseline_floor_from(baseline_path);
    if (floor <= 0.0) {
      std::fprintf(stderr, "FAIL: baseline %s unusable\n", baseline_path.c_str());
      return 1;
    }
    if (obs_ratio < floor) {
      std::fprintf(stderr, "FAIL: obs on/off ratio %.3f below the committed floor %.3f\n",
                   obs_ratio, floor);
      return 1;
    }
    std::printf("obs gate: on/off ratio %.3f >= committed floor %.3f\n", obs_ratio, floor);
  }
  if (scale_encoded > scale_dense || scale.events_executed == 0) {
    std::fprintf(stderr, "FAIL: scale point broken (events=%llu, enc=%llu, dense=%llu)\n",
                 static_cast<unsigned long long>(scale.events_executed),
                 static_cast<unsigned long long>(scale_encoded),
                 static_cast<unsigned long long>(scale_dense));
    return 1;
  }
  // Profiler gates: attaching it must not perturb the simulation, and its
  // per-kind dispatch counts must agree with the kernel probe's
  // des.dispatch.* counters to within one event.
  if (fig1_prof.trace_hash != fig1.trace_hash) {
    std::fprintf(stderr, "FAIL: profiled fig1 hash %016llx != unprofiled %016llx\n",
                 static_cast<unsigned long long>(fig1_prof.trace_hash),
                 static_cast<unsigned long long>(fig1.trace_hash));
    return 1;
  }
  for (usize k = 0; k < des::kEventKindCount; ++k) {
    const u64 probe_count = prof_observer.kernel_probe()->dispatched[k]->value();
    const u64 prof_count = profiler.dispatch_count(k);
    const u64 diff = probe_count > prof_count ? probe_count - prof_count : prof_count - probe_count;
    if (diff > 1) {
      std::fprintf(stderr,
                   "FAIL: dispatch reconciliation for %s: profiler %llu vs probe %llu\n",
                   des::event_kind_name(k), static_cast<unsigned long long>(prof_count),
                   static_cast<unsigned long long>(probe_count));
      return 1;
    }
  }
  std::printf("profile gate: hash pinned, dispatch counts reconcile across all %zu kinds\n",
              des::kEventKindCount);
  if (doubling_ratio > kMaxDoublingRatio) {
    std::fprintf(stderr, "FAIL: observed run 2x longer took %.2fx the time (bar %.1fx)\n",
                 doubling_ratio, kMaxDoublingRatio);
    return 1;
  }
  std::printf("doubling gate: observed run %.2fx <= %.1fx for 2x the run\n", doubling_ratio,
              kMaxDoublingRatio);
  // Sharded gates: bit-identity is unconditional; the throughput bar only
  // applies where 4 shards can actually run in parallel.
  if (shard_par.trace_hash != shard_seq.trace_hash ||
      shard_par.events_executed != shard_seq.events_executed) {
    std::fprintf(stderr, "FAIL: 4-shard scale point diverged from sequential "
                 "(hash %016llx vs %016llx, events %llu vs %llu)\n",
                 static_cast<unsigned long long>(shard_par.trace_hash),
                 static_cast<unsigned long long>(shard_seq.trace_hash),
                 static_cast<unsigned long long>(shard_par.events_executed),
                 static_cast<unsigned long long>(shard_seq.events_executed));
    return 1;
  }
  if (hw_threads >= 4) {
    if (shard_speedup < 1.8) {
      std::fprintf(stderr, "FAIL: 4-shard speedup %.2fx below the 1.8x bar on %u threads\n",
                   shard_speedup, hw_threads);
      return 1;
    }
    std::printf("shard gate: %.2fx >= 1.8x on %u hardware threads\n", shard_speedup, hw_threads);
  } else {
    std::printf("shard gate: skipped (%u hardware thread(s) < 4; identity still enforced)\n",
                hw_threads);
  }
  std::printf("PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
