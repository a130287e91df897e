// KERNEL SMOKE: release-build perf gate for the typed-event DES kernel.
//
// Measures, without google-benchmark (so CI can parse one small JSON):
//  * typed-churn events/s on the binary-heap queue, with observability
//    off AND with a KernelProbe attached, in 9 alternating pairs,
//  * heap allocations per event on both paths (global new/delete counter),
//  * one Figure 1 point end-to-end (events/s, wall-clock, trace hash),
//  * the observed Figure 1 point at L and 2L (median of 7 each, the two
//    lengths alternating): the doubling ratio must stay <= 2.5x, i.e.
//    observed runs scale linearly,
//  * the construction of an n=10^4 experiment on a full mesh of 50 and of
//    2000 MSSs (median of 5 each): setup_mss_ratio must stay <= 3.0, i.e.
//    setup does not grow with the cell count,
//  * one TP receive that interleaves k hosts new to the receiver
//    with the k it holds, at k = 2^13 and 2^14 (median of 5 each):
//    tp_merge_doubling_ratio must stay <= 3.0, i.e. the merge is linear.
//    glibc's mmap and trim thresholds are pinned and one untimed 2k
//    receive runs first, so both sizes grow into memory already touched
//    whatever earlier phases freed; the minor page faults taken inside
//    the timed receives are recorded.
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
#include <vector>

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "des/event.hpp"
#include "mobichk.hpp"
// The TP merge gate drives the concrete protocol class, which the
// umbrella does not export.
#include "core/protocols/tp.hpp"

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
constexpr usize kObservedRepeats = 7;
constexpr f64 kMaxDoublingRatio = 2.5;
constexpr usize kSetupRepeats = 5;
constexpr f64 kMaxSetupMssRatio = 3.0;
constexpr usize kMergeRepeats = 5;
constexpr u32 kMergeK = 1u << 13;
constexpr f64 kMaxMergeDoublingRatio = 3.0;

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

/// Minor page faults the process has taken so far.
i64 minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

struct MergeSample {
  f64 seconds = 0.0;
  i64 minor_faults = 0;  ///< Taken inside the timed receive.
};

/// One sparse TP receive of k entries into a receiver that holds k
/// others, interleaved: host 0 holds hosts 4i+2 and host 1 ships it hosts
/// 4i+3, so every shipped host is new and lands between two held ones.
/// Runs on a fresh TP-only experiment's harness; host 0 never sends, so
/// neither receive forces a checkpoint.
MergeSample tp_merge(u32 k) {
  sim::SimConfig c;
  c.network.n_hosts = 4 * k;
  c.network.n_mss = 50;
  c.seed = 42;
  sim::ExperimentOptions o;
  o.protocols = {core::ProtocolKind::kTp};
  sim::Experiment exp(c, o);
  auto& tp = static_cast<core::TpProtocol&>(exp.harness().protocol(0));
  const auto delta = [&c, k](u32 offset, u32 seq) {
    std::vector<net::DepEntry> entries;
    entries.reserve(k);
    for (u32 i = 0; i < k; ++i) entries.push_back({4 * i + offset, 1 + i % 7, i % 50});
    net::Piggyback pb;
    pb.has_delta = true;
    pb.delta_seq = seq;
    pb.dense_rank = 2 * c.network.n_hosts;
    pb.delta = net::encode_deps(entries);
    pb.delta_count = k;
    return pb;
  };
  net::AppMessage msg;
  msg.src = 1;
  msg.dst = 0;
  const net::MobileHost& host = exp.network().host(msg.dst);
  tp.handle_receive(host, msg, delta(2, 0));
  const net::Piggyback shipped = delta(3, 1);
  msg.id = 1;
  const i64 faults_before = minor_faults();
  const auto t = std::chrono::steady_clock::now();
  tp.handle_receive(host, msg, shipped);
  const f64 seconds = seconds_since(t);
  return MergeSample{seconds, minor_faults() - faults_before};
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
  // The runs take tens of milliseconds, so the two lengths alternate: a
  // slow phase of the host lands on both sides of the ratio instead of
  // inflating one median.
  const auto observed_wall = [&cfg](f64 length) {
    sim::SimConfig c = cfg;
    c.sim_length = length;
    obs::RunObserver watcher;
    sim::ExperimentOptions o;
    o.observer = &watcher;
    const auto t = std::chrono::steady_clock::now();
    (void)sim::run_experiment(c, o);
    return seconds_since(t);
  };
  std::array<f64, kObservedRepeats> short_walls{};
  std::array<f64, kObservedRepeats> long_walls{};
  for (usize i = 0; i < kObservedRepeats; ++i) {
    short_walls[i] = observed_wall(50'000.0);
    long_walls[i] = observed_wall(100'000.0);
  }
  const f64 observed_short = median_of(short_walls);
  const f64 observed_long = median_of(long_walls);
  const f64 doubling_ratio = observed_long / observed_short;
  std::printf("  observed fig1: L=50000 %.3fs, L=100000 %.3fs (median of %zu): %.2fx for 2x "
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

  // Setup scaling: constructing (not running) the n=10^4 experiment on a
  // full mesh of 2000 MSSs against 50. Wired distance is a closed form and
  // no setup structure is sized by cell pairs, so the ratio stays near 1;
  // anything built per MSS pair pushes it into the thousands. Pairs run
  // interleaved so warm-up and allocator state hit both sides alike.
  std::array<f64, kSetupRepeats> setup_mss50{};
  std::array<f64, kSetupRepeats> setup_mss2000{};
  const auto setup_wall = [](u32 n_mss) {
    sim::SimConfig c;
    c.network.n_hosts = 10'000;
    c.network.n_mss = n_mss;
    c.seed = 42;
    const auto t = std::chrono::steady_clock::now();
    const sim::Experiment exp(c, sim::ExperimentOptions{});
    return seconds_since(t);
  };
  for (usize i = 0; i < kSetupRepeats; ++i) {
    setup_mss50[i] = setup_wall(50);
    setup_mss2000[i] = setup_wall(2000);
  }
  const f64 setup50 = median_of(setup_mss50);
  const f64 setup2000 = median_of(setup_mss2000);
  const f64 setup_ratio = setup2000 / setup50;
  std::printf("  setup: n=10^4 full mesh, 50 MSS %.4fs, 2000 MSS %.4fs (median of %zu): "
              "%.2fx\n",
              setup50, setup2000, kSetupRepeats, setup_ratio);

  // TP merge scaling: one interleaved receive at k and 2k entries. A
  // linear merge takes about twice the time for twice the entries; a
  // per-entry sorted insert shifts the tail k times and reads about 4x.
  // First touch of fresh pages costs more than the merge itself, so both
  // sizes must grow their lists into memory the allocator has already
  // touched. With glibc's dynamic thresholds, whether the 2k growth comes
  // from fresh mmapped pages depends on what the earlier phases freed;
  // pinned, every list below 4 MiB comes from the heap, which keeps up to
  // 64 MiB of freed top memory mapped, and one untimed 2k receive touches
  // that memory first. Pairs run interleaved, each on a fresh experiment.
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 4 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
  (void)tp_merge(2 * kMergeK);
  std::array<f64, kMergeRepeats> merge_k_walls{};
  std::array<f64, kMergeRepeats> merge_2k_walls{};
  i64 merge_k_faults = 0;
  i64 merge_2k_faults = 0;
  for (usize i = 0; i < kMergeRepeats; ++i) {
    const MergeSample at_k = tp_merge(kMergeK);
    const MergeSample at_2k = tp_merge(2 * kMergeK);
    merge_k_walls[i] = at_k.seconds;
    merge_2k_walls[i] = at_2k.seconds;
    merge_k_faults += at_k.minor_faults;
    merge_2k_faults += at_2k.minor_faults;
  }
  const f64 merge_k = median_of(merge_k_walls);
  const f64 merge_2k = median_of(merge_2k_walls);
  const f64 merge_ratio = merge_2k / merge_k;
  std::printf("  tp merge: k=%u %.3gms, k=%u %.3gms (median of %zu): %.2fx for 2x the "
              "entries; minor faults in the timed receives %lld / %lld\n",
              kMergeK, merge_k * 1e3, 2 * kMergeK, merge_2k * 1e3, kMergeRepeats, merge_ratio,
              static_cast<long long>(merge_k_faults), static_cast<long long>(merge_2k_faults));

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
  std::fprintf(out, "  \"setup_mss50_seconds\": %.5f,\n", setup50);
  std::fprintf(out, "  \"setup_mss2000_seconds\": %.5f,\n", setup2000);
  std::fprintf(out, "  \"setup_mss_ratio\": %.3f,\n", setup_ratio);
  std::fprintf(out, "  \"tp_merge_k\": %u,\n", kMergeK);
  std::fprintf(out, "  \"tp_merge_seconds_k\": %.6f,\n", merge_k);
  std::fprintf(out, "  \"tp_merge_seconds_2k\": %.6f,\n", merge_2k);
  std::fprintf(out, "  \"tp_merge_doubling_ratio\": %.3f,\n", merge_ratio);
  std::fprintf(out, "  \"tp_merge_minor_faults_k\": %lld,\n",
               static_cast<long long>(merge_k_faults));
  std::fprintf(out, "  \"tp_merge_minor_faults_2k\": %lld,\n",
               static_cast<long long>(merge_2k_faults));
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
  // Setup gate: like the obs gate, ahead of the shard throughput gate.
  if (setup_ratio > kMaxSetupMssRatio) {
    std::fprintf(stderr, "FAIL: setup at 2000 MSS took %.2fx setup at 50 (bar %.1fx)\n",
                 setup_ratio, kMaxSetupMssRatio);
    return 1;
  }
  std::printf("setup gate: 2000-MSS setup %.2fx the 50-MSS setup <= %.1fx\n", setup_ratio,
              kMaxSetupMssRatio);
  // Merge gate: also ahead of the shard throughput gate.
  if (merge_ratio > kMaxMergeDoublingRatio) {
    std::fprintf(stderr, "FAIL: TP merge of 2k entries took %.2fx the merge of k (bar %.1fx)\n",
                 merge_ratio, kMaxMergeDoublingRatio);
    return 1;
  }
  std::printf("merge gate: TP merge %.2fx <= %.1fx for 2x the entries\n", merge_ratio,
              kMaxMergeDoublingRatio);
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
