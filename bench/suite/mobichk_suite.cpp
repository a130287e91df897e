// mobichk_suite: one repetition of one benchmark workload.
//
// Written only against the public header. run_bench.py starts one process
// per repetition (so each gets its own peak RSS) and reads the single JSON
// line this prints on stdout:
//
//   ops / failed_ops / failures  simulation runs made, how many failed (a
//                                broken invariant ledger or suite check),
//                                and one line per failure
//   fingerprint                  FNV-1a of every deterministic statistic the
//                                workload produced (compared with pins.json)
//   timing                       host seconds around the public calls: setup
//                                (Experiment constructors), loop
//                                (RunResult::wall_seconds), run() calls,
//                                export, teardown (destructors) and the
//                                workload's first-to-last call (wall_s)
//   layers                       per-layer metrics, only with --profile
//   accuracy                     paper_figs only: gains next to the paper's
//   spans                        the suite's own span tree
//
// --profile adds a traced pass after the workload: each of its simulations
// runs again, first without and then with an obs::Profiler attached. The
// profiled run gives the prof.* layer times and the pair gives
// obs.prof_overhead_ratio. Timing fields describe the untraced workload.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "mobichk.hpp"

#ifndef MOBICHK_SUITE_BUILD_TYPE
#define MOBICHK_SUITE_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mobichk;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_t0 = Clock::now();

f64 now_s() { return std::chrono::duration<f64>(Clock::now() - g_t0).count(); }

// ---------------------------------------------------------------------------
// Spans: workload > rep > setup / run{loop, post_run} / export / teardown,
// kept in memory and printed with the result. Times are seconds since the
// process started; run_bench.py rebases them onto the suite's clock.

struct Span {
  std::string name;
  int parent = -1;
  f64 start = 0.0;
  f64 end = 0.0;
};

class SpanLog {
 public:
  int open(std::string name) {
    spans_.push_back(Span{std::move(name), stack_.empty() ? -1 : stack_.back(), now_s(), 0.0});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  f64 close() {
    Span& s = spans_[static_cast<usize>(stack_.back())];
    stack_.pop_back();
    s.end = now_s();
    return s.end - s.start;
  }
  /// A closed child of the innermost open span with explicit bounds.
  void add(std::string name, f64 start, f64 end) {
    spans_.push_back(Span{std::move(name), stack_.empty() ? -1 : stack_.back(), start, end});
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(SpanLog& log, std::string name) : log_(log) { log_.open(std::move(name)); }
  ~Scope() {
    if (!closed_) log_.close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// Ends the span early and returns its duration in seconds.
  f64 close() {
    closed_ = true;
    return log_.close();
  }

 private:
  SpanLog& log_;
  bool closed_ = false;
};

// ---------------------------------------------------------------------------
// Fingerprint: canonical "key=value" text of deterministic statistics,
// doubles printed with %.17g, folded with FNV-1a 64.

constexpr u64 kFnvBasis = 0xCBF29CE484222325ULL;

u64 fnv1a(u64 h, char c) noexcept {
  return (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
}

class Fingerprint {
 public:
  void add(const std::string& key, u64 v) {
    text_ += key + '=' + std::to_string(v) + '\n';
  }
  void add(const std::string& key, f64 v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    text_ += key + '=' + buf + '\n';
  }
  std::string hex() const {
    u64 h = kFnvBasis;
    for (const char c : text_) h = fnv1a(h, c);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
  }

 private:
  std::string text_;
};

void add_result(Fingerprint& fp, const std::string& prefix, const sim::RunResult& r) {
  fp.add(prefix + "events", r.events_executed);
  fp.add(prefix + "workload_ops", r.workload_ops);
  for (const sim::ProtocolRunStats& p : r.protocols) {
    const std::string k = prefix + p.name + '.';
    fp.add(k + "n_tot", p.n_tot);
    fp.add(k + "forced", p.forced);
    fp.add(k + "basic", p.basic);
    fp.add(k + "total", p.total);
    fp.add(k + "piggyback_bytes", p.piggyback_bytes);
    fp.add(k + "piggyback_dense_bytes", p.piggyback_dense_bytes);
    fp.add(k + "control_messages", p.control_messages);
  }
  const net::NetworkStats& n = r.net;
  const std::string k = prefix + "net.";
  fp.add(k + "app_sent", n.app_sent);
  fp.add(k + "app_delivered", n.app_delivered);
  fp.add(k + "app_received", n.app_received);
  fp.add(k + "control_messages", n.control_messages);
  fp.add(k + "wireless_messages", n.wireless_messages);
  fp.add(k + "wired_hops", n.wired_hops);
  fp.add(k + "handoffs", n.handoffs);
  fp.add(k + "disconnects", n.disconnects);
  fp.add(k + "reconnects", n.reconnects);
  fp.add(k + "crashes", n.crashes);
  fp.add(k + "restores", n.restores);
  fp.add(k + "chase_forwards", n.chase_forwards);
  fp.add(k + "buffered_deliveries", n.buffered_deliveries);
  fp.add(k + "payload_bytes", n.payload_bytes);
  fp.add(k + "bulk_transfers", n.bulk_transfers);
  fp.add(k + "bulk_wired_bytes", n.bulk_wired_bytes);
  fp.add(k + "piggyback_bytes", n.piggyback_bytes);
  fp.add(k + "piggyback_dense_bytes", n.piggyback_dense_bytes);
}

// ---------------------------------------------------------------------------
// Per-layer metrics, summed over the profiled simulations of one repetition.

const char* const kLayerNames[] = {
    "des.queue_push_s",
    "des.queue_pop_s",
    "des.dispatch_incl_s.message_hop",
    "des.dispatch_incl_s.workload_op",
    "des.dispatch_incl_s.handoff",
    "des.dispatch_incl_s.connectivity",
    "des.unattributed_s",
    "des.events",
    "des.max_pending",
    "des.sync_rounds",
    "des.events_per_round",
    "des.barrier_stall_s",
    "des.shard_barrier_s",
    "des.imbalance_ratio",
    "net.leg_s",
    "net.pb_encode_s",
    "net.pb_merge_s",
    "net.wireless_messages",
    "net.wired_hops",
    "net.handoffs",
    "net.piggyback_bytes",
    "net.piggyback_dense_bytes",
    "core.proto_s.TP",
    "core.proto_s.BCS",
    "core.proto_s.QBC",
    "core.n_tot.TP",
    "core.n_tot.BCS",
    "core.n_tot.QBC",
    "core.forced_ratio.TP",
    "core.forced_ratio.BCS",
    "core.forced_ratio.QBC",
    "core.ckpt_records",
    "sim.setup_s",
    "sim.teardown_s",
    "sim.sweep.efficiency",
    "sim.sweep.point_wall_max_s",
    "obs.finalize_s",
    "obs.export_jsonl_s",
    "obs.export_chrome_s",
    "obs.timeline_events",
    "obs.overhead_ratio",
    "obs.prof_overhead_ratio",
};

f64 sample(const sim::RunResult& r, const std::string& name) {
  for (const obs::MetricSample& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

class Layers {
 public:
  Layers() {
    for (const char* n : kLayerNames) v_[n] = 0.0;
  }
  f64& operator[](const std::string& name) {
    auto it = v_.find(name);
    if (it == v_.end()) throw std::logic_error("unknown layer metric " + name);
    return it->second;
  }

  /// Folds one profiled run in. `untraced_loop_s` is the loop time of the
  /// same config run without the profiler; `profiler` is the one attached.
  void add_run(const sim::RunResult& r, const obs::Profiler& profiler, f64 untraced_loop_s) {
    auto& v = *this;
    v["des.queue_push_s"] += sample(r, "prof.queue.push.seconds");
    v["des.queue_pop_s"] += sample(r, "prof.queue.pop.seconds");
    const auto dispatch = [&](const char* kind) {
      return sample(r, std::string("prof.dispatch.") + kind + ".seconds");
    };
    v["des.dispatch_incl_s.message_hop"] += dispatch("message_hop");
    v["des.dispatch_incl_s.workload_op"] += dispatch("workload_op");
    v["des.dispatch_incl_s.handoff"] += dispatch("handoff");
    v["des.dispatch_incl_s.connectivity"] += dispatch("connectivity");
    // Loop time the coordinator lane cannot account for: what the queue
    // pop, the dispatch buckets and the barrier wait leave of the loop.
    const obs::ProfLane& lane0 = profiler.lane_ref(0);
    f64 lane0_dispatch = 0.0;
    for (const obs::PhaseAccum& d : lane0.dispatch) lane0_dispatch += d.seconds();
    v["des.unattributed_s"] +=
        r.wall_seconds - lane0.queue_pop.seconds() - lane0_dispatch - lane0.barrier.seconds();
    v["des.events"] += static_cast<f64>(r.events_executed);
    v["des.max_pending"] =
        std::max(v["des.max_pending"], static_cast<f64>(r.invariants.max_pending));
    v["des.sync_rounds"] += static_cast<f64>(r.sync_rounds);
    v["des.barrier_stall_s"] += r.barrier_stall_seconds;
    for (const obs::MetricSample& m : r.metrics) {
      if (m.name.rfind("prof.shard.", 0) == 0 &&
          m.name.size() > 16 && m.name.compare(m.name.size() - 16, 16, ".barrier_seconds") == 0) {
        v["des.shard_barrier_s"] += m.value;
      }
    }
    v["des.imbalance_ratio"] = std::max(v["des.imbalance_ratio"], profiler.imbalance_ratio());
    if (r.shards > 1) sharded_events_ += static_cast<f64>(r.events_executed);

    v["net.leg_s"] += sample(r, "prof.net.leg.seconds");
    v["net.pb_encode_s"] += sample(r, "prof.net.pb_encode.seconds");
    v["net.pb_merge_s"] += sample(r, "prof.net.pb_merge.seconds");
    v["net.wireless_messages"] += static_cast<f64>(r.net.wireless_messages);
    v["net.wired_hops"] += static_cast<f64>(r.net.wired_hops);
    v["net.handoffs"] += static_cast<f64>(r.net.handoffs);
    v["net.piggyback_bytes"] += static_cast<f64>(r.net.piggyback_bytes);
    v["net.piggyback_dense_bytes"] += static_cast<f64>(r.net.piggyback_dense_bytes);

    for (const sim::ProtocolRunStats& p : r.protocols) {
      v["core.proto_s." + p.name] += sample(r, "prof.proto." + p.name + ".seconds");
      v["core.n_tot." + p.name] += static_cast<f64>(p.n_tot);
      forced_[p.name] += static_cast<f64>(p.forced);
      v["core.ckpt_records"] += static_cast<f64>(p.total);
    }

    traced_loop_s_ += r.wall_seconds;
    untraced_loop_s_ += untraced_loop_s;
  }

  /// Ratios that need every run folded in first.
  void finish() {
    auto& v = *this;
    for (const auto& [name, forced] : forced_) {
      const f64 n_tot = v["core.n_tot." + name];
      v["core.forced_ratio." + name] = n_tot > 0.0 ? forced / n_tot : 0.0;
    }
    const f64 rounds = v["des.sync_rounds"];
    v["des.events_per_round"] = rounds > 0.0 ? sharded_events_ / rounds : 0.0;
    v["obs.prof_overhead_ratio"] =
        untraced_loop_s_ > 0.0 ? traced_loop_s_ / untraced_loop_s_ : 0.0;
  }

  const std::map<std::string, f64>& values() const noexcept { return v_; }

 private:
  std::map<std::string, f64> v_;
  std::map<std::string, f64> forced_;
  f64 sharded_events_ = 0.0;
  f64 traced_loop_s_ = 0.0;
  f64 untraced_loop_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// Export sink: counts and hashes bytes without touching the disk, so the
// export spans time serialization rather than the filesystem.

class DigestBuf final : public std::streambuf {
 public:
  u64 bytes() const noexcept { return bytes_; }
  u64 hash() const noexcept { return hash_; }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) put(traits_type::to_char_type(c));
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }

 private:
  void put(char c) noexcept {
    ++bytes_;
    hash_ = fnv1a(hash_, c);
  }
  u64 bytes_ = 0;
  u64 hash_ = kFnvBasis;
};

// ---------------------------------------------------------------------------
// One repetition.

struct Options {
  std::string workload;
  u64 seed = 42;
  bool profile = false;
  u32 shards = 0;  ///< 0 = the workload's default.
};

/// The one Experiment of a single-config workload.
struct Job {
  sim::SimConfig cfg;
  sim::ExperimentOptions opts;
};

struct Accuracy {
  std::string figure;
  f64 tp_bcs_max = 0.0;
  f64 tp_bcs_at = 0.0;
  f64 bcs_qbc_max = 0.0;
  f64 bcs_qbc_at = 0.0;
  std::string paper;
};

class Rep {
 public:
  explicit Rep(Options opts) : opts_(std::move(opts)) {}

  SpanLog spans;
  Fingerprint fp;
  Layers layers;
  std::vector<Accuracy> accuracy;
  std::vector<std::string> failures;  ///< One line per failed suite check.
  u64 ops = 0;
  u64 failed_ops = 0;
  u64 events = 0;
  f64 events_per_s = 0.0;
  f64 wall_s = 0.0;
  f64 setup_s = 0.0;
  f64 loop_s = 0.0;
  f64 run_s = 0.0;  ///< run() calls, loop plus post-run analysis
  f64 teardown_s = 0.0;
  f64 export_s = 0.0;

  const Options& opts() const noexcept { return opts_; }

  void fail(const std::string& what, u64 ops_lost = 1) {
    failures.push_back(what);
    failed_ops += ops_lost;
  }

  /// Setup, run and teardown of one Experiment under the span tree.
  /// `between` runs after run() and before teardown (exports).
  template <typename Between>
  sim::RunResult simulate(const sim::SimConfig& cfg, const sim::ExperimentOptions& opts,
                          Between&& between, bool timed = true) {
    Scope sim_span(spans, "sim");
    std::unique_ptr<sim::Experiment> exp;
    {
      Scope s(spans, "setup");
      exp = std::make_unique<sim::Experiment>(cfg, opts);
      const f64 d = s.close();
      if (timed) setup_s += d;
    }
    {
      Scope s(spans, "run");
      const f64 start = now_s();
      exp->run();
      const f64 end = now_s();
      const f64 loop = exp->result().wall_seconds;
      spans.add("loop", start, start + loop);
      spans.add("post_run", start + loop, end);
      s.close();
      if (timed) {
        loop_s += loop;
        run_s += end - start;
      }
    }
    sim::RunResult result = exp->result();
    between(result);
    {
      Scope s(spans, "teardown");
      exp.reset();
      const f64 d = s.close();
      if (timed) teardown_s += d;
    }
    ++ops;
    if (!result.invariants_ok) fail("invariant ledger broken in " + cfg_label(cfg));
    if (timed) events += result.events_executed;
    return result;
  }

  sim::RunResult simulate(const sim::SimConfig& cfg, const sim::ExperimentOptions& opts,
                          bool timed = true) {
    return simulate(cfg, opts, [](const sim::RunResult&) {}, timed);
  }

  /// The traced pass for one config: an unprofiled reference run, then
  /// the same config with a profiler attached. `observe` gives each of
  /// the two runs its own RunObserver.
  void trace(const sim::SimConfig& cfg, const sim::ExperimentOptions& opts,
             bool observe = false) {
    Scope t(spans, "traced");
    obs::RunObserver plain_observer, profiled_observer;
    sim::ExperimentOptions popts = opts;
    if (observe) popts.observer = &plain_observer;
    const sim::RunResult plain = simulate(cfg, popts, false);
    obs::Profiler profiler;
    popts.profiler = &profiler;
    if (observe) popts.observer = &profiled_observer;
    const sim::RunResult profiled = simulate(cfg, popts, false);
    if (profiled.events_executed != plain.events_executed) {
      fail("profiled run diverged from unprofiled in " + cfg_label(cfg));
    }
    layers.add_run(profiled, profiler, plain.wall_seconds);
  }

 private:
  static std::string cfg_label(const sim::SimConfig& cfg) {
    return "n=" + std::to_string(cfg.network.n_hosts) + " seed=" + std::to_string(cfg.seed);
  }
  Options opts_;
};

/// Pool threads for paper_figs and shards for city_1e5_sharded. Two, not
/// every core: on a shared machine a workload that fills all cores times
/// the scheduler, and one neighbour on one core stalls a whole sweep round
/// or shard barrier (4 threads spread 21% between repetitions, 2 spread 9%,
/// 1 spread 8%).
u32 parallel_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1u, std::min(2u, hw));
}

// -- paper_figs ---------------------------------------------------------------
// Figures 1-6: 6 (P_switch, H) specs x 7 T_switch points x 2 fixed seeds.

struct FigureDef {
  const char* title;
  f64 p_switch;
  f64 heterogeneity;
  const char* paper;  ///< The paper's headline for this figure, if it quotes one.
};

constexpr FigureDef kFigures[] = {
    {"Fig. 1", 1.0, 0.0, "TP->BCS ~90% at T_switch=10000"},
    {"Fig. 2", 0.8, 0.0, "BCS->QBC up to ~15% with disconnections"},
    {"Fig. 3", 1.0, 0.5, ""},
    {"Fig. 4", 0.8, 0.5, "BCS->QBC up to ~15% with disconnections"},
    {"Fig. 5", 1.0, 0.3, ""},
    {"Fig. 6", 0.8, 0.3, "BCS->QBC ~23% at H=30%, P_switch=0.8"},
};

// A quarter of the paper's horizon, so one sweep on two threads takes about
// as long as one repetition of the other workloads (2-4 s).
constexpr f64 kFigureLength = 125'000.0;

sim::FigureSpec figure_spec(const FigureDef& def, u64 seed) {
  sim::FigureSpec spec;
  spec.title = def.title;
  spec.base.sim_length = kFigureLength;
  spec.base.p_switch = def.p_switch;
  spec.base.heterogeneity = def.heterogeneity;
  spec.min_seeds = 2;
  spec.max_seeds = 2;
  spec.seed_base = seed;
  return spec;
}

/// Replication 0 of every (figure, point) config, as run_figure derives it.
std::vector<sim::SimConfig> first_replications(u64 seed) {
  std::vector<sim::SimConfig> out;
  for (const FigureDef& def : kFigures) {
    const sim::FigureSpec spec = figure_spec(def, seed);
    for (usize p = 0; p < spec.t_switch_values.size(); ++p) {
      sim::SimConfig cfg = spec.base;
      cfg.t_switch = spec.t_switch_values[p];
      cfg.seed = spec.replication_seed(p, 0);
      out.push_back(cfg);
    }
  }
  return out;
}

void paper_figs(Rep& rep) {
  const u32 threads = parallel_threads();
  const sim::ExperimentOptions opts;  // binary heap, TP/BCS/QBC
  // run_figure builds its Experiments inside the pool, out of reach of a
  // timer. setup_s is the time to build replication 0 of every (figure,
  // point) config on this thread instead, before the sweep.
  {
    Scope s(rep.spans, "setup");
    for (const sim::SimConfig& cfg : first_replications(rep.opts().seed)) {
      const f64 start = now_s();
      const sim::Experiment exp(cfg, opts);
      rep.setup_s += now_s() - start;
    }
  }
  f64 sweep_wall = 0.0;
  f64 point_wall_sum = 0.0;
  f64 point_wall_max = 0.0;
  {
    Scope w(rep.spans, "sweep");
    for (const FigureDef& def : kFigures) {
      const sim::FigureSpec spec = figure_spec(def, rep.opts().seed);
      Scope f(rep.spans, def.title);
      const sim::FigureResult res = sim::run_figure(spec, opts, threads);
      f.close();
      const sim::SweepLedger& ledger = res.ledger;
      sweep_wall += ledger.wall_seconds;
      rep.events += ledger.events_executed;
      rep.ops += ledger.replications_run;
      for (const f64 pw : ledger.point_wall_seconds) {
        point_wall_sum += pw;
        point_wall_max = std::max(point_wall_max, pw);
      }
      // run_figure does not expose per-run invariants; a sweep that ran
      // the wrong number of replications is the failure it can show.
      const u64 expected = spec.t_switch_values.size() * spec.max_seeds;
      if (ledger.replications_run != expected) {
        rep.fail(std::string(def.title) + ": " + std::to_string(ledger.replications_run) +
                     " replications, expected " + std::to_string(expected),
                 ledger.replications_run);
      }
      const std::string k = std::string(def.title) + '.';
      rep.fp.add(k + "events", ledger.events_executed);
      Accuracy acc;
      acc.figure = def.title;
      acc.paper = def.paper;
      for (usize p = 0; p < res.t_switch_values.size(); ++p) {
        for (usize c = 0; c < res.protocol_names.size(); ++c) {
          const std::string cell = k + std::to_string(p) + '.' + res.protocol_names[c];
          rep.fp.add(cell + ".mean", res.mean(p, c));
          rep.fp.add(cell + ".n", res.cells[p][c].count());
        }
        const f64 g1 = res.gain_percent(p, 0, 1);
        const f64 g2 = res.gain_percent(p, 1, 2);
        if (g1 > acc.tp_bcs_max) {
          acc.tp_bcs_max = g1;
          acc.tp_bcs_at = res.t_switch_values[p];
        }
        if (g2 > acc.bcs_qbc_max) {
          acc.bcs_qbc_max = g2;
          acc.bcs_qbc_at = res.t_switch_values[p];
        }
      }
      rep.accuracy.push_back(acc);
    }
    rep.wall_s = w.close();
  }
  rep.loop_s = sweep_wall;
  rep.run_s = sweep_wall;
  rep.events_per_s = sweep_wall > 0.0 ? static_cast<f64>(rep.events) / sweep_wall : 0.0;
  rep.layers["sim.sweep.efficiency"] =
      sweep_wall > 0.0 ? point_wall_sum / (static_cast<f64>(threads) * sweep_wall) : 0.0;
  rep.layers["sim.sweep.point_wall_max_s"] = point_wall_max;

  if (rep.opts().profile) {
    // run_figure strips the profiler, so the traced pass re-runs
    // replication 0 of each (figure, point) config sequentially.
    for (const sim::SimConfig& cfg : first_replications(rep.opts().seed)) rep.trace(cfg, opts);
  }
}

// -- single-config workloads --------------------------------------------------

Job city_1e4(u64 seed) {
  Job w;
  w.cfg.network.n_hosts = 10'000;
  w.cfg.network.n_mss = 500;
  w.cfg.sim_length = 600.0;
  w.cfg.seed = seed;
  w.opts.queue_kind = des::QueueKind::kCalendar;
  return w;
}

Job city_1e5_sharded(u64 seed, u32 shards) {
  Job w;
  w.cfg.network.n_hosts = 100'000;
  w.cfg.network.n_mss = 512;
  w.cfg.sim_length = 200.0;
  w.cfg.seed = seed;
  w.opts.queue_kind = des::QueueKind::kCalendar;
  w.opts.shards = shards;
  return w;
}

void single(Rep& rep, const Job& w) {
  {
    Scope s(rep.spans, "workload");
    const sim::RunResult r = rep.simulate(w.cfg, w.opts);
    rep.wall_s = s.close();
    add_result(rep.fp, "", r);
  }
  rep.events_per_s = rep.loop_s > 0.0 ? static_cast<f64>(rep.events) / rep.loop_s : 0.0;
  if (rep.opts().profile) rep.trace(w.cfg, w.opts);
}

// -- the Fig.1 config: golden check and observed ------------------------------

constexpr u64 kGoldenHash = 0xd165928ffbf08bb4ULL;

sim::SimConfig fig1_config(f64 length, u64 seed) {
  sim::SimConfig cfg;
  cfg.sim_length = length;
  cfg.t_switch = 1'000.0;
  cfg.p_switch = 1.0;
  cfg.heterogeneity = 0.0;
  cfg.seed = seed;
  return cfg;
}

/// The Fig.1 golden trace hash: a fixed config and seed, so every
/// repetition checks results even when its own seed is not pinned.
void check_golden(Rep& rep) {
  Scope s(rep.spans, "golden");
  sim::ExperimentOptions opts;
  opts.collect_trace_hash = true;
  const sim::RunResult golden = rep.simulate(fig1_config(50'000.0, 42), opts, false);
  if (golden.trace_hash != kGoldenHash) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "golden Fig.1 hash %016" PRIx64 " != %016" PRIx64,
                  golden.trace_hash, kGoldenHash);
    rep.fail(buf);
  }
}

/// The Fig.1 config with a RunObserver attached, JSONL and Chrome export,
/// then an unobserved twin run.
void observed(Rep& rep) {
  const sim::SimConfig cfg = fig1_config(100'000.0, rep.opts().seed);
  {
    Scope w(rep.spans, "workload");
    obs::RunObserver observer;
    sim::ExperimentOptions opts;
    opts.observer = &observer;
    DigestBuf jsonl_buf, chrome_buf;
    const f64 watched_start = now_s();
    const sim::RunResult watched = rep.simulate(cfg, opts, [&](const sim::RunResult&) {
      Scope e(rep.spans, "export");
      std::ostream jsonl(&jsonl_buf);
      {
        Scope s(rep.spans, "jsonl");
        obs::write_metrics_jsonl(jsonl, observer);
        rep.layers["obs.export_jsonl_s"] = s.close();
      }
      std::ostream chrome(&chrome_buf);
      {
        Scope s(rep.spans, "chrome");
        obs::write_chrome_trace(chrome, observer);
        rep.layers["obs.export_chrome_s"] = s.close();
      }
      rep.export_s = e.close();
    });
    const f64 watched_wall = now_s() - watched_start;
    // Everything run() does after the loop here is the observer's finalize.
    rep.layers["obs.finalize_s"] = rep.run_s - rep.loop_s;
    const f64 twin_start = now_s();
    const sim::RunResult twin = rep.simulate(cfg, sim::ExperimentOptions{});
    const f64 twin_wall = now_s() - twin_start;
    rep.wall_s = w.close();
    // Every workload reports events_per_s. The loops here are too short to
    // time steadily and the observer's finalize runs in run() after the
    // loop, so this is events over whole run() calls: in effect the
    // inverse of the finalize time.
    rep.events_per_s = rep.run_s > 0.0 ? static_cast<f64>(rep.events) / rep.run_s : 0.0;

    const u64 timeline_events = observer.timeline().size();
    rep.layers["obs.timeline_events"] = static_cast<f64>(timeline_events);
    rep.layers["obs.overhead_ratio"] = twin_wall > 0.0 ? watched_wall / twin_wall : 0.0;
    add_result(rep.fp, "observed.", watched);
    add_result(rep.fp, "twin.", twin);
    rep.fp.add("timeline_events", timeline_events);
    rep.fp.add("jsonl.bytes", jsonl_buf.bytes());
    rep.fp.add("jsonl.hash", jsonl_buf.hash());
    rep.fp.add("chrome.bytes", chrome_buf.bytes());
    rep.fp.add("chrome.hash", chrome_buf.hash());
    if (watched.events_executed != twin.events_executed ||
        watched.protocols[0].n_tot != twin.protocols[0].n_tot) {
      rep.fail("observer perturbed the run (events " + std::to_string(watched.events_executed) +
                   " vs " + std::to_string(twin.events_executed) + ")",
               2);
    }
  }

  if (rep.opts().profile) {
    rep.trace(cfg, sim::ExperimentOptions{}, true);
    rep.trace(cfg, sim::ExperimentOptions{});
  }
}

// ---------------------------------------------------------------------------

void print_result(const Rep& rep, std::ostream& os) {
  sim::JsonWriter w(os, false);
  w.begin_object();
  w.field("workload", rep.opts().workload);
  w.field("seed", rep.opts().seed);
  w.field("compiler", __VERSION__);
  w.field("build_type", MOBICHK_SUITE_BUILD_TYPE);
  w.field("ops", rep.ops);
  w.field("failed_ops", std::min(rep.failed_ops, rep.ops));
  w.key("failures").begin_array();
  for (const std::string& f : rep.failures) w.value(f);
  w.end_array();
  w.field("fingerprint", rep.fp.hex());
  w.key("timing").begin_object();
  w.field("wall_s", rep.wall_s);
  w.field("setup_s", rep.setup_s);
  w.field("loop_s", rep.loop_s);
  w.field("post_run_s", rep.run_s - rep.loop_s);
  w.field("export_s", rep.export_s);
  w.field("teardown_s", rep.teardown_s);
  w.field("events", rep.events);
  w.field("events_per_s", rep.events_per_s);
  w.end_object();
  if (rep.opts().profile) {
    w.key("layers").begin_object();
    for (const auto& [name, value] : rep.layers.values()) w.field(name, value);
    w.end_object();
  }
  if (!rep.accuracy.empty()) {
    w.key("accuracy").begin_array();
    for (const Accuracy& a : rep.accuracy) {
      w.begin_object();
      w.field("figure", a.figure);
      w.field("tp_bcs_max_gain_pct", a.tp_bcs_max);
      w.field("tp_bcs_at", a.tp_bcs_at);
      w.field("bcs_qbc_max_gain_pct", a.bcs_qbc_max);
      w.field("bcs_qbc_at", a.bcs_qbc_at);
      w.field("paper", a.paper);
      w.end_object();
    }
    w.end_array();
  }
  w.key("spans").begin_array();
  for (const Span& s : rep.spans.spans()) {
    w.begin_object();
    w.field("name", s.name);
    w.field("parent", static_cast<i64>(s.parent));
    w.field("start", s.start);
    w.field("end", s.end);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

int run(int argc, char** argv) {
  sim::FlagSet flags("mobichk_suite --workload=<name> [flags]");
  flags
      .add("workload", sim::FlagType::kString, "",
           "paper_figs | city_1e4 | city_1e5_sharded | observed")
      .add("seed", sim::FlagType::kUInt, "42", "workload seed")
      .add("profile", sim::FlagType::kBool, "", "add the traced pass (layers in the output)")
      .add("shards", sim::FlagType::kUInt, "0",
           "city_1e5_sharded shard count (0 = min(2, hardware threads))");
  const sim::ArgParser args = flags.parse(argc, argv);
  if (args.get_flag("help")) {
    flags.print_help(std::cout);
    return 0;
  }
  Options opts;
  opts.workload = args.get_string("workload", "");
  opts.seed = args.get_u64("seed", 42);
  opts.profile = args.get_flag("profile");
  opts.shards = args.get_u32("shards", 0);

  Rep rep(opts);
  {
    Scope top(rep.spans, opts.workload);
    if (opts.workload == "paper_figs") {
      paper_figs(rep);
    } else if (opts.workload == "city_1e4") {
      single(rep, city_1e4(opts.seed));
    } else if (opts.workload == "city_1e5_sharded") {
      single(rep, city_1e5_sharded(opts.seed, opts.shards != 0 ? opts.shards : parallel_threads()));
    } else if (opts.workload == "observed") {
      observed(rep);
    } else {
      std::fprintf(stderr, "error: unknown workload '%s'\n", opts.workload.c_str());
      return 2;
    }
    check_golden(rep);
  }
  if (opts.profile) {
    rep.layers["sim.setup_s"] = rep.setup_s;
    rep.layers["sim.teardown_s"] = rep.teardown_s;
    rep.layers.finish();
  }
  print_result(rep, std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
