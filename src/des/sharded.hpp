// Conservative parallel DES over spatial shards.
//
// A ShardedSimulator splits one logical simulation into N shard
// Simulators plus the original "main" (coordinator) Simulator. Hosts are
// statically owned by shards (the owner map is derived from the initial
// MSS-cell placement); every per-host event — workload operations,
// mobility timers, message legs keyed by destination — lives in the
// owner's queue, while globally ordered machinery (coordinated-protocol
// markers, checkpoint-transfer timers, crash injection, analysis hooks)
// stays on the main queue.
//
// Synchronization is conservative with lookahead L = the minimum network
// leg latency (0.01 tu wired/wireless by default). Every cross-host
// interaction travels through the network as a scheduled leg of delay
// >= L, so with
//
//     s = min over shards of the next pending event time,
//     m = the main queue's next event time,
//
// every event in [s, min(s + L, m)) is causally independent across
// shards: a message sent at t >= s cannot be seen by another shard
// before t + L >= s + L. Each window therefore runs all shards in
// parallel up to the horizon H = min(s + L, m), then a barrier drains
// cross-shard effects (egress message legs, trace buffers, journals)
// in deterministic (time, source shard, index) order. Main-queue events
// execute solo between windows whenever m <= s, which keeps every
// deterministic-time event (markers, crash plans) globally ordered
// against all shard work.
//
// Lanes (des/lane.hpp): the coordinator is lane 0, as a sequential run
// is, and shard s is lane 1+s. The executor installs the lane around
// each window, and domain modules index their per-lane state (counters,
// pools, arenas, journals) by it; lane 0 applies what a shard lane
// journals for the barrier.
//
// Determinism: shard queues order by (time, seq) exactly like the
// sequential engine; the barrier merge (des/shard_merge.hpp) is the
// cross-shard tie-break on (time, src lane, src index). The merged
// trace reproduces the sequential trace bit-identically as long as that
// tie-break never decides anything, i.e. no two shards journal entries at
// the same time. Stochastic event times are continuous draws, so such
// ties should not occur, and the merge counts them instead of assuming
// so: RunResult::cross_shard_ties must read 0, and the determinism audit
// fails a sharded run whose count is not.
#pragma once

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "des/lane.hpp"
#include "des/simulator.hpp"
#include "des/trace.hpp"
#include "des/types.hpp"

namespace mobichk::des {

/// Barrier-side merge hooks, implemented by the domain composition (the
/// Experiment wires Network + ProtocolHarness in here). Called on the
/// coordinator thread, with all shard threads parked, after every window.
class ShardHooks {
 public:
  virtual ~ShardHooks() = default;
  /// `window_end` is the exclusive horizon the window just ran to.
  virtual void on_window_merge(Time window_end) = 0;
};

/// Lane-routing trace sink for sharded runs. Records emitted inside a
/// shard window are buffered per lane (each buffer is time-ordered by
/// construction, because a shard executes events in time order) and
/// flushed to the downstream sink at the barrier in merged
/// (time, lane, index) order; lane-0 records pass straight through,
/// which is correct because every buffered record is flushed before the
/// coordinator executes its next event.
class ShardTraceMux final : public TraceSink {
 public:
  ShardTraceMux(u32 n_shards, TraceSink* downstream);

  void record(const TraceRecord& rec) override {
    const u32 l = lane();
    if (l != 0) {
      buffers_[l].recs.push_back(rec);
    } else {
      downstream_->record(rec);
    }
  }

  /// Records currently buffered for `lane` (the index the next record
  /// from that lane will land at — used to register patch sites).
  usize buffered(u32 lane) const noexcept { return buffers_[lane].recs.size(); }

  /// Rewrites the `a` operand of a buffered record (deferred message-id
  /// assignment patches kSend records before they are hashed).
  void patch_a(u32 lane, usize idx, u64 a) { buffers_[lane].recs[idx].a = a; }

  /// Merges all buffers into the downstream sink and clears them.
  void flush();

  /// Records flushed at a time another shard's buffer head shared
  /// (merge_shard_journals), summed over every flush so far.
  u64 cross_shard_ties() const noexcept { return cross_shard_ties_; }

 private:
  struct alignas(64) Buffer {
    std::vector<TraceRecord> recs;
  };

  TraceSink* downstream_;
  std::vector<Buffer> buffers_;  ///< Per lane; lane 0's stays empty.
  u64 cross_shard_ties_ = 0;
};

/// Coordinates N shard Simulators against a main Simulator with the
/// conservative window protocol described above.
class ShardedSimulator {
 public:
  /// `lookahead` must be a strict lower bound on every cross-shard
  /// interaction delay (the minimum network leg latency).
  ShardedSimulator(Simulator& main, u32 n_shards, QueueKind queue_kind, Time lookahead);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  /// Static owner map: owner_shard[host] = shard index. Must cover every
  /// host id that routing will see.
  void set_owner_map(std::vector<u32> owner_shard) { owner_shard_ = std::move(owner_shard); }
  void set_hooks(ShardHooks* hooks) noexcept { hooks_ = hooks; }

  u32 n_shards() const noexcept { return static_cast<u32>(shards_.size()); }
  u32 shard_of(u32 owner) const { return owner_shard_[owner]; }
  Simulator& shard_sim(u32 shard) { return *shards_[shard]; }
  Simulator& main_sim() noexcept { return main_; }
  Time lookahead() const noexcept { return lookahead_; }

  /// The sharded equivalent of main.run_until(t_end): executes every
  /// event with time <= t_end across all queues, then aligns every clock
  /// to t_end.
  void run_until(Time t_end);

  // -- accounting --------------------------------------------------------
  u64 sync_rounds() const noexcept { return sync_rounds_; }
  /// Wall seconds the coordinator spent waiting for shard windows to
  /// finish (load imbalance + barrier cost).
  f64 barrier_stall_seconds() const noexcept { return barrier_stall_; }
  u64 events_executed() const;
  /// Field-wise sum over all engines (max_pending is the max).
  SimInvariants invariants() const;
  bool invariants_ok() const;

  /// When enabled, records every window horizon (explain uses this to map
  /// event times to barrier windows).
  void enable_window_log(bool on) noexcept { log_windows_ = on; }
  const std::vector<Time>& window_log() const noexcept { return window_log_; }

  /// Attaches (or detaches, with nullptr) a host-time profiler. Lane 0
  /// goes to the main engine (coordinator work), lane 1+s to shard s;
  /// window execution and barrier waits are journaled per lane. Must be
  /// called before run_until.
  void set_profiler(obs::Profiler* prof);

 private:
  void start_workers();
  void worker_loop(u32 shard);
  void run_window(Time h_excl, Time cap);
  /// Runs shard `shard`'s part of the current window on the calling
  /// thread, as lane 1 + shard, timing it on that profiler lane.
  void run_shard_window(u32 shard);

  Simulator& main_;
  Time lookahead_;
  std::vector<std::unique_ptr<Simulator>> shards_;
  std::vector<u32> owner_shard_;
  ShardHooks* hooks_ = nullptr;
  obs::Profiler* prof_ = nullptr;

  // Window release/park protocol: the coordinator publishes the window
  // bounds, bumps go_gen_ (release) to wake workers, runs shard 0 inline,
  // then waits for done_count_ (acquire) — a generation-counter barrier
  // with no locks on the steady-state path.
  std::atomic<u64> go_gen_{0};
  std::atomic<u32> done_count_{0};
  std::atomic<bool> quit_{false};
  Time window_h_ = 0.0;
  Time window_cap_ = 0.0;
  std::vector<std::thread> workers_;
  bool workers_started_ = false;

  u64 sync_rounds_ = 0;
  f64 barrier_stall_ = 0.0;
  bool log_windows_ = false;
  std::vector<Time> window_log_;
};

/// Routes a driver's self-rescheduling through the owning shard.
///
/// Inside a shard window the calling lane wins (a driver rescheduling the
/// host it just serviced stays on that host's shard, with the shard's
/// clock). On the coordinator of a sharded run (`declared.sharded()` set),
/// per-host payload kinds (workload ops, mobility timers) are filed into
/// the owner shard's queue at the main clock's absolute time; everything
/// else — and every call in a plain sequential run — goes to `declared`
/// unchanged.
EventHandle route_schedule_after(Simulator& declared, Time dt, const EventPayload& payload);

}  // namespace mobichk::des
