// The discrete-event simulation engine.
//
// A Simulator owns a virtual clock and a pending-event set; entities
// schedule typed event payloads to run at future virtual times. Execution
// is strictly deterministic: events fire in (time, scheduling-sequence)
// order.
#pragma once

#include <memory>
#include <vector>

#include "des/event.hpp"
#include "des/event_queue.hpp"
#include "des/types.hpp"
#include "obs/probes.hpp"
#include "obs/prof.hpp"

namespace mobichk::des {

class ShardedSimulator;

/// Cheap release-mode invariant counters maintained by the Simulator.
///
/// A healthy run always reconciles: every scheduled event either fired,
/// was effectively cancelled, or is still pending — and the clock never
/// ran backwards. Violations indicate an event-queue lifetime bug (the
/// class of fault the determinism audit exists to catch).
struct SimInvariants {
  u64 scheduled = 0;           ///< schedule_at / schedule_after calls.
  u64 executed = 0;            ///< Events fired.
  u64 cancels_requested = 0;   ///< Simulator::cancel calls on valid handles.
  u64 cancels_effective = 0;   ///< Cancels that removed a live pending event.
  u64 time_regressions = 0;    ///< Popped event earlier than the clock (must stay 0).
  usize max_pending = 0;       ///< High-water mark of the pending set.

  /// No-op cancels (handle already fired, double-cancelled, or unknown).
  u64 cancels_noop() const noexcept { return cancels_requested - cancels_effective; }

  /// Live-count reconciliation given the queue's current pending count.
  bool consistent(usize pending_now) const noexcept {
    return time_regressions == 0 &&
           scheduled == executed + cancels_effective + static_cast<u64>(pending_now);
  }
};

/// Discrete-event simulation engine.
class Simulator {
 public:
  explicit Simulator(QueueKind queue_kind = QueueKind::kBinaryHeap);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  Time now() const noexcept { return now_; }

  /// Schedules a typed payload at absolute time `t` (must be >= now()).
  /// The payload is stored inline in the queue entry; nothing allocates.
  EventHandle schedule_at(Time t, const EventPayload& payload);

  /// Schedules a typed payload after a delay of `dt` (must be >= 0).
  EventHandle schedule_after(Time dt, const EventPayload& payload) {
    return schedule_at(now_ + dt, payload);
  }

  /// Cancels a previously scheduled event; no-op if it already fired.
  void cancel(EventHandle handle);

  /// Runs events with time <= t_end; advances the clock to t_end even if
  /// the queue drains earlier. Returns the number of events executed.
  u64 run_until(Time t_end);

  /// Time of the next pending event if it is strictly below `bound`, else
  /// kNoEventBelow. Safe on an empty queue; never disturbs pop order or
  /// outstanding handles (the shard-window horizon probe).
  Time next_event_time_below(Time bound = kNoEventBelow) {
    return queue_->peek_time_below(bound);
  }

  /// Conservative-window run: executes pending events while their time is
  /// strictly below `h_excl` AND at most `cap` (the run-end boundary,
  /// inclusive to match run_until's `<= t_end` semantics). Does not move
  /// the clock past the last executed event. Returns events executed.
  u64 run_window(Time h_excl, Time cap);

  /// Executes exactly one pending event (the minimum). Pre: !empty() is
  /// implied by the caller having probed a finite next_event_time_below.
  void step_one();

  /// Advances the clock without executing anything (end-of-run alignment
  /// across shards); no-op when `t` is not ahead of now().
  void advance_clock_to(Time t) noexcept {
    if (t > now_) now_ = t;
  }

  /// Runs until the event set is empty.
  u64 run();

  /// Total events executed since construction.
  u64 events_executed() const noexcept { return executed_; }

  /// Release-mode invariant counters (see SimInvariants).
  const SimInvariants& invariants() const noexcept { return invariants_; }

  /// True when the counters reconcile against the queue's live count.
  bool invariants_ok() const noexcept { return invariants_.consistent(queue_->size()); }

  /// Live events currently pending.
  usize pending() const noexcept { return queue_->size(); }

  /// The queue implementation in use.
  const char* queue_name() const noexcept { return queue_->name(); }

  /// Tombstone-compaction passes the queue has run (pull-based metric).
  u64 queue_compactions() const noexcept { return queue_->compactions(); }

  /// Attaches (or detaches, with nullptr) the kernel observability probe.
  /// The probe's metric pointers must outlive the simulator or be reset
  /// before they dangle. Null probe == zero-cost unobserved run.
  void set_probe(const obs::KernelProbe* probe) noexcept { probe_ = probe; }

  /// Attaches (or detaches, with nullptr) a host-time profiler lane.
  /// Null lane == zero-cost unprofiled run: the clock is never read.
  void set_prof(obs::ProfLane* lane) noexcept { prof_ = lane; }

  /// When this simulator is the main engine of a sharded run, the shard
  /// coordinator is attached here so des::route_schedule_after can file
  /// per-host events into their owner shard. Null in sequential runs.
  void set_sharded(ShardedSimulator* sharded) noexcept { sharded_ = sharded; }
  ShardedSimulator* sharded() const noexcept { return sharded_; }

 private:
  /// Advances the clock to a popped event's time, with invariant checks.
  void advance_to(const EventEntry& e) noexcept;

  /// Dispatches one popped event through its EventTarget.
  static void fire(const EventEntry& e) { e.payload.target->on_event(e.payload); }

  /// Counts a popped event on the probe, bucketed by payload kind.
  void observe_pop(const EventEntry& e) noexcept {
    probe_->pops->add();
    probe_->dispatched[static_cast<usize>(e.payload.kind)]->add();
  }

  /// The shared body of every run loop: pop the minimum event, advance
  /// the clock, observe, fire, account. The profiled variant lives out of
  /// line so the unprofiled path stays the branch-free-identical hot loop.
  void pop_and_fire() {
    if (prof_ != nullptr) {
      pop_and_fire_timed();
      return;
    }
    const EventEntry e = queue_->pop();
    advance_to(e);
    if (probe_ != nullptr) observe_pop(e);
    fire(e);
    ++executed_;
    ++invariants_.executed;
  }

  /// Profiled pop + fire: queue-pop and dispatch are timed separately,
  /// dispatch bucketed by EventKind on the attached lane.
  void pop_and_fire_timed();

  std::unique_ptr<EventQueue> queue_;
  const obs::KernelProbe* probe_ = nullptr;
  obs::ProfLane* prof_ = nullptr;
  ShardedSimulator* sharded_ = nullptr;
  Time now_ = 0.0;
  u64 next_seq_ = 1;
  u64 executed_ = 0;
  SimInvariants invariants_;
  /// Double-pop detection by seq. Declared in every build so Debug and
  /// Release translation units agree on the layout; only debug builds
  /// fill it.
  std::vector<bool> fired_seqs_;
};

}  // namespace mobichk::des
