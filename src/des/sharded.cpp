#include "des/sharded.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "des/shard_merge.hpp"

namespace mobichk::des {

namespace {

/// Polite spin: pause the pipeline, and back off to the scheduler when
/// the wait drags on (oversubscribed machines, TSan builds).
struct SpinWait {
  u32 spins = 0;
  void relax() noexcept {
    if (++spins % 4096 == 0) {
      std::this_thread::yield();
      return;
    }
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// ShardTraceMux
// ---------------------------------------------------------------------------

ShardTraceMux::ShardTraceMux(u32 n_shards, TraceSink* downstream)
    : downstream_(downstream), buffers_(1 + n_shards) {}

void ShardTraceMux::flush() {
  cross_shard_ties_ += merge_shard_journals(
      buffers_.size(), [this](usize s) -> auto& { return buffers_[s].recs; },
      [](const TraceRecord& r) { return r.time; },
      [this](usize, const TraceRecord& r) { downstream_->record(r); });
  for (auto& b : buffers_) b.recs.clear();
}

// ---------------------------------------------------------------------------
// ShardedSimulator
// ---------------------------------------------------------------------------

ShardedSimulator::ShardedSimulator(Simulator& main, u32 n_shards, QueueKind queue_kind,
                                   Time lookahead)
    : main_(main), lookahead_(lookahead) {
  assert(n_shards >= 1);
  assert(lookahead > 0.0 && "conservative sync needs a positive lookahead");
  shards_.reserve(n_shards);
  for (u32 s = 0; s < n_shards; ++s) shards_.push_back(std::make_unique<Simulator>(queue_kind));
  main_.set_sharded(this);
}

ShardedSimulator::~ShardedSimulator() {
  if (workers_started_) {
    quit_.store(true, std::memory_order_relaxed);
    go_gen_.fetch_add(1, std::memory_order_release);
    for (auto& w : workers_) w.join();
  }
  main_.set_sharded(nullptr);
}

void ShardedSimulator::start_workers() {
  if (workers_started_) return;
  workers_started_ = true;
  // Shard 0 runs inline on the coordinator thread; shards 1..N-1 get
  // dedicated workers. At N shards the run occupies exactly N threads.
  workers_.reserve(shards_.size() > 0 ? shards_.size() - 1 : 0);
  for (u32 s = 1; s < shards_.size(); ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
}

void ShardedSimulator::set_profiler(obs::Profiler* prof) {
  prof_ = prof;
  if (prof != nullptr) {
    prof->ensure_lanes(1 + shards_.size());
    main_.set_prof(&prof->lane_ref(0));
    for (usize s = 0; s < shards_.size(); ++s) shards_[s]->set_prof(&prof->lane_ref(1 + s));
  } else {
    main_.set_prof(nullptr);
    for (auto& sh : shards_) sh->set_prof(nullptr);
  }
}

void ShardedSimulator::run_shard_window(u32 shard) {
  const u32 l = 1 + shard;
  obs::ProfLane* prof = prof_ != nullptr ? &prof_->lane_ref(l) : nullptr;
  tls_lane = Lane{l, shards_[shard].get()};
  const u64 t0 = prof != nullptr ? obs::prof_now_ns() : 0;
  shards_[shard]->run_window(window_h_, window_cap_);
  if (prof != nullptr) {
    const u64 t1 = obs::prof_now_ns();
    prof->window.add(t1 - t0);
    prof->record_slice(obs::ProfPhase::kWindow, t0, t1 - t0);
  }
  tls_lane = Lane{};
}

void ShardedSimulator::worker_loop(u32 shard) {
  // prof_ is stable for the workers' whole life: set_profiler must run
  // before run_until, which is what starts these threads.
  obs::ProfLane* prof = prof_ != nullptr ? &prof_->lane_ref(1 + shard) : nullptr;
  u64 seen = 0;
  for (;;) {
    SpinWait spin;
    u64 gen;
    const u64 wait_start = prof != nullptr ? obs::prof_now_ns() : 0;
    while ((gen = go_gen_.load(std::memory_order_acquire)) == seen) spin.relax();
    seen = gen;
    if (quit_.load(std::memory_order_relaxed)) break;
    if (prof != nullptr) {
      const u64 wait_end = obs::prof_now_ns();
      prof->barrier.add(wait_end - wait_start);
      prof->record_slice(obs::ProfPhase::kBarrier, wait_start, wait_end - wait_start);
    }
    run_shard_window(shard);
    done_count_.fetch_add(1, std::memory_order_release);
  }
}

void ShardedSimulator::run_window(Time h_excl, Time cap) {
  window_h_ = h_excl;
  window_cap_ = cap;
  done_count_.store(0, std::memory_order_relaxed);
  go_gen_.fetch_add(1, std::memory_order_release);
  // Shard 0 runs inline on the coordinator thread, so its lane (1 + 0)
  // sees no writes from any other thread during the window.
  run_shard_window(0);
  const u32 others = static_cast<u32>(shards_.size() - 1);
  if (others > 0) {
    const auto wait_start = std::chrono::steady_clock::now();
    const u64 prof_wait_start = prof_ != nullptr ? obs::prof_now_ns() : 0;
    SpinWait spin;
    while (done_count_.load(std::memory_order_acquire) != others) spin.relax();
    barrier_stall_ +=
        std::chrono::duration<f64>(std::chrono::steady_clock::now() - wait_start).count();
    if (prof_ != nullptr) {
      obs::ProfLane& lane = prof_->lane_ref(0);
      const u64 wait_end = obs::prof_now_ns();
      lane.barrier.add(wait_end - prof_wait_start);
      lane.record_slice(obs::ProfPhase::kBarrier, prof_wait_start, wait_end - prof_wait_start);
    }
  }
}

void ShardedSimulator::run_until(Time t_end) {
  start_workers();
  for (;;) {
    const Time m = main_.next_event_time_below();
    Time s = kNoEventBelow;
    for (const auto& sh : shards_) s = std::min(s, sh->next_event_time_below());
    if (m > t_end && s > t_end) break;
    if (m <= s) {
      // The main event is the global minimum (every shard event is >= s).
      // Executing it solo keeps markers / crashes / analysis hooks
      // ordered against all shard work exactly as in the sequential run.
      main_.step_one();
      continue;
    }
    // s < m: nothing on main before the window, and no cross-shard
    // interaction can materialize before s + lookahead.
    const Time h = std::min(s + lookahead_, m);
    ++sync_rounds_;
    if (log_windows_) window_log_.push_back(h);
    run_window(h, t_end);
    if (hooks_ != nullptr) hooks_->on_window_merge(h);
  }
  main_.advance_clock_to(t_end);
  for (const auto& sh : shards_) sh->advance_clock_to(t_end);
}

SimInvariants ShardedSimulator::invariants() const {
  SimInvariants sum = main_.invariants();
  for (const auto& sh : shards_) {
    const SimInvariants& i = sh->invariants();
    sum.scheduled += i.scheduled;
    sum.executed += i.executed;
    for (usize k = 0; k < kEventKindCount; ++k) sum.dispatched[k] += i.dispatched[k];
    sum.time_regressions += i.time_regressions;
    sum.max_pending = std::max(sum.max_pending, i.max_pending);
  }
  return sum;
}

bool ShardedSimulator::invariants_ok() const {
  if (!main_.invariants_ok()) return false;
  for (const auto& sh : shards_) {
    if (!sh->invariants_ok()) return false;
  }
  return true;
}

void route_schedule_after(Simulator& declared, Time dt, const EventPayload& payload) {
  ShardedSimulator* sharded = declared.sharded();
  if (sharded != nullptr && lane() == 0) {
    switch (payload.kind) {
      case EventKind::kWorkloadOp:
      case EventKind::kHandoff:
      case EventKind::kConnectivity:
        // Per-host timers belong to the owner shard; the absolute time is
        // anchored to the coordinator clock (start-up and post-recovery
        // injections both happen coordinator-side).
        sharded->shard_sim(sharded->shard_of(payload.a))
            .schedule_at(declared.now() + dt, payload);
        return;
      default:
        break;
    }
  }
  lane_sim(declared).schedule_after(dt, payload);
}

}  // namespace mobichk::des
