// Host-time profiler: wall-clock attribution with the probe layer's
// zero-cost discipline.
//
// Where probes.hpp counts *simulated* work, this layer times *host*
// work: every instrumented component holds one `obs::ProfLane*` (or a
// `Profiler*` for the shared layers) that is null when profiling is off,
// and guards every clock read with that single branch — a profile-off
// run pays one predictable branch per site, never reads the clock,
// allocates nothing, and reproduces the golden trace bit-identically.
//
// Lanes make the profiler shard-safe without atomics. They are the run's
// execution lanes (des/lane.hpp): lane 0 belongs to the coordinator (and
// to the whole run when sequential), lane 1+s to shard s. Shared layers
// (network, harness, storage) resolve the executing lane through
// `Profiler::lane()`, which indexes by `des::lane()`, so they only ever
// write memory owned by the current thread. Lanes are cache-line aligned
// to keep the accumulators of neighbouring shards off each other's lines.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "des/event.hpp"
#include "des/lane.hpp"
#include "obs/metrics.hpp"

namespace mobichk::obs {

/// Monotonic host clock in nanoseconds (the profiler's only time source).
inline u64 prof_now_ns() noexcept {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One phase's running total: summed nanoseconds plus a call count.
struct PhaseAccum {
  u64 ns = 0;
  u64 count = 0;

  void add(u64 d) noexcept {
    ns += d;
    ++count;
  }
  f64 seconds() const noexcept { return static_cast<f64>(ns) * 1e-9; }
};

/// RAII phase timer. A null accumulator makes the whole object a no-op —
/// the clock is never read (same contract as ScopedTimer).
class ProfScope {
 public:
  explicit ProfScope(PhaseAccum* acc) noexcept : acc_(acc) {
    if (acc_ != nullptr) start_ns_ = prof_now_ns();
  }
  ~ProfScope() {
    if (acc_ != nullptr) acc_->add(prof_now_ns() - start_ns_);
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  PhaseAccum* acc_;
  u64 start_ns_ = 0;
};

/// Journal phases recorded as host-time slices (Chrome-trace B/E rows).
enum class ProfPhase : u8 {
  kWindow = 0,   ///< shard window execution
  kBarrier = 1,  ///< barrier / go-signal wait
};

/// One journaled slice: [start_ns, start_ns + dur_ns) on the owning lane,
/// absolute steady-clock nanoseconds (the exporter rebases onto t0).
struct ProfSlice {
  ProfPhase phase = ProfPhase::kWindow;
  u64 start_ns = 0;
  u64 dur_ns = 0;
};

/// Per-thread accumulator set. All writes to a lane come from exactly one
/// thread at a time (coordinator between windows, the owning shard thread
/// inside them), so plain words suffice.
struct alignas(64) ProfLane {
  static constexpr usize kMaxProtoSlots = 8;
  /// Journal cap per lane: a 50k-window run stays well under this; past
  /// it the totals keep accumulating and only slices are dropped.
  static constexpr usize kMaxSlices = 1u << 18;

  // -- DES kernel ---------------------------------------------------------
  PhaseAccum dispatch[des::kEventKindCount];  ///< fire() bucketed by EventKind
  PhaseAccum queue_push;
  PhaseAccum queue_pop;
  PhaseAccum queue_cancel;

  // -- shared layers (resolved through des::lane()) -----------------------
  PhaseAccum net_leg;    ///< net::Network message-hop handling
  PhaseAccum pb_encode;  ///< sparse piggyback encode (on_send)
  PhaseAccum pb_merge;   ///< sparse piggyback decode + merge (on_receive)
  PhaseAccum proto[kMaxProtoSlots];  ///< protocol handlers per slot
  PhaseAccum storage;    ///< storage data plane handlers

  // -- sharded executor ---------------------------------------------------
  PhaseAccum window;   ///< window execution (busy time)
  PhaseAccum barrier;  ///< barrier / go-signal wait (stall time)

  u64 events = 0;  ///< events fired on this lane

  std::vector<ProfSlice> slices;  ///< window/barrier journal (may drop)
  u64 slices_dropped = 0;

  void record_slice(ProfPhase phase, u64 start_ns, u64 dur_ns) {
    if (slices.size() >= kMaxSlices) {
      ++slices_dropped;
      return;
    }
    slices.push_back(ProfSlice{phase, start_ns, dur_ns});
  }
};

/// The profiler for one run: owns the lanes, resolves the executing lane
/// through des::lane(), and flattens everything into the `prof.*` metric catalog
/// (see docs/observability.md).
class Profiler {
 public:
  Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Grows the lane set to at least `n` (setup time only; lane addresses
  /// are stable across growth so hot paths can cache ProfLane*).
  void ensure_lanes(usize n);

  usize n_lanes() const noexcept { return lanes_.size(); }
  ProfLane& lane_ref(usize i) { return *lanes_[i]; }
  const ProfLane& lane_ref(usize i) const { return *lanes_[i]; }

  /// The calling thread's lane: lane 1+s inside shard s's window, lane 0
  /// everywhere else (coordinator, sequential runs).
  ProfLane& lane() noexcept { return *lanes_[des::lane()]; }

  /// Construction instant; Chrome-trace `ts` values are relative to it.
  u64 t0_ns() const noexcept { return t0_ns_; }

  /// Names the protocol slots (snapshot uses them for prof.proto.*).
  void set_slot_names(std::vector<std::string> names) { slot_names_ = std::move(names); }
  const std::vector<std::string>& slot_names() const noexcept { return slot_names_; }

  /// Per-kind dispatch totals summed over all lanes (the reconciliation
  /// hook: counts must match the des.dispatch.* counters exactly).
  u64 dispatch_count(usize kind) const;
  f64 dispatch_seconds(usize kind) const;
  u64 events_total() const;

  /// max/mean of per-shard busy (window) seconds; 1.0 when not sharded
  /// or nothing ran.
  f64 imbalance_ratio() const;

  /// Flattens the lanes into prof.* samples, in catalog order.
  std::vector<MetricSample> snapshot() const;

 private:
  // unique_ptr keeps lane addresses stable across ensure_lanes growth.
  std::vector<std::unique_ptr<ProfLane>> lanes_;
  std::vector<std::string> slot_names_;
  u64 t0_ns_ = 0;
};

}  // namespace mobichk::obs
