// The application workload of paper §5.1: every active MH alternates
// internal events (exponential execution time, mean 1.0 tu) with
// communication operations — a send to a uniformly random peer with
// probability P_s, otherwise a receive that consumes the oldest delivered
// message.
#pragma once

#include <vector>

#include "core/checkpoint_log.hpp"
#include "des/distributions.hpp"
#include "des/event.hpp"
#include "des/lane.hpp"
#include "des/rng.hpp"
#include "des/simulator.hpp"
#include "net/network.hpp"
#include "sim/config.hpp"

namespace mobichk::sim {

class WorkloadDriver final : public des::EventTarget {
 public:
  WorkloadDriver(des::Simulator& sim, net::Network& net, const SimConfig& cfg);

  /// Schedules the first operation of every host. Call after net.start().
  void start();

  /// Invalidates the host's pending operations (mobility calls this when
  /// the host disconnects).
  void pause(net::HostId host) { ++per_host_.at(host).epoch; }

  /// Restarts the host's operation loop (mobility calls this on reconnect).
  void resume(net::HostId host);

  /// Adds one counter lane per shard for a shard-parallel run.
  void enable_sharding(u32 n_shards) { lanes_.resize(1 + n_shards); }

  /// Communication operations executed (sends + receive attempts).
  u64 ops_executed() const noexcept { return sum(&CounterSlice::ops); }
  u64 sends() const noexcept { return sum(&CounterSlice::sends); }
  u64 receives() const noexcept { return sum(&CounterSlice::receives); }
  /// Receive operations that found an empty mailbox.
  u64 empty_receives() const noexcept { return sum(&CounterSlice::empty_receives); }
  /// Internal events executed between communications.
  u64 internal_events() const noexcept { return sum(&CounterSlice::internal_events); }

  /// Enables the checkpoint-latency extension: after each operation the
  /// host is stalled cfg.ckpt_latency per checkpoint newly recorded for it
  /// in any probed log (ABL1). Pass the logs of every protocol under test;
  /// probing only slot 0 made multi-protocol stalls depend on slot order.
  void set_latency_probes(std::vector<const core::CheckpointLog*> logs);

  /// Single-protocol convenience overload.
  void set_latency_probe(const core::CheckpointLog* log) {
    set_latency_probes({log});
  }

  /// Typed-event dispatch: one kWorkloadOp per scheduled operation
  /// (a = host, b = epoch at scheduling, c = internal-event count).
  void on_event(const des::EventPayload& payload) override;

 private:
  struct HostState {
    des::RngStream rng;
    u64 epoch = 0;
    std::vector<u64> seen_ckpts;  ///< Per-probe counts, for the latency stall.
  };

  /// Hot per-op counters, one set per lane so parallel windows never
  /// share a cache line (summed by the accessors).
  struct CounterSlice {
    u64 ops = 0;
    u64 sends = 0;
    u64 receives = 0;
    u64 empty_receives = 0;
    u64 internal_events = 0;
    char pad[des::kLanePadBytes];
  };

  CounterSlice& cnt() { return lanes_[des::lane()]; }

  u64 sum(u64 CounterSlice::* field) const noexcept {
    u64 total = 0;
    for (const auto& l : lanes_) total += l.*field;
    return total;
  }

  void schedule_next(net::HostId host, f64 extra_delay);
  void execute_op(net::HostId host, u64 internal_count);

  des::Simulator& sim_;
  net::Network& net_;
  const SimConfig& cfg_;
  des::Exponential comm_gap_;
  std::vector<HostState> per_host_;
  std::vector<const core::CheckpointLog*> latency_probes_;
  std::vector<CounterSlice> lanes_;  ///< Lane 0, then one per shard.
};

}  // namespace mobichk::sim
