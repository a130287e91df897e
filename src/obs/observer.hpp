// RunObserver: the one object a caller creates to observe a run.
//
// Owns the MetricRegistry and the Timeline. The des.* and net.* counters
// are registered here, in catalog order, and filled once after the event
// loop from the ledgers the run keeps anyway (SimInvariants,
// NetworkStats); only the delivery-latency histogram, which needs every
// sample, and the timeline are wired into the network and the protocol
// harness. When no RunObserver is attached those pointers are null and
// the run is bit-identical to an unobserved one.
//
// Optionally (enable_causal) owns a CausalMonitor: per-protocol online
// recovery-line trackers fed as the Timeline's listener, so they see every
// probe event even when the stored timeline is capped.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace mobichk::obs {

/// Sweep engine: per-replication cost and convergence trajectory.
struct SweepProbe {
  Counter* replications = nullptr;
  FixedHistogram* replication_wall = nullptr;  ///< seconds per replication batch
  Gauge* last_half_width = nullptr;            ///< latest relative CI half-width
};

class RunObserver {
 public:
  RunObserver();
  RunObserver(const RunObserver&) = delete;
  RunObserver& operator=(const RunObserver&) = delete;

  MetricRegistry& registry() noexcept { return registry_; }
  const MetricRegistry& registry() const noexcept { return registry_; }
  Timeline& timeline() noexcept { return timeline_; }
  const Timeline& timeline() const noexcept { return timeline_; }

  /// net.delivery_latency_tu (tu, app messages only), fed per delivery.
  FixedHistogram* delivery_latency() noexcept { return delivery_latency_; }
  const SweepProbe* sweep_probe() const noexcept { return &sweep_; }

  /// Display names for protocol slots, in slot order; used by the
  /// Chrome-trace exporter to label per-protocol processes.
  void set_protocol_names(std::vector<std::string> names) { protocol_names_ = std::move(names); }
  const std::vector<std::string>& protocol_names() const noexcept { return protocol_names_; }

  /// Number of mobile hosts in the observed run (track labelling).
  void set_n_hosts(i32 n) noexcept { n_hosts_ = n; }
  i32 n_hosts() const noexcept { return n_hosts_; }

  /// Caps the stored timeline at `cap` events (0 = unbounded). Excess
  /// events increment the `obs.timeline.dropped_events` counter instead
  /// of growing the vector; the causal monitor still sees every event.
  void set_timeline_capacity(usize cap) noexcept { timeline_.set_capacity(cap); }

  /// Creates the per-slot recovery-line trackers (one per entry of
  /// `modes`, kNone = none for that slot) and installs the monitor as the
  /// timeline listener. Requires set_n_hosts/set_protocol_names first;
  /// replaces a previous monitor. Returns the monitor for queries.
  CausalMonitor& enable_causal(const std::vector<TrackerMode>& modes);

  /// The causal monitor, or nullptr when enable_causal was never called.
  CausalMonitor* causal() noexcept { return monitor_.get(); }
  const CausalMonitor* causal() const noexcept { return monitor_.get(); }

  /// Finalizes every tracker (Z-cycle pass, final gauges). Safe to call
  /// without a monitor; idempotent.
  void finalize_causal();

 private:
  MetricRegistry registry_;
  Timeline timeline_;
  FixedHistogram* delivery_latency_ = nullptr;
  SweepProbe sweep_;
  std::unique_ptr<CausalMonitor> monitor_;
  std::vector<std::string> protocol_names_;
  i32 n_hosts_ = 0;
};

}  // namespace mobichk::obs
