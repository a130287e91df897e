// Probe structs: pre-resolved metric pointers for the instrumented layers.
//
// Each observed component holds `const XxxProbe* probe_` (null when
// observability is off) and guards every update with one null check:
//
//   if (probe_ != nullptr) probe_->pushes->add();
//
// resolve() registers the layer's metrics by their catalog names (see
// docs/observability.md) and caches the addresses, so the hot path never
// touches the registry or a string.
#pragma once

#include "des/event.hpp"
#include "obs/metrics.hpp"

namespace mobichk::obs {

/// DES kernel: per-kind dispatch counts plus queue traffic. The
/// dispatched array is indexed by des::EventKind's underlying value.
struct KernelProbe {
  Counter* dispatched[des::kEventKindCount] = {};
  Counter* pushes = nullptr;
  Counter* pops = nullptr;
  Gauge* max_pending = nullptr;    ///< Filled post-run from SimInvariants.

  void resolve(MetricRegistry& reg);
};

/// net::Network: wire traffic and mobility.
struct NetProbe {
  Counter* uplink_legs = nullptr;       ///< MH -> local MSS wireless sends
  Counter* wired_hops = nullptr;        ///< MSS -> MSS wired forwards
  Counter* downlink_legs = nullptr;     ///< MSS -> MH wireless deliveries
  Counter* payload_bytes = nullptr;     ///< application payload on the wire
  Counter* piggyback_bytes = nullptr;   ///< protocol piggyback on the wire (encoded)
  Counter* piggyback_dense_bytes = nullptr;  ///< dense-equivalent piggyback cost
  Counter* handoffs = nullptr;
  Counter* disconnects = nullptr;
  Counter* reconnects = nullptr;
  Counter* crashes = nullptr;   ///< injected host failures
  Counter* restores = nullptr;  ///< post-recovery rejoins
  FixedHistogram* delivery_latency = nullptr;  ///< tu, app messages only

  void resolve(MetricRegistry& reg);
};

/// Sweep engine: per-replication cost and convergence trajectory.
struct SweepProbe {
  Counter* replications = nullptr;
  FixedHistogram* replication_wall = nullptr;  ///< seconds per replication batch
  Gauge* last_half_width = nullptr;            ///< latest relative CI half-width

  void resolve(MetricRegistry& reg);
};

}  // namespace mobichk::obs
