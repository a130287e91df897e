#include "obs/probes.hpp"

#include <string>

namespace mobichk::obs {

void KernelProbe::resolve(MetricRegistry& reg) {
  // des.dispatch.closure (the retired closure event path) and
  // des.queue.cancels / des.queue.compactions (the retired event
  // cancellation) stay registered at their old catalog positions and
  // always read 0, because the benchmark suite's pinned fingerprints hash
  // the exported metric documents byte for byte.
  reg.counter("des.dispatch.closure");
  for (usize k = 0; k < des::kEventKindCount; ++k) {
    dispatched[k] = &reg.counter(std::string("des.dispatch.") + des::event_kind_name(k));
  }
  pushes = &reg.counter("des.queue.pushes");
  pops = &reg.counter("des.queue.pops");
  reg.counter("des.queue.cancels");
  reg.counter("des.queue.compactions");
  max_pending = &reg.gauge("des.queue.max_pending");
}

void NetProbe::resolve(MetricRegistry& reg) {
  uplink_legs = &reg.counter("net.leg.uplink");
  wired_hops = &reg.counter("net.leg.wired_hop");
  downlink_legs = &reg.counter("net.leg.downlink");
  payload_bytes = &reg.counter("net.bytes.payload");
  piggyback_bytes = &reg.counter("net.bytes.piggyback");
  piggyback_dense_bytes = &reg.counter("net.bytes.piggyback_dense");
  handoffs = &reg.counter("net.mobility.handoffs");
  disconnects = &reg.counter("net.mobility.disconnects");
  reconnects = &reg.counter("net.mobility.reconnects");
  crashes = &reg.counter("net.mobility.crashes");
  restores = &reg.counter("net.mobility.restores");
  delivery_latency = &reg.histogram("net.delivery_latency_tu", 0.0, 50.0, 100);
}

void SweepProbe::resolve(MetricRegistry& reg) {
  replications = &reg.counter("sweep.replications");
  replication_wall = &reg.histogram("sweep.replication_wall_s", 0.0, 5.0, 100);
  last_half_width = &reg.gauge("sweep.last_half_width");
}

}  // namespace mobichk::obs
