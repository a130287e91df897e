#include "obs/observer.hpp"

#include <stdexcept>
#include <string>

#include "des/event.hpp"

namespace mobichk::obs {

RunObserver::RunObserver() {
  // The des.* and net.* counters are filled after the run (Experiment::run)
  // but registered here, so the catalog order of every exported document
  // stays put. des.dispatch.closure (the retired closure event path) and
  // des.queue.cancels / des.queue.compactions (the retired event
  // cancellation) always read 0 and keep their old positions, because the
  // benchmark suite's pinned fingerprints hash the exported metric
  // documents byte for byte.
  registry_.counter("des.dispatch.closure");
  for (usize k = 0; k < des::kEventKindCount; ++k) {
    registry_.counter(std::string("des.dispatch.") + des::event_kind_name(k));
  }
  for (const char* name : {"des.queue.pushes", "des.queue.pops", "des.queue.cancels",
                           "des.queue.compactions"}) {
    registry_.counter(name);
  }
  registry_.gauge("des.queue.max_pending");
  for (const char* name :
       {"net.leg.uplink", "net.leg.wired_hop", "net.leg.downlink", "net.bytes.payload",
        "net.bytes.piggyback", "net.bytes.piggyback_dense", "net.mobility.handoffs",
        "net.mobility.disconnects", "net.mobility.reconnects", "net.mobility.crashes",
        "net.mobility.restores"}) {
    registry_.counter(name);
  }
  delivery_latency_ = &registry_.histogram("net.delivery_latency_tu", 0.0, 50.0, 100);
  sweep_.replications = &registry_.counter("sweep.replications");
  sweep_.replication_wall = &registry_.histogram("sweep.replication_wall_s", 0.0, 5.0, 100);
  sweep_.last_half_width = &registry_.gauge("sweep.last_half_width");
  timeline_.set_dropped_counter(&registry_.counter("obs.timeline.dropped_events"));
}

CausalMonitor& RunObserver::enable_causal(const std::vector<TrackerMode>& modes) {
  if (n_hosts_ <= 0) {
    throw std::logic_error("RunObserver::enable_causal: set_n_hosts first");
  }
  monitor_ = std::make_unique<CausalMonitor>(static_cast<u32>(n_hosts_), modes, protocol_names_,
                                             registry_);
  timeline_.set_listener(monitor_.get());
  return *monitor_;
}

void RunObserver::finalize_causal() {
  if (monitor_ != nullptr) monitor_->finalize();
}

}  // namespace mobichk::obs
