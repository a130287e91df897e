#include "sim/workload.hpp"

#include <cmath>

namespace mobichk::sim {

WorkloadDriver::WorkloadDriver(des::Simulator& sim, net::Network& net, const SimConfig& cfg)
    : sim_(sim), net_(net), cfg_(cfg), comm_gap_(cfg.comm_mean), lanes_(1) {
  per_host_.reserve(net.n_hosts());
  for (net::HostId h = 0; h < net.n_hosts(); ++h) {
    per_host_.push_back(HostState{des::RngStream(cfg.seed, "workload", h), 0, {}});
  }
}

void WorkloadDriver::set_latency_probes(std::vector<const core::CheckpointLog*> logs) {
  latency_probes_ = std::move(logs);
  for (auto& hs : per_host_) hs.seen_ckpts.assign(latency_probes_.size(), 0);
}

void WorkloadDriver::start() {
  for (net::HostId h = 0; h < net_.n_hosts(); ++h) schedule_next(h, 0.0);
}

void WorkloadDriver::resume(net::HostId host) {
  ++per_host_.at(host).epoch;
  schedule_next(host, 0.0);
}

void WorkloadDriver::schedule_next(net::HostId host, f64 extra_delay) {
  HostState& hs = per_host_.at(host);
  const f64 gap = comm_gap_.sample(hs.rng);
  // The gap is filled with internal events of mean execution time
  // internal_mean each.
  const u64 internal_count = static_cast<u64>(std::llround(gap / cfg_.internal_mean));
  des::EventPayload p;
  p.target = this;
  p.kind = des::EventKind::kWorkloadOp;
  p.a = host;
  p.b = hs.epoch;
  p.c = internal_count;
  des::route_schedule_after(sim_, gap + extra_delay, p);
}

void WorkloadDriver::on_event(const des::EventPayload& p) {
  const auto host = static_cast<net::HostId>(p.a);
  HostState& state = per_host_.at(host);
  // Stale events from before a disconnect/reconnect cycle are dropped;
  // resume() restarted the loop under a fresh epoch.
  if (state.epoch != p.b || !net_.host(host).connected()) return;
  execute_op(host, p.c);
}

void WorkloadDriver::execute_op(net::HostId host, u64 internal_count) {
  HostState& hs = per_host_.at(host);
  net_.internal_events(host, internal_count);
  CounterSlice& c = cnt();
  c.internal_events += internal_count;
  ++c.ops;
  if (des::bernoulli(hs.rng, cfg_.p_send)) {
    const auto dst = static_cast<net::HostId>(
        des::uniform_index_excluding(hs.rng, net_.n_hosts(), host));
    net_.send_app_message(host, dst, cfg_.payload_bytes);
    ++c.sends;
  } else {
    if (net_.consume_one(host)) {
      ++c.receives;
    } else {
      ++c.empty_receives;
    }
  }
  // Checkpoint-latency extension: stall for checkpoints this op induced,
  // summed over every probed protocol slot.
  f64 extra = 0.0;
  if (!latency_probes_.empty() && cfg_.ckpt_latency > 0.0) {
    for (usize p = 0; p < latency_probes_.size(); ++p) {
      const u64 now_count = latency_probes_[p]->count(host);
      extra += cfg_.ckpt_latency * static_cast<f64>(now_count - hs.seen_ckpts[p]);
      hs.seen_ckpts[p] = now_count;
    }
  }
  schedule_next(host, extra);
}

}  // namespace mobichk::sim
