#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "des/shard_merge.hpp"

namespace mobichk::net {

void NetworkConfig::validate() const {
  if (n_hosts < 2) throw std::invalid_argument("NetworkConfig: need at least 2 hosts");
  if (n_mss < 1) throw std::invalid_argument("NetworkConfig: need at least 1 MSS");
  if (wireless_latency < 0.0 || wired_latency < 0.0) {
    throw std::invalid_argument("NetworkConfig: negative latency");
  }
  if (duplicate_prob < 0.0 || duplicate_prob >= 1.0) {
    throw std::invalid_argument("NetworkConfig: duplicate_prob must be in [0, 1)");
  }
  if (wireless_bandwidth < 0.0) {
    throw std::invalid_argument("NetworkConfig: negative wireless bandwidth");
  }
}

Network::Network(des::Simulator& sim, NetworkConfig cfg, u64 seed, des::TraceSink* sink)
    : sim_(sim),
      cfg_(cfg),
      sink_(sink != nullptr ? sink : &null_sink_),
      channel_rng_(seed, "net.channel"),
      topology_(cfg.mss_topology, cfg.n_mss) {
  cfg_.validate();
  arena_.init(cfg_.n_hosts);
  channels_.resize(cfg_.n_mss);
  lanes_.resize(1);
  lanes_[0].sim = &sim_;
  owner_lane_.assign(cfg_.n_hosts, 0);
  hosts_.reserve(cfg_.n_hosts);
  for (HostId h = 0; h < cfg_.n_hosts; ++h) {
    hosts_.emplace_back(&arena_, h);
    arena_.mss[h] = static_cast<MssId>(h % cfg_.n_mss);
  }
}

void Network::start() {
  std::vector<MssId> placement(cfg_.n_hosts);
  for (HostId h = 0; h < cfg_.n_hosts; ++h) placement[h] = static_cast<MssId>(h % cfg_.n_mss);
  start(placement);
}

void Network::start(const std::vector<MssId>& placement) {
  if (started_) throw std::logic_error("Network::start called twice");
  if (placement.size() != cfg_.n_hosts) {
    throw std::invalid_argument("Network::start: placement size mismatch");
  }
  if (handler_ == nullptr) throw std::logic_error("Network::start: no handler installed");
  for (HostId h = 0; h < cfg_.n_hosts; ++h) {
    if (placement[h] >= cfg_.n_mss) throw std::invalid_argument("Network::start: bad MSS id");
    arena_.mss[h] = placement[h];
  }
  started_ = true;
  for (auto& host : hosts_) handler_->on_host_init(host);
}

u32 Network::park(Pool& pool, AppMessage msg) {
  u32 idx;
  if (!pool.free.empty()) {
    idx = pool.free.back();
    pool.free.pop_back();
    pool.parked[idx] = std::move(msg);
  } else {
    idx = static_cast<u32>(pool.parked.size());
    pool.parked.push_back(std::move(msg));
  }
  return idx;
}

AppMessage Network::unpark(u32 idx) {
  Pool& pool = here().pool;
  AppMessage msg = std::move(pool.parked[idx]);
  pool.free.push_back(idx);
  return msg;
}

u32 Network::park_leg(u32 lane, des::Time t, u8 sub, MssId at, bool flag, AppMessage msg) {
  LaneState& dst = lanes_[lane];
  const u32 idx = park(dst.pool, std::move(msg));
  dst.sim->schedule_at(t, hop_payload(sub, at, idx, flag));
  return idx;
}

des::EventPayload Network::hop_payload(u8 sub, MssId at, u32 park_idx, bool flag) noexcept {
  des::EventPayload p;
  p.target = this;
  p.kind = des::EventKind::kMessageHop;
  p.sub = sub;
  p.flags = flag ? 1 : 0;
  p.a = at;
  p.b = park_idx;
  return p;
}

void Network::on_event(const des::EventPayload& p) {
  // Host-time attribution: the whole leg handling counts as net.leg on
  // the executing lane (nested inside the kernel's dispatch.message_hop).
  obs::ProfScope prof_leg(prof_ != nullptr ? &prof_->lane().net_leg : nullptr);
  const MssId at = static_cast<MssId>(p.a);
  const u32 park_idx = static_cast<u32>(p.b);
  switch (p.sub) {
    case kSubUplink:
      msg_at_mss(at, unpark(park_idx), /*targeted=*/false);
      break;
    case kSubRouted:
      msg_at_mss(at, unpark(park_idx), /*targeted=*/(p.flags & 1) != 0);
      break;
    case kSubDeliver:
      deliver_to_host(at, unpark(park_idx), /*is_duplicate=*/(p.flags & 1) != 0);
      break;
    default:
      assert(false && "unknown kMessageHop sub-kind");
  }
}

f64 Network::wireless_delay(MssId cell, const AppMessage& msg) {
  if (cfg_.wireless_bandwidth <= 0.0) return cfg_.wireless_latency;
  const f64 service =
      cfg_.wireless_latency + static_cast<f64>(msg.wire_bytes()) / cfg_.wireless_bandwidth;
  return channels_.at(cell).reserve(sim_.now(), service) - sim_.now();
}

void Network::wired_forward(MssId from, MssId to, AppMessage msg) {
  const u32 hops = topology_.hops(from, to);
  st().wired_hops += hops;
  schedule_hop(cfg_.wired_latency * static_cast<f64>(hops), kSubRouted, to,
               /*flag=*/true, std::move(msg));
}

void Network::schedule_hop(f64 delay, u8 sub, MssId at, bool flag, AppMessage msg) {
  const u32 dst_lane = owner_lane_[msg.dst];
  assert((des::lane() == 0 || des::lane() == dst_lane) && "non-send legs are destination-local");
  park_leg(dst_lane, now() + delay, sub, at, flag, std::move(msg));
}

void Network::occupy_control(MssId cell) {
  if (cfg_.wireless_bandwidth <= 0.0) return;
  const f64 service = cfg_.wireless_latency +
                      static_cast<f64>(cfg_.control_message_bytes) / cfg_.wireless_bandwidth;
  channels_.at(cell).reserve(sim_.now(), service);
}

void Network::trace(des::TraceKind kind, u32 actor, u64 a, u64 b) {
  sink_->record(des::TraceRecord{now(), actor, kind, a, b});
}

void Network::internal_event(HostId host_id) { internal_events(host_id, 1); }

void Network::internal_events(HostId host_id, u64 count) {
  if (count == 0) return;
  MobileHost& h = hosts_.at(host_id);
  for (u64 i = 0; i < count; ++i) h.advance_pos();
  trace(des::TraceKind::kInternalEvent, host_id, h.event_pos(), count);
}

void Network::send_app_message(HostId src, HostId dst, u32 payload_bytes) {
  MobileHost& s = hosts_.at(src);
  assert(s.connected() && "disconnected hosts cannot send");
  assert(dst < cfg_.n_hosts && dst != src);

  const u32 lane = des::lane();
  LaneState& own = lanes_[lane];
  AppMessage msg;
  // A window-time send carries no id until the next barrier, which
  // assigns it in merged (time, lane) order — the order the sequential
  // engine would have executed these sends in — and writes it where the
  // message waits and into its kSend trace record.
  if (lane == 0) msg.id = next_msg_id_++;
  msg.src = src;
  msg.dst = dst;
  msg.payload_bytes = payload_bytes;
  const des::Time sent_at = now();
  msg.sent_at = sent_at;
  // The handler runs while event_pos() still names the last event *before*
  // this send, so a protocol that checkpoints on send produces a cut that
  // excludes the send. The send event then takes the next position.
  handler_->on_send(s, msg);
  msg.send_pos = s.advance_pos();
  observe_message(obs::ProbeKind::kSend, msg, src, dst);

  // In a window, the kSend record emitted next is a patch site for the id.
  const usize send_trace_idx = lane != 0 ? mux_->buffered(lane) : 0;
  trace(des::TraceKind::kSend, src, msg.id, dst);
  const Piggyback* pb = msg.wire_pb();
  const u64 pb_bytes = pb != nullptr ? pb->wire_bytes() : 0;
  const u64 pb_dense_bytes = pb != nullptr ? pb->dense_bytes() : 0;
  NetworkStats& ns = own.stats;
  ++ns.app_sent;
  ++ns.wireless_messages;  // MH -> MSS uplink.
  ns.payload_bytes += payload_bytes;
  ns.piggyback_bytes += pb_bytes;
  ns.piggyback_dense_bytes += pb_dense_bytes;

  // The uplink leg (like every later leg) runs on the lane that owns the
  // *destination*, so all per-host routing state it reads is owner-local.
  // Lane 0 reaches every lane (the shards are parked), and a window its
  // own; a window's cross-shard uplink is the one egress channel in the
  // system, handed over at the barrier.
  const MssId src_mss = s.mss();
  const des::Time arrive = sent_at + wireless_delay(src_mss, msg);
  const u32 dst_lane = owner_lane_[dst];
  u32 idx = 0;
  if (lane == 0 || dst_lane == lane) {
    idx = park_leg(dst_lane, arrive, kSubUplink, src_mss, false, std::move(msg));
  } else {
    idx = static_cast<u32>(own.egress[dst_lane].size());
    own.egress[dst_lane].push_back(EgressLeg{arrive, src_mss, kSubUplink, false, std::move(msg)});
  }
  if (lane != 0) own.sends.push_back(SendReg{sent_at, send_trace_idx, dst_lane, idx});
}

void Network::msg_at_mss(MssId at, AppMessage msg, bool targeted) {
  MobileHost& d = hosts_.at(msg.dst);
  if (!d.connected()) {
    if (d.mss() == at) {
      arena_.buffer_at(at, msg.dst, std::move(msg));
    } else {
      // Forward to the destination's last MSS, which buffers.
      wired_forward(at, d.mss(), std::move(msg));
    }
    return;
  }
  if (d.mss() != at) {
    // We expected the destination here and it moved: that is a chase.
    // From the source's own MSS it is just the normal routing hop.
    if (targeted) ++st().chase_forwards;
    wired_forward(at, d.mss(), std::move(msg));
    return;
  }
  // Destination is attached here: wireless downlink.
  ++st().wireless_messages;
  const f64 downlink = wireless_delay(at, msg);
  schedule_hop(downlink, kSubDeliver, at, /*flag=*/false, std::move(msg));
}

void Network::deliver_to_host(MssId from_mss, AppMessage msg, bool is_duplicate) {
  MobileHost& d = hosts_.at(msg.dst);
  if (!d.connected()) {
    // Disconnected during the wireless leg: the MSS retains the message.
    arena_.buffer_at(from_mss, msg.dst, std::move(msg));
    return;
  }
  if (d.mss() != from_mss) {
    // Moved during the wireless leg: the old MSS re-routes.
    ++st().chase_forwards;
    wired_forward(from_mss, d.mss(), std::move(msg));
    return;
  }
  // At-least-once transport: the delivery may be duplicated. (Duplication
  // is gated off in sharded mode — the shared channel RNG would order-
  // couple shards — so this branch runs on lane 0 only.)
  if (!is_duplicate && cfg_.duplicate_prob > 0.0 &&
      des::bernoulli(channel_rng_, cfg_.duplicate_prob)) {
    NetworkStats& ns = st();
    ++ns.duplicates_generated;
    ++ns.wireless_messages;
    AppMessage copy = msg;
    const f64 redelivery = wireless_delay(from_mss, copy);
    schedule_hop(redelivery, kSubDeliver, from_mss, /*flag=*/true, std::move(copy));
  }
  if (cfg_.duplicate_prob > 0.0 && cfg_.transport_dedup) {
    if (!arena_.seen_ids[msg.dst].insert(msg.id).second) {
      ++st().duplicates_suppressed;
      return;
    }
  }
  trace(des::TraceKind::kDeliver, msg.dst, msg.id, msg.src);
  const u32 lane = des::lane();
  LaneState& own = lanes_[lane];
  ++own.stats.app_delivered;
  const des::Time t = now();
  const f64 latency = t - msg.sent_at;
  if (lane == 0) {
    own.stats.delivery_latency.add(latency);
  } else {
    // Welford insertion is order-sensitive: journal now, replay into lane
    // 0's Tally in global time order at the barrier.
    own.latency.emplace_back(t, latency);
  }
  if (delivery_latency_ != nullptr) delivery_latency_->add(latency);
  d.mailbox().push(std::move(msg));
}

bool Network::consume_one(HostId host_id) {
  MobileHost& h = hosts_.at(host_id);
  if (h.mailbox().empty()) return false;
  AppMessage msg = h.mailbox().pop();
  // The protocol reacts (and possibly checkpoints) *before* the receive
  // event occupies its position, so a forced checkpoint excludes the
  // message being processed (no orphan by construction).
  handler_->on_receive(h, msg);
  h.advance_pos();
  // After on_receive: any forced-checkpoint probe event precedes the
  // deliver event, so online trackers see the cut the protocol built.
  observe_message(obs::ProbeKind::kDeliver, msg, host_id, msg.src);
  trace(des::TraceKind::kReceive, host_id, msg.id, msg.src);
  ++st().app_received;
  return true;
}

void Network::switch_cell(HostId host_id, MssId new_mss) {
  MobileHost& h = hosts_.at(host_id);
  assert(h.connected() && "cannot hand off a disconnected host");
  assert(new_mss < cfg_.n_mss && new_mss != h.mss());
  const MssId old_mss = h.mss();
  // Handoff protocol: one message to the MSS being left, one to the new
  // current MSS (paper §5.1).
  NetworkStats& ns = st();
  ns.control_messages += 2;
  ns.wireless_messages += 2;
  ++ns.handoffs;
  observe_mobility(obs::ProbeKind::kHandoff, host_id, static_cast<i32>(new_mss));
  occupy_control(old_mss);
  occupy_control(new_mss);
  arena_.mss[host_id] = new_mss;
  trace(des::TraceKind::kHandoff, host_id, old_mss, new_mss);
  handler_->on_cell_switch(h, old_mss, new_mss);
}

void Network::disconnect(HostId host_id) {
  MobileHost& h = hosts_.at(host_id);
  assert(h.connected() && "already disconnected");
  // Disconnection protocol: one message to the current MSS (paper §5.1).
  NetworkStats& ns = st();
  ns.control_messages += 1;
  ns.wireless_messages += 1;
  ++ns.disconnects;
  observe_mobility(obs::ProbeKind::kDisconnect, host_id, -1);
  occupy_control(h.mss());
  trace(des::TraceKind::kDisconnect, host_id, h.mss());
  // The basic checkpoint is taken while still attached.
  handler_->on_disconnect(h);
  arena_.connected[host_id] = 0;
}

void Network::reconnect(HostId host_id, MssId new_mss) {
  MobileHost& h = hosts_.at(host_id);
  assert(!h.connected() && "already connected");
  assert(new_mss < cfg_.n_mss);
  const MssId last_mss = h.mss();
  NetworkStats& ns = st();
  ns.control_messages += 1;
  ns.wireless_messages += 1;
  ++ns.reconnects;
  observe_mobility(obs::ProbeKind::kReconnect, host_id, static_cast<i32>(new_mss));
  occupy_control(new_mss);
  arena_.connected[host_id] = 1;
  arena_.mss[host_id] = new_mss;
  trace(des::TraceKind::kReconnect, host_id, last_mss, new_mss);
  handler_->on_reconnect(h, new_mss);
  // Messages that waited out the disconnection now flow to the new cell.
  auto pending = arena_.drain_buffered(last_mss, host_id);
  st().buffered_deliveries += pending.size();
  for (auto& msg : pending) {
    msg_at_mss(last_mss, std::move(msg), /*targeted=*/false);
  }
}

void Network::crash(HostId host_id) {
  MobileHost& h = hosts_.at(host_id);
  assert(h.connected() && "cannot crash a disconnected host");
  // A failure is unannounced: no control message, no upcall — the host
  // gets no chance to checkpoint (contrast disconnect()).
  ++st().crashes;
  observe_mobility(obs::ProbeKind::kCrash, host_id, -1);
  trace(des::TraceKind::kCrash, host_id, h.mss(), h.mailbox_size());
  arena_.connected[host_id] = 0;
  // Volatile state dies with the host. Messages delivered but not yet
  // consumed were already counted received by the MSS's stable log; park
  // them back in the cell buffer so replay re-delivers them.
  const MssId cell = h.mss();
  h.mailbox().drain(
      [this, cell, host_id](AppMessage&& msg) { arena_.buffer_at(cell, host_id, std::move(msg)); });
  arena_.seen_ids[host_id].clear();
}

void Network::enable_sharding(des::ShardedSimulator* sharded, des::ShardTraceMux* mux) {
  if (sharded == nullptr || mux == nullptr) {
    throw std::invalid_argument("enable_sharding: null coordinator or trace mux");
  }
  if (cfg_.duplicate_prob > 0.0) {
    throw std::invalid_argument(
        "enable_sharding: duplication is sequential-only (shared channel RNG)");
  }
  if (cfg_.wireless_bandwidth > 0.0) {
    throw std::invalid_argument(
        "enable_sharding: bandwidth-limited channels are sequential-only (shared FIFO)");
  }
  if (cfg_.wireless_latency <= 0.0 || cfg_.wired_latency <= 0.0) {
    throw std::invalid_argument(
        "enable_sharding: conservative sync needs strictly positive leg latencies");
  }
  if (delivery_latency_ != nullptr || timeline_ != nullptr) {
    throw std::invalid_argument("enable_sharding: observability hooks are sequential-only");
  }
  const u32 n_shards = sharded->n_shards();
  if (n_shards > cfg_.n_mss) {
    throw std::invalid_argument("enable_sharding: more shards than cells");
  }
  mux_ = mux;
  // Static ownership: contiguous cell blocks of the current placement.
  // Cell c belongs to shard c * S / n_mss; a host never migrates owners,
  // whatever cells it later visits.
  std::vector<u32> owner_shard(cfg_.n_hosts);
  for (HostId h = 0; h < cfg_.n_hosts; ++h) {
    owner_shard[h] = static_cast<u32>(static_cast<u64>(arena_.mss[h]) * n_shards / cfg_.n_mss);
    owner_lane_[h] = 1 + owner_shard[h];
  }
  sharded->set_owner_map(std::move(owner_shard));
  lanes_.resize(1 + n_shards);
  for (u32 s = 0; s < n_shards; ++s) lanes_[1 + s].sim = &sharded->shard_sim(s);
  for (auto& l : lanes_) l.egress.resize(lanes_.size());
}

void Network::merge_window() {
  const usize n = lanes_.size();
  // 1. Final message ids, assigned in merged (time, lane) order — the
  //    order the sequential engine executed these sends in (the merge
  //    counts any equal-time pick the lane index had to break). Each
  //    goes into the message where it waits and into its kSend trace
  //    record before the mux flush hashes it.
  cross_shard_ties_ += des::merge_shard_journals(
      n, [this](usize l) -> auto& { return lanes_[l].sends; },
      [](const SendReg& reg) { return reg.t; },
      [this](usize l, const SendReg& reg) {
        LaneState& src = lanes_[l];
        const u64 final_id = next_msg_id_++;
        AppMessage& msg = reg.dst_lane == l ? src.pool.parked[reg.idx]
                                            : src.egress[reg.dst_lane][reg.idx].msg;
        msg.id = final_id;
        mux_->patch_a(static_cast<u32>(l), reg.trace_idx, final_id);
      });
  for (auto& l : lanes_) l.sends.clear();
  // 2. Cross-shard legs: hand each to its owner lane in (time, source
  //    lane) order. Every leg's arrival time is at or past the window
  //    horizon (delay >= lookahead), so the owner's clock has not passed it.
  for (u32 dst = 0; dst < n; ++dst) {
    cross_shard_ties_ += des::merge_shard_journals(
        n, [this, dst](usize l) -> auto& { return lanes_[l].egress[dst]; },
        [](const EgressLeg& leg) { return leg.t; },
        [this, dst](usize, EgressLeg& leg) {
          park_leg(dst, leg.t, leg.sub, leg.at, leg.flag, std::move(leg.msg));
        });
    for (auto& l : lanes_) l.egress[dst].clear();
  }
  // 3. Delivery latencies, into lane 0's Tally in merged (time, lane)
  //    order: the sequential insertion order, so mean and variance are
  //    bit-identical, not just permutation-equal.
  using Sample = std::pair<des::Time, f64>;
  cross_shard_ties_ += des::merge_shard_journals(
      n, [this](usize l) -> auto& { return lanes_[l].latency; },
      [](const Sample& sample) { return sample.first; },
      [this](usize, const Sample& sample) { lanes_[0].stats.delivery_latency.add(sample.second); });
  for (auto& l : lanes_) l.latency.clear();
  // 4. Publish this window's trace records downstream, time-merged.
  mux_->flush();
}

NetworkStats Network::stats() const {
  NetworkStats sum = lanes_[0].stats;
  for (usize l = 1; l < lanes_.size(); ++l) {
    const NetworkStats& s = lanes_[l].stats;
    sum.app_sent += s.app_sent;
    sum.app_delivered += s.app_delivered;
    sum.app_received += s.app_received;
    sum.control_messages += s.control_messages;
    sum.wireless_messages += s.wireless_messages;
    sum.wired_hops += s.wired_hops;
    sum.handoffs += s.handoffs;
    sum.disconnects += s.disconnects;
    sum.reconnects += s.reconnects;
    sum.crashes += s.crashes;
    sum.restores += s.restores;
    sum.chase_forwards += s.chase_forwards;
    sum.buffered_deliveries += s.buffered_deliveries;
    sum.duplicates_generated += s.duplicates_generated;
    sum.duplicates_suppressed += s.duplicates_suppressed;
    sum.payload_bytes += s.payload_bytes;
    sum.bulk_transfers += s.bulk_transfers;
    sum.bulk_wired_hops += s.bulk_wired_hops;
    sum.bulk_wired_bytes += s.bulk_wired_bytes;
    sum.piggyback_bytes += s.piggyback_bytes;
    sum.piggyback_dense_bytes += s.piggyback_dense_bytes;
  }
  return sum;
}

void Network::restore(HostId host_id, MssId at_mss) {
  MobileHost& h = hosts_.at(host_id);
  assert(!h.connected() && "cannot restore a live host");
  assert(at_mss < cfg_.n_mss);
  const MssId last_mss = h.mss();
  // The rejoin itself looks like a reconnection to the substrate: one
  // control message announcing the restored host to its MSS.
  NetworkStats& ns = st();
  ns.control_messages += 1;
  ns.wireless_messages += 1;
  ++ns.restores;
  observe_mobility(obs::ProbeKind::kRecover, host_id, static_cast<i32>(at_mss));
  occupy_control(at_mss);
  arena_.connected[host_id] = 1;
  arena_.mss[host_id] = at_mss;
  trace(des::TraceKind::kRecover, host_id, last_mss, at_mss);
  handler_->on_reconnect(h, at_mss);
  // Messages buffered during the outage (including the crash-parked
  // mailbox) flow to the restored host.
  auto pending = arena_.drain_buffered(last_mss, host_id);
  st().buffered_deliveries += pending.size();
  for (auto& msg : pending) {
    msg_at_mss(last_mss, std::move(msg), /*targeted=*/false);
  }
}

}  // namespace mobichk::net
