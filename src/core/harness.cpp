#include "core/harness.hpp"

#include <stdexcept>

#include "storage/data_plane.hpp"

namespace mobichk::core {

namespace {

/// Per-slot handler accumulator on `lane` (null lane == no-op scope);
/// slots past the lane's capacity fold into the last bucket.
obs::PhaseAccum* slot_acc(obs::ProfLane* lane, usize k) {
  if (lane == nullptr) return nullptr;
  return &lane->proto[k < obs::ProfLane::kMaxProtoSlots ? k : obs::ProfLane::kMaxProtoSlots - 1];
}

}  // namespace

ProtocolHarness::ProtocolHarness(net::Network& net, des::TraceSink* sink)
    : net_(net), sink_(sink) {
  net_.set_handler(this);
}

usize ProtocolHarness::add_protocol(std::unique_ptr<CheckpointProtocol> protocol) {
  if (protocol == nullptr) throw std::invalid_argument("add_protocol: null protocol");
  slots_.push_back(
      std::make_unique<Slot>(Slot{std::move(protocol), CheckpointLog(net_.n_hosts())}));
  Slot& stored = *slots_.back();
  ProtocolContext ctx;
  ctx.n_hosts = net_.n_hosts();
  ctx.sim = &net_.sim();
  ctx.net = &net_;
  ctx.log = &stored.log;
  // Only the physical run (slot 0) drives the data plane; paired
  // observer slots would double-count bytes that never hit a wire.
  ctx.data_plane = slots_.size() == 1 ? data_plane_ : nullptr;
  ctx.sink = sink_;
  ctx.timeline = timeline_;
  ctx.slot = static_cast<i32>(slots_.size()) - 1;
  stored.protocol->bind(ctx);
  return slots_.size() - 1;
}

std::vector<u64> ProtocolHarness::current_positions() const {
  std::vector<u64> pos(net_.n_hosts());
  for (net::HostId h = 0; h < net_.n_hosts(); ++h) pos[h] = net_.host(h).event_pos();
  return pos;
}

void ProtocolHarness::on_host_init(net::MobileHost& host) {
  for (auto& slot : slots_) slot->protocol->host_init(host);
}

void ProtocolHarness::enable_sharding(u32 n_shards) {
  if (retain_piggybacks_) {
    throw std::logic_error("ProtocolHarness: duplicate-exposing runs are sequential-only");
  }
  slices_.clear();
  slices_.resize(n_shards);
  for (auto& slot : slots_) slot->log.enable_sharding(n_shards);
  for (auto& sl : slices_) {
    sl.pb_bytes.assign(slots_.size(), 0);
    sl.pb_dense_bytes.assign(slots_.size(), 0);
  }
}

void ProtocolHarness::merge_window(const std::unordered_map<u64, u64>& idmap) {
  // Sends first (the map is order-independent), translated to final ids.
  for (auto& sl : slices_) {
    for (const SendRec& s : sl.sends) {
      const auto it = idmap.find(s.id);
      msg_log_.note_send(it != idmap.end() ? it->second : s.id, s.src, s.dst, s.pos);
    }
    sl.sends.clear();
  }
  // Deliveries in merged (time, shard) order — the sequential append
  // order the rollback machinery scans. Ids seen at receive time are
  // already final: the send merged at least one barrier earlier.
  const u32 n = static_cast<u32>(slices_.size());
  std::vector<usize> head(n, 0);
  for (;;) {
    u32 best = n;
    for (u32 s = 0; s < n; ++s) {
      if (head[s] >= slices_[s].recvs.size()) continue;
      if (best == n || slices_[s].recvs[head[s]].t < slices_[best].recvs[head[best]].t) best = s;
    }
    if (best == n) break;
    const RecvRec& r = slices_[best].recvs[head[best]++];
    msg_log_.note_receive(r.id, r.pos, r.sn);
  }
  for (auto& sl : slices_) sl.recvs.clear();
}

void ProtocolHarness::finalize_sharding() {
  for (auto& sl : slices_) {
    for (usize k = 0; k < slots_.size(); ++k) {
      slots_[k]->pb_bytes += sl.pb_bytes[k];
      slots_[k]->pb_dense_bytes += sl.pb_dense_bytes[k];
      sl.pb_bytes[k] = 0;
      sl.pb_dense_bytes[k] = 0;
    }
  }
}

void ProtocolHarness::on_send(net::MobileHost& host, net::AppMessage& msg) {
  obs::ProfLane* plane = prof_ != nullptr ? &prof_->lane() : nullptr;
  obs::ProfScope prof_enc(plane != nullptr ? &plane->pb_encode : nullptr);
  // Sharded runs: the piggybacks travel by value with the message (the
  // sender's and receiver's shards share no parking pool), per-slot bytes
  // go to the executing shard's slice, and the MessageLog update is
  // journaled for the barrier. Sequential runs park them in the pool.
  const bool sharded = !slices_.empty();
  des::ShardContext* c = sharded ? des::current_shard() : nullptr;
  u32 idx = 0;
  if (!sharded) {
    if (!park_free_.empty()) {
      idx = park_free_.back();
      park_free_.pop_back();
    } else {
      idx = static_cast<u32>(park_.size());
      park_.emplace_back();
    }
  }
  std::vector<net::Piggyback>& pbs = sharded ? msg.pbs : park_[idx].pbs;
  pbs.resize(slots_.size());
  for (usize k = 0; k < slots_.size(); ++k) {
    obs::ProfScope prof_slot(slot_acc(plane, k));
    pbs[k] = slots_[k]->protocol->make_piggyback(host, msg.dst);
    const u64 wire = pbs[k].wire_bytes();
    const u64 dense = pbs[k].dense_bytes();
    if (c != nullptr) {
      slices_[c->shard].pb_bytes[k] += wire;
      slices_[c->shard].pb_dense_bytes[k] += dense;
    } else {
      slots_[k]->pb_bytes += wire;
      slots_[k]->pb_dense_bytes += dense;
    }
    if (k == 0) {  // slot 0 rides the wire
      msg.sn = pbs[k].sn;
      msg.has_sn = pbs[k].has_sn;
      msg.pb_bytes = wire;
      msg.pb_dense_bytes = dense;
    }
  }
  // The send event will occupy the next position (see Network::send_app_message).
  if (c != nullptr) {
    slices_[c->shard].sends.push_back(SendRec{msg.id, msg.src, msg.dst, host.event_pos() + 1});
  } else {
    msg_log_.note_send(msg.id, msg.src, msg.dst, host.event_pos() + 1);
  }
  if (!sharded) in_flight_.emplace(msg.id, idx);
}

void ProtocolHarness::on_receive(net::MobileHost& host, const net::AppMessage& msg) {
  obs::ProfLane* plane = prof_ != nullptr ? &prof_->lane() : nullptr;
  obs::ProfScope prof_merge(plane != nullptr ? &plane->pb_merge : nullptr);
  if (!slices_.empty()) {
    for (usize k = 0; k < slots_.size(); ++k) {
      obs::ProfScope prof_slot(slot_acc(plane, k));
      slots_[k]->protocol->handle_receive(host, msg, msg.pbs[k]);
    }
    if (des::ShardContext* c = des::current_shard()) {
      slices_[c->shard].recvs.push_back(
          RecvRec{c->sim->now(), msg.id, host.event_pos() + 1, msg.sn});
    } else {
      msg_log_.note_receive(msg.id, host.event_pos() + 1, msg.sn);
    }
    return;
  }
  const auto it = in_flight_.find(msg.id);
  if (it == in_flight_.end()) {
    throw std::logic_error(
        "ProtocolHarness: piggybacks for a delivered message are gone; "
        "call retain_piggybacks(true) when the network exposes duplicates");
  }
  const std::vector<net::Piggyback>& pbs = park_[it->second].pbs;
  for (usize k = 0; k < slots_.size(); ++k) {
    obs::ProfScope prof_slot(slot_acc(plane, k));
    slots_[k]->protocol->handle_receive(host, msg, pbs[k]);
  }
  // The receive event will occupy the next position (see Network::consume_one).
  msg_log_.note_receive(msg.id, host.event_pos() + 1, msg.sn);
  if (!retain_piggybacks_) {
    park_free_.push_back(it->second);
    in_flight_.erase(it);
  }
}

void ProtocolHarness::on_cell_switch(net::MobileHost& host, net::MssId from, net::MssId to) {
  if (data_plane_ != nullptr) {
    // Before the protocols' basic checkpoints, so a migration at the same
    // timestamp is processed first and the new checkpoint samples
    // locality against the post-migration placement.
    des::ShardContext* c = des::current_shard();
    data_plane_->on_handoff(host.id(), from, to, c != nullptr ? c->sim->now() : net_.sim().now());
  }
  for (auto& slot : slots_) slot->protocol->handle_cell_switch(host, from, to);
}

void ProtocolHarness::on_disconnect(net::MobileHost& host) {
  for (auto& slot : slots_) slot->protocol->handle_disconnect(host);
}

void ProtocolHarness::on_reconnect(net::MobileHost& host, net::MssId mss) {
  for (auto& slot : slots_) slot->protocol->handle_reconnect(host, mss);
}

}  // namespace mobichk::core
