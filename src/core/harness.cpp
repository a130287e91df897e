#include "core/harness.hpp"

#include <cassert>
#include <stdexcept>

#include "des/shard_merge.hpp"
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
  slices_.clear();
  slices_.resize(n_shards);
  for (auto& slot : slots_) slot->log.enable_sharding(n_shards);
  for (auto& sl : slices_) {
    sl.pb_bytes.assign(slots_.size(), 0);
    sl.pb_dense_bytes.assign(slots_.size(), 0);
  }
}

void ProtocolHarness::merge_window() {
  // Deliveries in merged (time, shard) order — the sequential append
  // order the rollback machinery scans. A delivered message's id is
  // already final: its send merged at least one barrier earlier.
  cross_shard_ties_ += des::merge_shard_journals(
      slices_.size(), [this](usize s) -> auto& { return slices_[s].recvs; },
      [](const RecvRec& r) { return r.t; },
      [this](usize, const RecvRec& r) { msg_log_.note_delivery(r.d); });
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
  // Every slot's piggyback rides the message. Sharded runs count the
  // per-slot bytes in the executing shard's slice.
  des::ShardContext* c = slices_.empty() ? nullptr : des::current_shard();
  msg.pbs.resize(slots_.size());
  for (usize k = 0; k < slots_.size(); ++k) {
    obs::ProfScope prof_slot(slot_acc(plane, k));
    net::Piggyback& pb = msg.pbs[k];
    pb = slots_[k]->protocol->make_piggyback(host, msg.dst);
    const u64 wire = pb.wire_bytes();
    const u64 dense = pb.dense_bytes();
    if (c != nullptr) {
      slices_[c->shard].pb_bytes[k] += wire;
      slices_[c->shard].pb_dense_bytes[k] += dense;
    } else {
      slots_[k]->pb_bytes += wire;
      slots_[k]->pb_dense_bytes += dense;
    }
    if (k == 0) {  // slot 0 is charged on the wire
      msg.sn = pb.sn;
      msg.has_sn = pb.has_sn;
      msg.pb_bytes = wire;
      msg.pb_dense_bytes = dense;
    }
  }
}

void ProtocolHarness::on_receive(net::MobileHost& host, const net::AppMessage& msg) {
  obs::ProfLane* plane = prof_ != nullptr ? &prof_->lane() : nullptr;
  obs::ProfScope prof_merge(plane != nullptr ? &plane->pb_merge : nullptr);
  assert(msg.pbs.size() == slots_.size() && "the message was sent through this harness");
  for (usize k = 0; k < slots_.size(); ++k) {
    obs::ProfScope prof_slot(slot_acc(plane, k));
    slots_[k]->protocol->handle_receive(host, msg, msg.pbs[k]);
  }
  // The receive event will occupy the next position (see Network::consume_one).
  const MessageLog::Delivery d{msg.id, msg.src, msg.dst, msg.send_pos, host.event_pos() + 1,
                               msg.sn};
  des::ShardContext* c = slices_.empty() ? nullptr : des::current_shard();
  if (c != nullptr) {
    slices_[c->shard].recvs.push_back(RecvRec{c->sim->now(), d});
  } else {
    msg_log_.note_delivery(d);
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
