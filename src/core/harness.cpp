#include "core/harness.hpp"

#include <cassert>
#include <stdexcept>

#include "des/lane.hpp"
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
    : net_(net), sink_(sink), lanes_(1) {
  net_.set_handler(this);
}

usize ProtocolHarness::add_protocol(std::unique_ptr<CheckpointProtocol> protocol) {
  if (protocol == nullptr) throw std::invalid_argument("add_protocol: null protocol");
  slots_.push_back(
      std::make_unique<Slot>(Slot{std::move(protocol), CheckpointLog(net_.n_hosts())}));
  Slot& stored = *slots_.back();
  for (LaneState& l : lanes_) l.pb.emplace_back();
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
  lanes_.resize(1 + n_shards);
  for (LaneState& l : lanes_) l.pb.resize(slots_.size());
  for (auto& slot : slots_) slot->log.enable_sharding(n_shards);
}

void ProtocolHarness::merge_window() {
  // Deliveries in merged (time, lane) order — the sequential append
  // order the rollback machinery scans. A delivered message's id is
  // already final: its send merged at least one barrier earlier.
  cross_shard_ties_ += des::merge_shard_journals(
      lanes_.size(), [this](usize l) -> auto& { return lanes_[l].recvs; },
      [](const RecvRec& r) { return r.t; },
      [this](usize, const RecvRec& r) { msg_log_.note_delivery(r.d); });
  for (LaneState& l : lanes_) l.recvs.clear();
}

void ProtocolHarness::on_send(net::MobileHost& host, net::AppMessage& msg) {
  obs::ProfLane* plane = prof_ != nullptr ? &prof_->lane() : nullptr;
  obs::ProfScope prof_enc(plane != nullptr ? &plane->pb_encode : nullptr);
  // Every slot's piggyback rides the message; its bytes count on the
  // calling lane.
  LaneState& here = lanes_[des::lane()];
  msg.pbs.resize(slots_.size());
  for (usize k = 0; k < slots_.size(); ++k) {
    obs::ProfScope prof_slot(slot_acc(plane, k));
    net::Piggyback& pb = msg.pbs[k];
    pb = slots_[k]->protocol->make_piggyback(host, msg.dst);
    here.pb[k].wire += pb.wire_bytes();
    here.pb[k].dense += pb.dense_bytes();
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
  const net::Piggyback* pb = msg.wire_pb();
  const MessageLog::Delivery d{msg.id, msg.src, msg.dst, msg.send_pos, host.event_pos() + 1,
                               pb != nullptr ? pb->sn : 0};
  const u32 lane = des::lane();
  if (lane == 0) {
    msg_log_.note_delivery(d);
  } else {
    lanes_[lane].recvs.push_back(RecvRec{net_.now(), d});
  }
}

void ProtocolHarness::on_cell_switch(net::MobileHost& host, net::MssId from, net::MssId to) {
  if (data_plane_ != nullptr) {
    // Before the protocols' basic checkpoints, so a migration at the same
    // timestamp is processed first and the new checkpoint samples
    // locality against the post-migration placement.
    data_plane_->on_handoff(host.id(), from, to, net_.now());
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
