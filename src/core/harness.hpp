// ProtocolHarness: binds one or more checkpointing protocols to a network
// run as *paired observers*.
//
// The paper evaluates protocols with instantaneous checkpoint insertion
// (§5.1), so a protocol never perturbs the event timeline. That makes it
// sound — and statistically ideal — to run every protocol against the
// same trace: each protocol keeps its own per-host state and its own
// CheckpointLog, and produces its own piggyback for every
// message. Every slot's piggyback rides the message (AppMessage::pbs),
// so at receive time each protocol reads its own control information
// off the message and the harness holds no per-message state. Slot 0 is
// the "primary" protocol whose piggyback sizes are charged on the wire
// (and counted by NetworkStats); the harness additionally accounts
// per-protocol piggyback bytes so overhead comparisons cover every slot.
//
// The harness also maintains the MessageLog — the record of deliveries
// the consistency checker and the rollback machinery read — from the
// delivered message itself.
#pragma once

#include <memory>
#include <vector>

#include "core/checkpoint_log.hpp"
#include "core/message_log.hpp"
#include "core/protocol.hpp"
#include "net/handler.hpp"
#include "net/network.hpp"

namespace mobichk::core {

class ProtocolHarness final : public net::HostEventHandler {
 public:
  /// Creates the harness and installs it as the network's handler.
  ProtocolHarness(net::Network& net, des::TraceSink* sink = nullptr);

  /// Registers a protocol (before net.start()). Returns its slot index.
  usize add_protocol(std::unique_ptr<CheckpointProtocol> protocol);

  usize protocol_count() const noexcept { return slots_.size(); }
  CheckpointProtocol& protocol(usize slot) { return *slots_.at(slot)->protocol; }
  const CheckpointProtocol& protocol(usize slot) const { return *slots_.at(slot)->protocol; }
  const CheckpointLog& log(usize slot) const { return slots_.at(slot)->log; }
  /// Control-information bytes protocol `slot` put (or would have put) on
  /// the wire over the whole run, as actually encoded (TP counts its delta
  /// list, not the paper's full vectors).
  u64 piggyback_bytes(usize slot) const { return sum_lanes(&SlotBytes::wire, slot); }
  /// Dense-equivalent control bytes for `slot`: what the same control
  /// information would have cost with full vectors on every message.
  /// Equal to piggyback_bytes for protocols without a delta list.
  u64 piggyback_dense_bytes(usize slot) const { return sum_lanes(&SlotBytes::dense, slot); }

  const MessageLog& message_log() const noexcept { return msg_log_; }

  /// Current event position of every host (the "now" cut); recovery-line
  /// builders use it for virtual (current-state) members.
  std::vector<u64> current_positions() const;

  /// Routes checkpoint-timeline probes into `timeline` (nullptr = off).
  /// Must be called before add_protocol; later slots inherit it.
  void set_timeline(obs::Timeline* timeline) noexcept { timeline_ = timeline; }

  /// Attaches the host-time profiler (nullptr = off). Piggyback encode
  /// (on_send) and merge (on_receive) are timed on the executing lane,
  /// with per-slot handler time nested under prof.proto.*.
  void set_profiler(obs::Profiler* prof) noexcept { prof_ = prof; }

  /// Attaches the checkpoint data plane (nullptr = off). Must be called
  /// before add_protocol: slot 0 — the physical run — uploads its
  /// checkpoints through it, and every cell switch becomes a handoff
  /// (checkpoint-migration) hook.
  void set_data_plane(storage::DataPlane* data_plane) noexcept { data_plane_ = data_plane; }

  // -- spatial sharding -------------------------------------------------

  /// Switches the harness into shard-parallel mode: one lane per shard
  /// beside lane 0 counts per-slot piggyback bytes and journals
  /// deliveries for the barrier merge, and each slot's log gets a
  /// snapshot arena per lane.
  void enable_sharding(u32 n_shards);

  /// Barrier-time merge (coordinator, shards parked): appends this
  /// window's delivery journals to the MessageLog in merged (time, lane)
  /// order, which is the sequential order the rollback machinery scans.
  void merge_window();

  /// Delivery merges that broke an equal-time tie by shard index
  /// (des::merge_shard_journals). 0 in sequential runs.
  u64 cross_shard_ties() const noexcept { return cross_shard_ties_; }

  // -- net::HostEventHandler --------------------------------------------
  void on_host_init(net::MobileHost& host) override;
  void on_send(net::MobileHost& host, net::AppMessage& msg) override;
  void on_receive(net::MobileHost& host, const net::AppMessage& msg) override;
  void on_cell_switch(net::MobileHost& host, net::MssId from, net::MssId to) override;
  void on_disconnect(net::MobileHost& host) override;
  void on_reconnect(net::MobileHost& host, net::MssId mss) override;

 private:
  struct Slot {
    std::unique_ptr<CheckpointProtocol> protocol;
    CheckpointLog log;
  };

  struct RecvRec {
    des::Time t = 0.0;  ///< Receive time (merge key).
    MessageLog::Delivery d;
  };

  /// One slot's piggyback bytes, encoded and dense-equivalent.
  struct SlotBytes {
    u64 wire = 0;
    u64 dense = 0;
  };

  /// One lane's counters and journal, padded against false sharing.
  /// Lane 0 notes its deliveries at once, so its journal stays empty.
  struct LaneState {
    std::vector<RecvRec> recvs;   ///< This window's deliveries.
    std::vector<SlotBytes> pb;    ///< Per protocol slot, whole run.
    char pad[des::kLanePadBytes];
  };

  u64 sum_lanes(u64 SlotBytes::* field, usize slot) const {
    u64 total = 0;
    for (const LaneState& l : lanes_) total += l.pb.at(slot).*field;
    return total;
  }

  net::Network& net_;
  des::TraceSink* sink_;
  obs::Timeline* timeline_ = nullptr;
  obs::Profiler* prof_ = nullptr;
  storage::DataPlane* data_plane_ = nullptr;
  /// Heap-allocated: protocols hold pointers into their slot's log,
  /// which must stay stable as more slots are added.
  std::vector<std::unique_ptr<Slot>> slots_;
  MessageLog msg_log_;
  std::vector<LaneState> lanes_;  ///< Lane 0, then one per shard.
  u64 cross_shard_ties_ = 0;
};

}  // namespace mobichk::core
