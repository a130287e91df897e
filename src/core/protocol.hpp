// The checkpointing-protocol abstraction.
//
// A protocol reacts to host-level events, decides when checkpoints are
// taken, and declares what control information rides on each application
// message. Protocols are written so that several can observe the *same*
// run side by side (paired evaluation): each keeps its own per-host state
// and writes to its own CheckpointLog, and each produces its own
// piggyback for every message (routed to it by ProtocolHarness).
#pragma once

#include <memory>
#include <string>

#include "core/checkpoint_log.hpp"
#include "des/lane.hpp"
#include "des/simulator.hpp"
#include "des/trace.hpp"
#include "net/ids.hpp"
#include "net/message.hpp"
#include "net/mobile_host.hpp"
#include "obs/timeline.hpp"

namespace mobichk::net {
class Network;
}
namespace mobichk::storage {
class DataPlane;
}

namespace mobichk::core {

/// Per-run wiring a protocol receives from the harness.
struct ProtocolContext {
  u32 n_hosts = 0;
  des::Simulator* sim = nullptr;
  net::Network* net = nullptr;          ///< Topology access (may be null in unit tests).
  CheckpointLog* log = nullptr;         ///< Required.
  /// Optional checkpoint data plane (set on slot 0 only: the physical
  /// run's checkpoints are uploaded through its service queues and
  /// transfer events; paired-observer slots are priced after the run
  /// from their logs).
  storage::DataPlane* data_plane = nullptr;
  des::TraceSink* sink = nullptr;       ///< Optional checkpoint tracing.
  obs::Timeline* timeline = nullptr;    ///< Optional checkpoint-timeline probe.
  i32 slot = -1;                        ///< Harness slot (timeline track id).

  /// The clock of the calling lane: inside a shard window the shard's
  /// simulator (checkpoints forced by receives must be stamped with the
  /// shard-local time), otherwise `sim`. Protocols stamping records or
  /// scheduling relative delays must use this, never sim->now() directly.
  des::Time now() const { return des::lane_sim(*sim).now(); }
};

class CheckpointProtocol {
 public:
  virtual ~CheckpointProtocol() = default;

  /// Stable short name ("TP", "BCS", "QBC", ...).
  virtual const char* name() const noexcept = 0;

  /// Wires the protocol to a run. Called once, before any hook.
  void bind(const ProtocolContext& ctx);

  // -- hooks (mirroring net::HostEventHandler, with explicit piggyback) --

  /// Host enters the computation; protocols take the initial checkpoint
  /// here so every host always has a recovery point.
  virtual void host_init(const net::MobileHost& host);

  /// Produces the control information for a message `host` sends to `dst`
  /// and applies the protocol's send rule (e.g. TP sets phase := SEND).
  /// Destination-aware protocols (TP) encode only what changed
  /// since the previous message on the same (src, dst) pair.
  virtual net::Piggyback make_piggyback(const net::MobileHost& host, net::HostId dst) = 0;

  /// Applies the receive rule; may take a forced checkpoint. `pb` is the
  /// control information this protocol attached at send time.
  virtual void handle_receive(const net::MobileHost& host, const net::AppMessage& msg,
                              const net::Piggyback& pb) = 0;

  /// Basic-checkpoint hooks mandated by the mobile setting.
  virtual void handle_cell_switch(const net::MobileHost& host, net::MssId from, net::MssId to) = 0;
  virtual void handle_disconnect(const net::MobileHost& host) = 0;
  virtual void handle_reconnect(const net::MobileHost& host, net::MssId mss);

  /// Control messages generated by the protocol itself (coordinated
  /// protocols send markers; communication-induced protocols send none).
  u64 control_messages() const noexcept { return control_messages_; }

  const ProtocolContext& context() const noexcept { return ctx_; }

 protected:
  /// Subclass hook: per-host state allocation once n_hosts is known.
  virtual void do_bind() {}

  /// Records a checkpoint for `host` with index `sn`; returns the record.
  /// `rule` names the condition that forced it and `trigger_msg` the
  /// message whose receipt forced it (obs timeline only; pass the
  /// defaults for basic/initial checkpoints — 0 means "no message").
  /// `replaced` marks a checkpoint that replaces its predecessor (QBC's
  /// equivalence rule).
  const CheckpointRecord& take_checkpoint(const net::MobileHost& host, CheckpointKind kind,
                                          u64 sn, obs::ForcedRule rule = obs::ForcedRule::kNone,
                                          net::MsgId trigger_msg = 0, bool replaced = false);

  /// Records a checkpoint with TP dependencies attached: `dep_count`
  /// entries DepWriter-encoded in `dep_size` bytes at `deps`, which the
  /// log copies into its snapshot arena; `rank` = n_hosts.
  const CheckpointRecord& take_checkpoint(const net::MobileHost& host, CheckpointKind kind,
                                          u64 sn, const u8* deps, usize dep_size, u32 dep_count,
                                          u32 rank, obs::ForcedRule rule = obs::ForcedRule::kNone,
                                          net::MsgId trigger_msg = 0);

  ProtocolContext ctx_;
  u64 control_messages_ = 0;

 private:
  const CheckpointRecord& finish_checkpoint(CheckpointRecord rec, const net::MobileHost& host,
                                            CheckpointKind kind, u64 sn, bool replaced,
                                            obs::ForcedRule rule, net::MsgId trigger_msg);
};

}  // namespace mobichk::core
