// The mobile network substrate: MHs, MSSs, cells, channels, routing.
//
// Model (paper §3 and §5.1):
//  * Every MH is attached to exactly one MSS (its cell) while connected.
//  * Application messages travel MH -> current MSS (wireless, 0.01 tu),
//    are located and forwarded over the wired network (0.01 tu per MSS-MSS
//    hop), and descend MSS -> MH (wireless, 0.01 tu).
//  * The transport guarantees at-least-once delivery: the wireless leg may
//    duplicate (configurable probability); the host transport layer
//    deduplicates unless configured to expose duplicates.
//  * Handoff costs two control messages (old MSS, new MSS); a voluntary
//    disconnection costs one. Messages addressed to a disconnected MH are
//    buffered at its last MSS and forwarded when it reconnects.
//
// An MSS is not an object here: which cell each host is in, and which
// messages a cell holds for a disconnected host, are columns of the
// HostArena (net/host_arena.hpp), and the wired distance between two
// MSSs is MssTopology's closed form (net/topology.hpp).
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "des/distributions.hpp"
#include "des/event.hpp"
#include "des/lane.hpp"
#include "des/stats.hpp"
#include "des/rng.hpp"
#include "des/sharded.hpp"
#include "des/simulator.hpp"
#include "des/trace.hpp"
#include "des/types.hpp"
#include "net/channel.hpp"
#include "net/handler.hpp"
#include "net/host_arena.hpp"
#include "net/ids.hpp"
#include "net/message.hpp"
#include "net/mobile_host.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/timeline.hpp"

namespace mobichk::net {

/// Static parameters of the network substrate.
struct NetworkConfig {
  u32 n_hosts = 10;             ///< Paper: 10 MHs.
  u32 n_mss = 5;                ///< Paper: 5 MSSs.
  f64 wireless_latency = 0.01;  ///< MH <-> MSS hop (paper: 0.01 tu).
  f64 wired_latency = 0.01;     ///< MSS <-> MSS transfer (paper: 0.01 tu).
  f64 duplicate_prob = 0.0;     ///< Per-delivery duplication probability.
  bool transport_dedup = true;  ///< Suppress duplicates before the app sees them.
  /// Wireless cell bandwidth in bytes per time unit; 0 = ideal channel
  /// (constant latency, the paper's model). When positive, every
  /// transmission in a cell serializes through a shared FIFO channel and
  /// occupies it for wireless_latency + bytes / bandwidth.
  f64 wireless_bandwidth = 0.0;
  u32 control_message_bytes = 64;  ///< Size of handoff/disconnect messages.
  /// Shape of the wired network between MSSs; non-adjacent MSSs pay
  /// wired_latency per hop (paper: "transfer between adjacent MSSs").
  MssTopologyKind mss_topology = MssTopologyKind::kFullMesh;

  void validate() const;
};

/// Aggregate substrate statistics for one run.
struct NetworkStats {
  u64 app_sent = 0;
  u64 app_delivered = 0;       ///< Placed into a mailbox.
  u64 app_received = 0;        ///< Consumed by the application.
  u64 control_messages = 0;    ///< Handoff + disconnect + reconnect messages.
  u64 wireless_messages = 0;   ///< Every wireless hop, app + control.
  u64 wired_hops = 0;          ///< Every MSS-MSS transfer.
  u64 handoffs = 0;
  u64 disconnects = 0;
  u64 reconnects = 0;
  u64 crashes = 0;             ///< Injected host failures.
  u64 restores = 0;            ///< Post-recovery rejoins.
  u64 chase_forwards = 0;      ///< Re-forwards caused by in-flight mobility.
  u64 buffered_deliveries = 0; ///< Deliveries that waited out a disconnection.
  u64 duplicates_generated = 0;
  u64 duplicates_suppressed = 0;
  u64 payload_bytes = 0;
  u64 bulk_transfers = 0;      ///< Data-plane bulk wired transfers (migrations, fetches).
  u64 bulk_wired_hops = 0;     ///< MSS-MSS legs of those transfers (in wired_hops too).
  u64 bulk_wired_bytes = 0;    ///< Bytes those transfers moved between MSSs.
  u64 piggyback_bytes = 0;     ///< Control information carried on app messages
                               ///< (encoded size: TP piggybacks count deltas).
  u64 piggyback_dense_bytes = 0;  ///< Dense-equivalent control bytes (the cost the
                                  ///< paper-literal full vectors would have paid).
  des::Tally delivery_latency; ///< Send-to-mailbox latency of app messages.
};

/// The network substrate. Owns the host arena (the one record of which
/// cell each host is in and which messages each cell holds for it), the
/// wired topology and the cell channels; mechanisms only (policy lives in
/// src/sim/).
///
/// Message legs (uplink, wired routing, downlink, duplicate redelivery)
/// are scheduled as typed kMessageHop events dispatched back into this
/// object: the in-flight AppMessage is parked in a pooled slot and the
/// event payload carries only the pool index, the MSS the leg ends at,
/// and a flag bit — no per-event allocation.
class Network final : public des::EventTarget {
 public:
  /// `seed` feeds the channel randomness (duplication). `sink` may be
  /// nullptr to discard traces.
  Network(des::Simulator& sim, NetworkConfig cfg, u64 seed, des::TraceSink* sink = nullptr);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Installs the checkpointing-layer upcall handler. Must be called
  /// before start().
  void set_handler(HostEventHandler* handler) noexcept { handler_ = handler; }

  /// Attaches observability (both may be nullptr = off): the histogram
  /// takes every app message's send-to-mailbox latency, the timeline the
  /// message and mobility markers. Both must outlive the network. The
  /// counters an observer exports are read from stats() after the run.
  void set_observer(obs::FixedHistogram* delivery_latency, obs::Timeline* timeline) noexcept {
    delivery_latency_ = delivery_latency;
    timeline_ = timeline;
  }

  /// Attaches the host-time profiler (nullptr = off). The executing lane
  /// is resolved per call, so this is safe in sharded runs.
  void set_profiler(obs::Profiler* prof) noexcept { prof_ = prof; }

  // -- spatial sharding -------------------------------------------------

  /// Switches the substrate into shard-parallel mode: hosts are owned by
  /// shards in contiguous cell blocks of their *current* placement
  /// (call after any custom start() placement is decided — the default
  /// round-robin placement from the constructor matches start()), the
  /// owner map is installed into `sharded`, and one lane per shard is
  /// added beside lane 0 (stats, in-flight pool, egress channels,
  /// journals). `mux` must be the TraceSink this network was constructed
  /// with (kSend records are patched in its buffers when message ids are
  /// finalized).
  /// Requires an ideal channel (no bandwidth cap, no duplication, no
  /// observer) and strictly positive latencies — the wired/wireless
  /// minimum is the conservative lookahead.
  void enable_sharding(des::ShardedSimulator* sharded, des::ShardTraceMux* mux);

  /// Barrier-time merge, run on the coordinator with all shards parked:
  /// assigns final message ids to this window's sends in global
  /// (time, lane) order, writing each into the waiting message and its
  /// buffered kSend trace record, drains cross-shard egress legs into
  /// their owner queues, replays the window's delivery latencies into
  /// lane 0's Tally in the same order (the sequential insertion order, so
  /// mean and variance are bit-identical), and flushes the trace mux.
  void merge_window();

  /// Barrier-merge picks (send ids, egress legs, latency replay) whose
  /// time another shard's journal head shared; the trace mux counts its
  /// own. 0 in sequential runs.
  u64 cross_shard_ties() const noexcept { return cross_shard_ties_; }

  /// Owner shard of `host` (valid after enable_sharding).
  u32 owner_shard(HostId host) const { return owner_lane_[host] - 1; }

  /// Places hosts round-robin over MSSs and fires on_host_init upcalls.
  void start();

  /// Places hosts per `placement` (size n_hosts) and fires on_host_init.
  void start(const std::vector<MssId>& placement);

  // -- topology access -------------------------------------------------
  u32 n_hosts() const noexcept { return cfg_.n_hosts; }
  u32 n_mss() const noexcept { return cfg_.n_mss; }
  MobileHost& host(HostId id) { return hosts_.at(id); }
  const MobileHost& host(HostId id) const { return hosts_.at(id); }
  /// Contention statistics of a cell's wireless channel (meaningful when
  /// wireless_bandwidth > 0; otherwise all-zero).
  const CellChannel& channel(MssId id) const { return channels_.at(id); }
  const MssTopology& topology() const noexcept { return topology_; }
  des::Simulator& sim() noexcept { return sim_; }
  /// The clock of the calling lane: its shard's simulator inside a
  /// window, the main simulator otherwise.
  des::Time now() const { return des::lane_sim(sim_).now(); }
  const NetworkConfig& config() const noexcept { return cfg_; }
  /// The run's totals: every lane's counters summed, with lane 0's
  /// delivery-latency Tally (shard lanes journal theirs into it).
  NetworkStats stats() const;

  // -- application operations (driven by the workload model) -----------

  /// Executes an internal event at `host` (advances its event position).
  void internal_event(HostId host);

  /// Executes `count` consecutive internal events at `host` in one step
  /// (used by the workload to fill inter-communication gaps cheaply).
  void internal_events(HostId host, u64 count);

  /// Sends an application message; the handler fills the piggyback.
  /// Pre: the source host is connected.
  void send_app_message(HostId src, HostId dst, u32 payload_bytes);

  /// Consumes the oldest delivered message at `host`, invoking the
  /// handler's on_receive first. Returns false if the mailbox is empty.
  bool consume_one(HostId host);

  // -- mobility operations (driven by the mobility model) --------------

  /// Hands `host` off to `new_mss` (two control messages; basic
  /// checkpoint upcall). Pre: connected, new_mss != current.
  void switch_cell(HostId host, MssId new_mss);

  /// Voluntarily disconnects `host` (one control message; basic
  /// checkpoint upcall). Pre: connected.
  void disconnect(HostId host);

  /// Reconnects `host` at `new_mss`; buffered messages are forwarded.
  /// Pre: disconnected.
  void reconnect(HostId host, MssId new_mss);

  // -- failure operations (driven by the crash engine) ------------------

  /// Kills `host` without warning: unlike disconnect() there is no
  /// control message and no protocol upcall (the host had no chance to
  /// checkpoint). Volatile state — the mailbox and dedup set — is lost;
  /// undelivered mailbox messages are re-buffered at the host's MSS,
  /// whose stable message log retains them for replay. Pre: connected.
  void crash(HostId host);

  /// Accounts one bulk wired transfer (a checkpoint migration or a
  /// recovery-image fetch) of `bytes` across `hops` MSS-MSS legs. The
  /// checkpoint data plane calls this from the coordinator (window
  /// barriers and crash events), never inside a shard window, so it
  /// counts on lane 0.
  void account_bulk_wired(u32 hops, u64 bytes) noexcept {
    NetworkStats& ns = st();
    ns.wired_hops += hops;
    ns.bulk_wired_hops += hops;
    ns.bulk_wired_bytes += bytes;
    ++ns.bulk_transfers;
  }

  /// Rejoins `host` at `at_mss` after rollback + replay completed. Pays
  /// the reconnect control cost, fires on_reconnect (protocols checkpoint
  /// the restored state), and forwards messages buffered during the
  /// outage. Pre: crashed/disconnected.
  void restore(HostId host, MssId at_mss);

  /// Typed-event dispatch for in-flight message legs (des::EventTarget).
  void on_event(const des::EventPayload& payload) override;

 private:
  /// kMessageHop sub-kinds (EventPayload::sub).
  enum : u8 {
    kSubUplink = 0,   ///< MH -> MSS wireless leg arrived (a = source MSS).
    kSubRouted = 1,   ///< Wired transfer done (a = MSS, flags bit0 = targeted).
    kSubDeliver = 2,  ///< MSS -> MH wireless leg arrived (flags bit0 = is_duplicate).
  };

  /// Recycled storage for in-flight messages, one per lane: a leg is
  /// parked and unparked by the same lane, the owner of its destination.
  struct Pool {
    std::vector<AppMessage> parked;
    std::vector<u32> free;
  };

  /// A send made during a shard window, awaiting its final message id at
  /// the barrier, and where the message waits for it: slot `idx` of the
  /// sending lane's pool when `dst_lane` is the sending lane, else entry
  /// `idx` of its egress channel to `dst_lane`. The uplink takes at least
  /// the lookahead, so the message is still there at the barrier.
  struct SendReg {
    des::Time t = 0.0;       ///< Send time (merge key).
    usize trace_idx = 0;     ///< Buffered kSend record to patch.
    u32 dst_lane = 0;
    u32 idx = 0;
  };

  /// A message leg crossing shards (only the send uplink can): handed to
  /// the destination's owner at the barrier.
  struct EgressLeg {
    des::Time t = 0.0;       ///< Absolute arrival time of the leg.
    MssId at = 0;
    u8 sub = 0;
    bool flag = false;
    AppMessage msg;
  };

  /// Everything one lane touches, padded to keep the hot counters off
  /// other lanes' cache lines. The window-only parts (sends, latency,
  /// egress) stay empty on lane 0, which applies them at once.
  struct LaneState {
    NetworkStats stats;          ///< Counters (the Tally is lane 0's alone).
    Pool pool;                   ///< In-flight legs owned by this lane.
    des::Simulator* sim = nullptr;  ///< The queue those legs run on.
    std::vector<SendReg> sends;  ///< This window's sends, in time order.
    std::vector<std::pair<des::Time, f64>> latency;  ///< Delivery-latency journal.
    std::vector<std::vector<EgressLeg>> egress;      ///< Per destination lane.
    char pad[des::kLanePadBytes];
  };

  /// Parks an in-flight message in `pool`; returns its slot index.
  u32 park(Pool& pool, AppMessage msg);
  /// Reclaims a message the calling lane parked, freeing its slot.
  AppMessage unpark(u32 idx);
  /// Parks `msg` in lane `lane`'s pool and schedules its leg on that
  /// lane's simulator at absolute time `t`; returns the pool slot.
  u32 park_leg(u32 lane, des::Time t, u8 sub, MssId at, bool flag, AppMessage msg);
  /// Builds the kMessageHop payload for one message leg.
  des::EventPayload hop_payload(u8 sub, MssId at, u32 park_idx, bool flag) noexcept;

  /// The calling lane's state, and the stats it accumulates into.
  LaneState& here() { return lanes_[des::lane()]; }
  NetworkStats& st() { return here().stats; }

  /// Schedules a (non-send) message leg `delay` from the current clock.
  /// All such legs are destination-local: they run on the lane that owns
  /// msg.dst, which in a window is the calling lane. Lane-0 calls in a
  /// sharded run (restore-time redelivery) inject into the owner's queue
  /// directly — the shards are parked.
  void schedule_hop(f64 delay, u8 sub, MssId at, bool flag, AppMessage msg);

  /// `targeted` is true when `at` was chosen because the destination was
  /// believed to be there (so finding it gone is a chase, not routing).
  void msg_at_mss(MssId at, AppMessage msg, bool targeted = false);
  /// Delay of a wireless transmission of `msg` in `cell`, reserving the
  /// shared channel when a bandwidth is configured.
  f64 wireless_delay(MssId cell, const AppMessage& msg);
  /// Accounts a control message's channel occupancy (no delivery delay).
  void occupy_control(MssId cell);
  /// Schedules the wired transfer of `msg` from `from` to `to`, paying
  /// one wired_latency per hop, then re-runs msg_at_mss at the target.
  void wired_forward(MssId from, MssId to, AppMessage msg);
  void deliver_to_host(MssId from_mss, AppMessage msg, bool is_duplicate);
  void trace(des::TraceKind kind, u32 actor, u64 a = 0, u64 b = 0);

  /// Records a message-flow marker (kSend/kDeliver) on the timeline.
  /// `actor` is the host where the event happens, `peer` the other end;
  /// the piggybacked sn is the wire value (slot 0's protocol).
  void observe_message(obs::ProbeKind kind, const AppMessage& msg, HostId actor, HostId peer) {
    if (timeline_ == nullptr) return;
    obs::ProbeEvent e;
    e.t = sim_.now();
    e.kind = kind;
    e.actor = static_cast<i32>(actor);
    e.track = static_cast<i32>(peer);
    e.a = msg.id;
    const Piggyback* pb = msg.wire_pb();
    e.b = pb != nullptr && pb->has_sn ? pb->sn : 0;
    timeline_->record(e);
  }

  /// Records a mobility marker on the timeline (handoff / (dis)connect).
  void observe_mobility(obs::ProbeKind kind, HostId host, i32 track) {
    if (timeline_ == nullptr) return;
    obs::ProbeEvent e;
    e.t = sim_.now();
    e.kind = kind;
    e.actor = static_cast<i32>(host);
    e.track = track;
    timeline_->record(e);
  }

  des::Simulator& sim_;
  NetworkConfig cfg_;
  HostEventHandler* handler_ = nullptr;
  obs::FixedHistogram* delivery_latency_ = nullptr;
  obs::Profiler* prof_ = nullptr;
  obs::Timeline* timeline_ = nullptr;
  des::NullSink null_sink_;
  des::TraceSink* sink_;
  des::RngStream channel_rng_;
  MssTopology topology_;
  HostArena arena_;                ///< SoA storage for all per-host state.
  std::vector<MobileHost> hosts_;  ///< Thin views over arena_, index = id.
  std::vector<CellChannel> channels_;
  std::vector<LaneState> lanes_;   ///< Lane 0, then one per shard.
  std::vector<u32> owner_lane_;    ///< host -> lane its legs run on (all 0 sequential).
  u64 next_msg_id_ = 1;
  bool started_ = false;

  // -- sharded mode (null in sequential runs) ----------------------------
  des::ShardTraceMux* mux_ = nullptr;
  u64 cross_shard_ties_ = 0;
};

}  // namespace mobichk::net
