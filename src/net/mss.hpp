// Mobile support station (MSS): the fixed, wired-side agent of a cell.
//
// In this substrate the MSS's visible responsibilities are (i) buffering
// application messages addressed to disconnected hosts until they
// reconnect, and (ii) serving as the stable-storage site for checkpoints
// (each CheckpointRecord names its MSS; core::storage_traffic prices the
// uploads and storage::DataPlane serves them). Routing decisions are made
// by Network using the location directory.
//
// The buffered messages themselves live in the HostArena (keyed by the
// host they are held for and tagged with this MSS), so shard-parallel
// windows touch disjoint per-host state; this class keeps the per-MSS
// API and the lifetime counters. The counters are relaxed atomics
// because hosts owned by different shards route through the same cell.
#pragma once

#include <vector>

#include "des/relaxed_counter.hpp"
#include "des/types.hpp"
#include "net/host_arena.hpp"
#include "net/ids.hpp"
#include "net/message.hpp"

namespace mobichk::net {

class Mss {
 public:
  /// `arena` stores the buffered messages; must outlive the Mss.
  Mss(MssId id, HostArena* arena) noexcept : id_(id), arena_(arena) {}

  MssId id() const noexcept { return id_; }

  /// Queues a message for a disconnected host.
  void buffer_message(HostId host, AppMessage msg) {
    arena_->buffer_at(id_, host, std::move(msg));
    ++messages_buffered_;
  }

  /// Removes and returns all messages buffered for `host` (FIFO order).
  std::vector<AppMessage> drain_buffer(HostId host) {
    return arena_->drain_buffered(id_, host);
  }

  usize buffered_count(HostId host) const { return arena_->buffered_count(id_, host); }

  /// Lifetime count of messages ever buffered at this MSS.
  u64 messages_buffered() const noexcept { return messages_buffered_; }

  /// Lifetime count of messages this MSS routed onward (updated by Network).
  u64 messages_routed() const noexcept { return messages_routed_; }
  void note_routed() noexcept { ++messages_routed_; }

 private:
  MssId id_;
  HostArena* arena_;
  des::RelaxedCounter messages_buffered_;
  des::RelaxedCounter messages_routed_;
};

}  // namespace mobichk::net
