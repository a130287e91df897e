// Mobile host (MH) view: attachment, connectivity, mailbox, and the
// per-host event-position counter used by the consistency oracle.
//
// MobileHost is mechanism-only and, since the SoA refactor, state-free:
// it is a 16-byte handle over the HostArena that actually stores every
// per-host field (net/host_arena.hpp). Protocol and policy code keeps
// the same read API it always had; mutation stays private to Network.
#pragma once

#include "des/types.hpp"
#include "net/host_arena.hpp"
#include "net/ids.hpp"

namespace mobichk::net {

class Network;

class MobileHost {
 public:
  MobileHost(HostArena* arena, HostId id) noexcept : arena_(arena), id_(id) {}

  HostId id() const noexcept { return id_; }

  /// Current MSS while connected; last MSS while disconnected.
  MssId mss() const noexcept { return arena_->mss[id_]; }

  bool connected() const noexcept { return arena_->connected[id_] != 0; }

  /// Number of messages delivered but not yet consumed by the application.
  usize mailbox_size() const noexcept { return arena_->mailbox[id_].size(); }

  /// Number of messages `cell`'s MSS holds for this host.
  usize buffered_at(MssId cell) const { return arena_->buffered_count(cell, id_); }

  /// Monotonic per-host event position; advanced once per application
  /// event (internal, send, receive). Checkpoints record the position at
  /// which they were taken, which lets the oracle decide whether a message
  /// crosses a cut.
  u64 event_pos() const noexcept { return arena_->event_pos[id_]; }

 private:
  friend class Network;

  u64 advance_pos() noexcept { return ++arena_->event_pos[id_]; }
  Mailbox& mailbox() noexcept { return arena_->mailbox[id_]; }

  HostArena* arena_;
  HostId id_;
};

}  // namespace mobichk::net
