// Structure-of-arrays storage for all mobile-host state.
//
// At city scale (10^4..10^6 MHs) a vector of fat host objects is the
// wrong shape: every MobileHost used to own a deque (one heap chunk each
// at construction) and scattered scalars, so touching one field of many
// hosts walked strided memory full of pointers. The arena keeps each
// field in its own dense array indexed by host id — constructing 10^5
// hosts costs a handful of allocations, and hot paths (event-position
// bumps, connectivity checks, location lookups) scan contiguous memory.
// MobileHost (net/mobile_host.hpp) is a thin view over this arena, which
// keeps the protocol-facing API unchanged.
#pragma once

#include <deque>
#include <unordered_set>
#include <vector>

#include "des/types.hpp"
#include "net/ids.hpp"
#include "net/message.hpp"

namespace mobichk::net {

/// FIFO mailbox over a recycled vector: pops advance a head index and the
/// buffer rewinds (keeping its capacity) whenever it empties, so steady
/// state deliver/consume cycles never allocate.
class Mailbox {
 public:
  usize size() const noexcept { return q_.size() - head_; }
  bool empty() const noexcept { return head_ == q_.size(); }

  void push(AppMessage msg) { q_.push_back(std::move(msg)); }

  /// Pre: !empty().
  AppMessage pop() {
    AppMessage msg = std::move(q_[head_]);
    ++head_;
    if (head_ == q_.size()) {
      q_.clear();
      head_ = 0;
    }
    return msg;
  }

  /// Calls `f(AppMessage&&)` for every queued message, then empties.
  template <typename F>
  void drain(F&& f) {
    for (usize i = head_; i < q_.size(); ++i) f(std::move(q_[i]));
    q_.clear();
    head_ = 0;
  }

 private:
  std::vector<AppMessage> q_;
  usize head_ = 0;
};

/// Messages an MSS holds for one (disconnected) host. A host rarely has
/// buffers at more than one MSS at a time, so a flat vector of per-cell
/// queues beats a map.
struct BufferedAt {
  MssId at = 0;
  std::deque<AppMessage> q;
};

/// All per-host network state, one array per field (index = dense HostId).
/// It is the only record of where hosts are (`mss`) and of what each MSS
/// holds for them (`buffered`).
///
/// The MSS message buffers are indexed by the *host* they are held for and
/// tagged with the MSS holding them, not kept per MSS: shard-parallel
/// windows have each host's owner shard touching only that host's
/// buffers, which would race on a shared per-MSS map.
struct HostArena {
  std::vector<MssId> mss;        ///< Current cell while connected; last cell otherwise.
  std::vector<u8> connected;     ///< 1 = attached to its cell.
  std::vector<u64> event_pos;    ///< Consistency-oracle event position.
  std::vector<Mailbox> mailbox;  ///< Delivered-but-unconsumed messages.
  std::vector<std::vector<BufferedAt>> buffered;  ///< MSS-held messages, per host.
  /// Transport dedup (only fed when duplication is on; an untouched
  /// unordered_set performs no heap allocation).
  std::vector<std::unordered_set<u64>> seen_ids;

  void init(u32 n_hosts) {
    mss.assign(n_hosts, 0);
    connected.assign(n_hosts, 1);
    event_pos.assign(n_hosts, 0);
    mailbox.assign(n_hosts, {});
    buffered.assign(n_hosts, {});
    seen_ids.assign(n_hosts, {});
  }

  /// Queues a message held at `cell` for `host` (FIFO per cell).
  void buffer_at(MssId cell, HostId host, AppMessage msg) {
    for (auto& b : buffered[host]) {
      if (b.at == cell) {
        b.q.push_back(std::move(msg));
        return;
      }
    }
    buffered[host].push_back(BufferedAt{cell, {}});
    buffered[host].back().q.push_back(std::move(msg));
  }

  /// Removes and returns everything `cell` holds for `host` (FIFO order).
  std::vector<AppMessage> drain_buffered(MssId cell, HostId host) {
    auto& entries = buffered[host];
    for (usize i = 0; i < entries.size(); ++i) {
      if (entries[i].at != cell) continue;
      std::vector<AppMessage> out(std::make_move_iterator(entries[i].q.begin()),
                                  std::make_move_iterator(entries[i].q.end()));
      entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
      return out;
    }
    return {};
  }

  usize buffered_count(MssId cell, HostId host) const {
    for (const auto& b : buffered[host]) {
      if (b.at == cell) return b.q.size();
    }
    return 0;
  }
};

}  // namespace mobichk::net
