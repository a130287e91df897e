// VcOracle: offline vector-clock oracle, kept as the independent
// consistency check the tests run against the orphan oracle.
//
// Rebuilds every host's vector clock from the message log after a run
// and decides global-checkpoint consistency by the classical VC
// characterization: a cut {p_1..p_n} is consistent iff no member knows
// more of host i than the cut includes, i.e. for all j, i:
// vc_j(p_j)[i] <= p_i. This is provably equivalent to the absence of
// orphan messages, but is computed along a completely different path
// (transitive knowledge instead of direct crossings) — the property
// tests run both oracles against each other.
//
// Clocks are measured in event positions: vc_h(p)[i] is the highest
// event position of host i that host h transitively knows at its own
// position p (and vc_h(p)[h] = p).
#pragma once

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/message_log.hpp"
#include "core/recovery.hpp"
#include "des/types.hpp"
#include "net/ids.hpp"

namespace mobichk::core {

class VcOracle {
 public:
  /// Replays the deliveries of a finished run. Throws std::logic_error if
  /// the log is causally impossible (a receive that cannot be ordered).
  VcOracle(u32 n_hosts, const MessageLog& messages) : n_(n_hosts) {
    snapshots_.resize(n_);

    // Receives per host, ordered by receive position.
    std::vector<std::vector<const MessageLog::Delivery*>> receives(n_);
    for (const auto& d : messages.deliveries()) {
      if (d.src >= n_ || d.dst >= n_) throw std::invalid_argument("VcOracle: host id out of range");
      receives[d.dst].push_back(&d);
    }
    for (auto& r : receives) {
      std::sort(r.begin(), r.end(), [](const auto* a, const auto* b) {
        return a->recv_pos < b->recv_pos;
      });
    }

    // Kahn-style replay: a receive is processable once the sender has
    // processed all of its own receives that precede the send. Real time
    // orders sends before their receives, so progress is always possible.
    std::vector<usize> next(n_, 0);
    const auto processed_up_to = [&](net::HostId h) -> u64 {
      // The sender's knowledge is complete up to (excluding) its next
      // unprocessed receive.
      return next[h] < receives[h].size() ? receives[h][next[h]]->recv_pos : ~0ULL;
    };

    usize remaining = 0;
    for (const auto& r : receives) remaining += r.size();
    while (remaining > 0) {
      bool progressed = false;
      for (net::HostId h = 0; h < n_; ++h) {
        while (next[h] < receives[h].size()) {
          const MessageLog::Delivery* d = receives[h][next[h]];
          if (processed_up_to(d->src) <= d->send_pos) break;  // sender not ready
          std::vector<u64> vc = vc_at(d->src, d->send_pos);
          if (!snapshots_[h].empty()) {
            const auto& prev = snapshots_[h].back().vc;
            for (u32 i = 0; i < n_; ++i) vc[i] = std::max(vc[i], prev[i]);
          }
          vc[h] = std::max(vc[h], d->recv_pos);
          snapshots_[h].push_back(Snapshot{d->recv_pos, std::move(vc)});
          ++next[h];
          --remaining;
          progressed = true;
        }
      }
      if (!progressed) {
        throw std::logic_error("VcOracle: cyclic message log (impossible trace)");
      }
    }
  }

  u32 n_hosts() const noexcept { return n_; }

  /// Vector clock of `host` at event position `pos`.
  std::vector<u64> vc_at(net::HostId host, u64 pos) const {
    const auto& snaps = snapshots_.at(host);
    std::vector<u64> vc(n_, 0);
    // Last snapshot at or before `pos`.
    const auto it = std::upper_bound(snaps.begin(), snaps.end(), pos,
                                     [](u64 p, const Snapshot& s) { return p < s.recv_pos; });
    if (it != snaps.begin()) vc = (it - 1)->vc;
    vc[host] = std::max(vc[host], pos);
    return vc;
  }

  /// Whether `a` at position `pa` happened-before `b` at `pb`
  /// (transitively, via messages).
  bool happened_before(net::HostId a, u64 pa, net::HostId b, u64 pb) const {
    if (a == b) return pa < pb;
    return vc_at(b, pb)[a] >= pa && pa > 0;
  }

  /// The VC consistency test described above.
  bool consistent(const GlobalCheckpoint& cut) const {
    if (cut.pos.size() != n_) throw std::invalid_argument("VcOracle: cut size mismatch");
    for (net::HostId j = 0; j < n_; ++j) {
      const std::vector<u64> vc = vc_at(j, cut.pos[j]);
      for (net::HostId i = 0; i < n_; ++i) {
        if (i == j) continue;
        if (vc[i] > cut.pos[i]) return false;
      }
    }
    return true;
  }

 private:
  struct Snapshot {
    u64 recv_pos = 0;
    std::vector<u64> vc;  ///< Running merged knowledge after this receive.
  };

  u32 n_;
  std::vector<std::vector<Snapshot>> snapshots_;  ///< Per host, sorted by recv_pos.
};

}  // namespace mobichk::core
