// Wired-network topology between MSSs.
//
// The paper prices "message transfer between adjacent MSSs" — i.e. the
// wired network is a graph and non-adjacent MSSs pay per-hop. This
// module provides the usual fixed topologies; every one has a closed-form
// hop count, so a topology is just its kind and size and a hop query is
// O(1) at any cell count. kFullMesh (every pair adjacent) reproduces the
// single-hop model most analyses assume.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "des/types.hpp"
#include "net/ids.hpp"

namespace mobichk::net {

enum class MssTopologyKind : u8 {
  kFullMesh,  ///< Every MSS pair is adjacent (1 hop).
  kRing,      ///< MSS i adjacent to (i±1) mod n.
  kLine,      ///< A chain: i adjacent to i±1.
  kStar,      ///< MSS 0 is the hub; everyone else is a leaf.
};

const char* mss_topology_name(MssTopologyKind kind) noexcept;

/// Inverse of mss_topology_name; throws std::invalid_argument on an
/// unknown name.
MssTopologyKind mss_topology_from_name(std::string_view name);

class MssTopology {
 public:
  /// Throws std::invalid_argument when n_mss == 0.
  MssTopology(MssTopologyKind kind, u32 n_mss);

  MssTopologyKind kind() const noexcept { return kind_; }
  u32 n_mss() const noexcept { return n_mss_; }

  /// Wired hops between two MSSs (0 when a == b): the shortest path in
  /// the topology's graph. Throws std::out_of_range for an id >= n_mss().
  u32 hops(MssId a, MssId b) const {
    if (a >= n_mss_ || b >= n_mss_) throw std::out_of_range("MssTopology::hops: bad MSS id");
    if (a == b) return 0;
    const u32 d = a > b ? a - b : b - a;
    switch (kind_) {
      case MssTopologyKind::kFullMesh: return 1;
      case MssTopologyKind::kRing: return std::min(d, n_mss_ - d);
      case MssTopologyKind::kLine: return d;
      case MssTopologyKind::kStar: return a == 0 || b == 0 ? 1 : 2;
    }
    return 0;
  }

 private:
  MssTopologyKind kind_;
  u32 n_mss_;
};

}  // namespace mobichk::net
