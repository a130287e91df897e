#include "net/topology.hpp"

#include <stdexcept>
#include <string>

namespace mobichk::net {

const char* mss_topology_name(MssTopologyKind kind) noexcept {
  switch (kind) {
    case MssTopologyKind::kFullMesh: return "full-mesh";
    case MssTopologyKind::kRing: return "ring";
    case MssTopologyKind::kLine: return "line";
    case MssTopologyKind::kStar: return "star";
  }
  return "?";
}

MssTopologyKind mss_topology_from_name(std::string_view name) {
  for (const auto kind : {MssTopologyKind::kFullMesh, MssTopologyKind::kRing,
                          MssTopologyKind::kLine, MssTopologyKind::kStar}) {
    if (name == mss_topology_name(kind)) return kind;
  }
  throw std::invalid_argument("unknown MSS topology: " + std::string(name));
}

MssTopology::MssTopology(MssTopologyKind kind, u32 n_mss) : kind_(kind), n_mss_(n_mss) {
  if (n_mss == 0) throw std::invalid_argument("MssTopology: need at least one MSS");
}

}  // namespace mobichk::net
