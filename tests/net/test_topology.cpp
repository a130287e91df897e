#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <stdexcept>
#include <vector>

#include "des/simulator.hpp"
#include "net/network.hpp"

namespace mobichk::net {
namespace {

constexpr MssTopologyKind kAllKinds[] = {MssTopologyKind::kFullMesh, MssTopologyKind::kRing,
                                         MssTopologyKind::kLine, MssTopologyKind::kStar};

/// Reference all-pairs hop table: the topology's adjacency lists and one
/// BFS per source MSS.
std::vector<std::vector<u32>> bfs_hops(MssTopologyKind kind, u32 n) {
  std::vector<std::vector<MssId>> adj(n);
  const auto link = [&adj](MssId a, MssId b) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  };
  switch (kind) {
    case MssTopologyKind::kFullMesh:
      for (MssId a = 0; a < n; ++a) {
        for (MssId b = a + 1; b < n; ++b) link(a, b);
      }
      break;
    case MssTopologyKind::kRing:
      for (MssId a = 0; a + 1 < n; ++a) link(a, a + 1);
      if (n > 2) link(n - 1, 0);
      break;
    case MssTopologyKind::kLine:
      for (MssId a = 0; a + 1 < n; ++a) link(a, a + 1);
      break;
    case MssTopologyKind::kStar:
      for (MssId a = 1; a < n; ++a) link(0, a);
      break;
  }
  std::vector<std::vector<u32>> dist(n, std::vector<u32>(n, 0));
  for (MssId src = 0; src < n; ++src) {
    std::vector<bool> seen(n, false);
    std::deque<MssId> queue{src};
    seen[src] = true;
    while (!queue.empty()) {
      const MssId u = queue.front();
      queue.pop_front();
      for (const MssId v : adj[u]) {
        if (seen[v]) continue;
        seen[v] = true;
        dist[src][v] = dist[src][u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

TEST(MssTopology, FullMeshIsOneHopEverywhere) {
  MssTopology t(MssTopologyKind::kFullMesh, 5);
  for (MssId a = 0; a < 5; ++a) {
    for (MssId b = 0; b < 5; ++b) {
      EXPECT_EQ(t.hops(a, b), a == b ? 0u : 1u);
    }
  }
}

TEST(MssTopology, RingDistances) {
  MssTopology t(MssTopologyKind::kRing, 6);
  EXPECT_EQ(t.hops(0, 1), 1u);
  EXPECT_EQ(t.hops(0, 2), 2u);
  EXPECT_EQ(t.hops(0, 3), 3u);
  EXPECT_EQ(t.hops(0, 4), 2u);  // shorter the other way around
  EXPECT_EQ(t.hops(0, 5), 1u);
  EXPECT_EQ(t.hops(1, 4), 3u);  // the antipode: both ways are 3
  EXPECT_EQ(t.hops(5, 2), 3u);
}

TEST(MssTopology, LineDistances) {
  MssTopology t(MssTopologyKind::kLine, 5);
  EXPECT_EQ(t.hops(0, 4), 4u);
  EXPECT_EQ(t.hops(1, 3), 2u);
  EXPECT_EQ(t.hops(4, 0), 4u);  // no wrap-around on a line
  EXPECT_EQ(t.hops(3, 2), 1u);
}

TEST(MssTopology, StarDistances) {
  MssTopology t(MssTopologyKind::kStar, 5);
  EXPECT_EQ(t.hops(0, 3), 1u);  // hub to leaf
  EXPECT_EQ(t.hops(2, 4), 2u);  // leaf to leaf via the hub
  EXPECT_EQ(t.hops(4, 0), 1u);  // leaf to hub
  EXPECT_EQ(t.hops(1, 2), 2u);  // adjacent ids, still via the hub
}

TEST(MssTopology, SymmetricDistances) {
  for (const auto kind : kAllKinds) {
    MssTopology t(kind, 7);
    for (MssId a = 0; a < 7; ++a) {
      for (MssId b = 0; b < 7; ++b) {
        EXPECT_EQ(t.hops(a, b), t.hops(b, a)) << mss_topology_name(kind);
      }
    }
  }
}

TEST(MssTopology, SingleMss) {
  MssTopology t(MssTopologyKind::kRing, 1);
  EXPECT_EQ(t.hops(0, 0), 0u);
}

TEST(MssTopology, TwoMssRingAndLineCoincide) {
  MssTopology ring(MssTopologyKind::kRing, 2);
  MssTopology line(MssTopologyKind::kLine, 2);
  EXPECT_EQ(ring.hops(0, 1), 1u);
  EXPECT_EQ(line.hops(0, 1), 1u);
}

TEST(MssTopology, ClosedFormMatchesBfsOracle) {
  for (const auto kind : kAllKinds) {
    for (u32 n = 1; n <= 130; ++n) {
      const MssTopology t(kind, n);
      const auto oracle = bfs_hops(kind, n);
      for (MssId a = 0; a < n; ++a) {
        for (MssId b = 0; b < n; ++b) {
          ASSERT_EQ(t.hops(a, b), oracle[a][b])
              << mss_topology_name(kind) << " n=" << n << " (" << a << ", " << b << ")";
        }
      }
    }
  }
}

TEST(MssTopology, OutOfRangeIdThrows) {
  for (const auto kind : kAllKinds) {
    const MssTopology t(kind, 4);
    EXPECT_NO_THROW(t.hops(3, 3));
    EXPECT_THROW(t.hops(4, 0), std::out_of_range) << mss_topology_name(kind);
    EXPECT_THROW(t.hops(0, 4), std::out_of_range) << mss_topology_name(kind);
    EXPECT_THROW(t.hops(4, 4), std::out_of_range) << mss_topology_name(kind);
  }
  EXPECT_THROW((void)MssTopology(MssTopologyKind::kFullMesh, 0), std::invalid_argument);
}

TEST(TopologyNetwork, LineTopologyMultipliesWiredLatency) {
  des::Simulator sim;
  NetworkConfig cfg;
  cfg.n_hosts = 2;
  cfg.n_mss = 5;
  cfg.mss_topology = MssTopologyKind::kLine;
  Network net(sim, cfg, 1);
  NullHostEventHandler handler;
  net.set_handler(&handler);
  net.start({0, 4});  // hosts at the two ends of the chain
  net.send_app_message(0, 1, 10);
  sim.run();
  // wireless 0.01 + 4 wired hops x 0.01 + wireless 0.01.
  EXPECT_NEAR(sim.now(), 0.06, 1e-9);
  EXPECT_EQ(net.stats().wired_hops, 4u);
}

TEST(TopologyNetwork, StarRoutesThroughHub) {
  des::Simulator sim;
  NetworkConfig cfg;
  cfg.n_hosts = 2;
  cfg.n_mss = 4;
  cfg.mss_topology = MssTopologyKind::kStar;
  Network net(sim, cfg, 1);
  NullHostEventHandler handler;
  net.set_handler(&handler);
  net.start({1, 3});  // two leaves
  net.send_app_message(0, 1, 10);
  sim.run();
  EXPECT_NEAR(sim.now(), 0.04, 1e-9);  // 2 wireless + 2 wired
  EXPECT_EQ(net.stats().wired_hops, 2u);
}

}  // namespace
}  // namespace mobichk::net
