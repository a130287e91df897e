#include "net/channel.hpp"

#include <gtest/gtest.h>

#include "des/simulator.hpp"
#include "net/network.hpp"

namespace mobichk::net {
namespace {

TEST(CellChannel, IdleChannelStartsImmediately) {
  CellChannel ch;
  EXPECT_DOUBLE_EQ(ch.reserve(10.0, 2.0), 12.0);
  EXPECT_DOUBLE_EQ(ch.busy_time(), 2.0);
  EXPECT_DOUBLE_EQ(ch.queued_time(), 0.0);
  EXPECT_EQ(ch.transmissions(), 1u);
}

TEST(CellChannel, BusyChannelSerializes) {
  CellChannel ch;
  EXPECT_DOUBLE_EQ(ch.reserve(0.0, 5.0), 5.0);
  // Arrives at t=1 while busy until 5: waits 4, finishes at 8.
  EXPECT_DOUBLE_EQ(ch.reserve(1.0, 3.0), 8.0);
  EXPECT_DOUBLE_EQ(ch.queued_time(), 4.0);
  EXPECT_DOUBLE_EQ(ch.busy_time(), 8.0);
}

TEST(CellChannel, GapsDoNotCountAsBusy) {
  CellChannel ch;
  ch.reserve(0.0, 1.0);
  ch.reserve(10.0, 1.0);
  EXPECT_DOUBLE_EQ(ch.busy_time(), 2.0);
  EXPECT_NEAR(ch.utilization(20.0), 0.1, 1e-12);
}

TEST(CellChannel, UtilizationAtTimeZeroIsZero) {
  CellChannel ch;
  EXPECT_DOUBLE_EQ(ch.utilization(0.0), 0.0);
}

class ContentionNetworkTest : public ::testing::Test {
 protected:
  static NetworkConfig make_config(f64 bandwidth) {
    NetworkConfig cfg;
    cfg.n_hosts = 3;
    cfg.n_mss = 2;
    cfg.wireless_bandwidth = bandwidth;
    return cfg;
  }
};

TEST_F(ContentionNetworkTest, ZeroBandwidthKeepsIdealLatency) {
  des::Simulator sim;
  Network net(sim, make_config(0.0), 1);
  NullHostEventHandler handler;
  net.set_handler(&handler);
  net.start({0, 0, 1});
  net.send_app_message(0, 1, 100);
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 0.02);  // two ideal wireless hops
  EXPECT_EQ(net.channel(0).transmissions(), 0u);
}

TEST_F(ContentionNetworkTest, TransmissionTimeAddsBytesOverBandwidth) {
  des::Simulator sim;
  Network net(sim, make_config(1000.0), 1);  // 1000 B/tu
  NullHostEventHandler handler;
  net.set_handler(&handler);
  net.start({0, 0, 1});
  net.send_app_message(0, 1, 100);  // 100 B, no piggyback
  sim.run();
  // Each hop: 0.01 propagation + 100/1000 transmission = 0.11.
  EXPECT_NEAR(sim.now(), 0.22, 1e-9);
  EXPECT_DOUBLE_EQ(net.stats().delivery_latency.max(), sim.now());
}

TEST_F(ContentionNetworkTest, ConcurrentSendsInOneCellQueue) {
  des::Simulator sim;
  Network net(sim, make_config(1000.0), 1);
  NullHostEventHandler handler;
  net.set_handler(&handler);
  net.start({0, 0, 1});
  // Two hosts in cell 0 send simultaneously: the second uplink waits for
  // the first (0.11 service each).
  net.send_app_message(0, 2, 100);
  net.send_app_message(1, 2, 100);
  sim.run();
  EXPECT_NEAR(net.channel(0).busy_time(), 0.22, 1e-9);
  EXPECT_NEAR(net.channel(0).queued_time(), 0.11, 1e-9);
  // Destination cell 1 serializes the two downlinks as well.
  EXPECT_NEAR(net.channel(1).busy_time(), 0.22, 1e-9);
  EXPECT_EQ(net.stats().delivery_latency.count(), 2u);
  EXPECT_GT(net.stats().delivery_latency.max(), net.stats().delivery_latency.min());
}

TEST_F(ContentionNetworkTest, PiggybackBytesOccupyTheChannel) {
  // Same payload, bigger piggyback => longer channel occupancy. The
  // handler stamps a fat control payload: a delta longer than TP's two
  // 20-entry vectors is charged their dense 160 bytes.
  class FatPiggybackHandler : public NullHostEventHandler {
   public:
    void on_send(MobileHost&, AppMessage& msg) override {
      Piggyback pb;
      pb.has_delta = true;
      pb.dense_rank = 40;
      pb.delta.assign(200, 0);
      msg.pbs.assign(1, pb);
    }
  };
  des::Simulator sim_small, sim_fat;
  Network net_small(sim_small, make_config(1000.0), 1);
  Network net_fat(sim_fat, make_config(1000.0), 1);
  NullHostEventHandler small;
  FatPiggybackHandler fat;
  net_small.set_handler(&small);
  net_fat.set_handler(&fat);
  net_small.start({0, 0, 1});
  net_fat.start({0, 0, 1});
  net_small.send_app_message(0, 1, 100);
  net_fat.send_app_message(0, 1, 100);
  sim_small.run();
  sim_fat.run();
  EXPECT_EQ(net_fat.stats().piggyback_bytes, 160u);
  EXPECT_GT(net_fat.channel(0).busy_time(), net_small.channel(0).busy_time());
  EXPECT_GT(sim_fat.now(), sim_small.now());
}

TEST_F(ContentionNetworkTest, ControlMessagesOccupyWithoutDelaying) {
  des::Simulator sim;
  Network net(sim, make_config(1000.0), 1);
  NullHostEventHandler handler;
  net.set_handler(&handler);
  net.start({0, 0, 1});
  net.switch_cell(0, 1);  // occupies both cells' channels
  EXPECT_EQ(net.host(0).mss(), 1u);  // state change is immediate
  // 0.01 + 64/1000 = 0.074 per control message.
  EXPECT_NEAR(net.channel(0).busy_time(), 0.074, 1e-9);
  EXPECT_NEAR(net.channel(1).busy_time(), 0.074, 1e-9);
}

TEST_F(ContentionNetworkTest, NegativeBandwidthRejected) {
  NetworkConfig cfg = make_config(-1.0);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace mobichk::net
