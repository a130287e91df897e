#include "core/harness.hpp"

#include <gtest/gtest.h>

#include <map>

#include "core/factory.hpp"
#include "core/protocols/bcs.hpp"
#include "core/protocols/qbc.hpp"
#include "core/protocols/tp.hpp"
#include "des/simulator.hpp"
#include "net/network.hpp"

namespace mobichk::core {
namespace {

class HarnessTest : public ::testing::Test {
 protected:
  HarnessTest() : net_(sim_, config(), 1), harness_(net_) {}

  static net::NetworkConfig config() {
    net::NetworkConfig cfg;
    cfg.n_hosts = 3;
    cfg.n_mss = 2;
    return cfg;
  }

  des::Simulator sim_;
  net::Network net_;
  ProtocolHarness harness_;
};

TEST_F(HarnessTest, RejectsNullProtocol) {
  EXPECT_THROW(harness_.add_protocol(nullptr), std::invalid_argument);
}

TEST_F(HarnessTest, SlotZeroPiggybackRidesTheWire) {
  harness_.add_protocol(std::make_unique<BcsProtocol>());
  harness_.add_protocol(std::make_unique<TpProtocol>());
  net_.start({0, 0, 1});
  net_.send_app_message(0, 1, 8);
  sim_.run();
  // BCS's integer is on the wire; TP's delta is only accounted: seq,
  // count and the sender's own (idx, ckpt, loc), one varint byte each,
  // against two 3-entry vectors.
  EXPECT_EQ(net_.stats().piggyback_bytes, sizeof(u64));
  EXPECT_EQ(net_.stats().piggyback_dense_bytes, sizeof(u64));
  EXPECT_EQ(harness_.piggyback_bytes(0), sizeof(u64));
  EXPECT_EQ(harness_.piggyback_bytes(1), 5u);
  EXPECT_EQ(harness_.piggyback_dense_bytes(1), 6 * sizeof(u32));
}

TEST_F(HarnessTest, SparseTpEncodedBytesStayBelowDense) {
  harness_.add_protocol(std::make_unique<TpProtocol>());  // sparse default
  net_.start({0, 0, 1});
  net_.send_app_message(0, 1, 8);
  sim_.run();
  // One delta entry (the sender's own) versus two 3-entry vectors.
  EXPECT_LT(net_.stats().piggyback_bytes, net_.stats().piggyback_dense_bytes);
  EXPECT_EQ(net_.stats().piggyback_dense_bytes, 6 * sizeof(u32));
  EXPECT_EQ(harness_.piggyback_dense_bytes(0), 6 * sizeof(u32));
  EXPECT_EQ(harness_.piggyback_bytes(0), net_.stats().piggyback_bytes);
}

TEST_F(HarnessTest, EachProtocolSeesItsOwnPiggyback) {
  const usize bcs = harness_.add_protocol(std::make_unique<BcsProtocol>());
  const usize qbc = harness_.add_protocol(std::make_unique<QbcProtocol>());
  net_.start({0, 0, 1});
  // Drive BCS's sn of host 0 above QBC's by a basic checkpoint: both
  // increment... instead force divergence: 2 switches make BCS sn=2 while
  // QBC replaces (sn stays 0).
  net_.switch_cell(0, 1);
  net_.switch_cell(0, 0);
  auto& bcs_p = static_cast<BcsProtocol&>(harness_.protocol(bcs));
  auto& qbc_p = static_cast<QbcProtocol&>(harness_.protocol(qbc));
  ASSERT_EQ(bcs_p.sequence_number(0), 2u);
  ASSERT_EQ(qbc_p.sequence_number(0), 0u);
  // A message 0 -> 1 must force a BCS checkpoint at 1 (sn 2 > 0) but NOT
  // a QBC one (sn 0 == 0) — only possible if each saw its own piggyback.
  net_.send_app_message(0, 1, 8);
  sim_.run();
  net_.consume_one(1);
  EXPECT_EQ(harness_.log(bcs).forced(), 1u);
  EXPECT_EQ(harness_.log(qbc).forced(), 0u);
}

TEST_F(HarnessTest, MessageLogRecordsPositions) {
  harness_.add_protocol(std::make_unique<BcsProtocol>());
  net_.start({0, 0, 1});
  net_.internal_events(0, 4);
  net_.send_app_message(0, 1, 8);  // send pos = 5
  sim_.run();
  net_.internal_event(1);
  net_.consume_one(1);  // recv pos = 2
  const auto& deliveries = harness_.message_log().deliveries();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].src, 0u);
  EXPECT_EQ(deliveries[0].dst, 1u);
  EXPECT_EQ(deliveries[0].send_pos, 5u);
  EXPECT_EQ(deliveries[0].recv_pos, 2u);
  EXPECT_EQ(net_.stats().app_sent, 1u);
}

TEST_F(HarnessTest, ForcedCheckpointExcludesTriggeringReceive) {
  harness_.add_protocol(std::make_unique<BcsProtocol>());
  net_.start({0, 0, 1});
  net_.switch_cell(0, 1);          // sn_0 = 1
  net_.send_app_message(0, 1, 8);  // sn 1 -> forces at host 1
  sim_.run();
  net_.consume_one(1);
  const CheckpointRecord& forced = harness_.log(0).of(1).back();
  const auto& d = harness_.message_log().deliveries().at(0);
  // The checkpoint's cut position must be strictly before the receive.
  EXPECT_LT(forced.event_pos, d.recv_pos);
}

TEST_F(HarnessTest, CurrentPositionsMatchHosts) {
  harness_.add_protocol(std::make_unique<BcsProtocol>());
  net_.start({0, 0, 1});
  net_.internal_events(0, 3);
  net_.internal_events(2, 7);
  const auto pos = harness_.current_positions();
  EXPECT_EQ(pos, (std::vector<u64>{3, 0, 7}));
}

TEST_F(HarnessTest, UndeliveredMessagesAreTracked) {
  harness_.add_protocol(std::make_unique<BcsProtocol>());
  net_.start({0, 0, 1});
  net_.disconnect(1);
  net_.send_app_message(0, 1, 8);  // will be buffered, never consumed
  sim_.run();
  EXPECT_EQ(net_.stats().app_sent - net_.stats().app_received, 1u);
  EXPECT_TRUE(harness_.message_log().deliveries().empty());
}

TEST(HarnessDuplicates, DuplicateDeliveriesCarryTheirPiggybacks) {
  // Without transport dedup every duplicate reaches the application. Each
  // copy carries its own piggybacks, so the harness serves every delivery
  // without keeping anything per message.
  des::Simulator sim;
  net::NetworkConfig cfg;
  cfg.n_hosts = 2;
  cfg.n_mss = 1;
  cfg.duplicate_prob = 0.6;
  cfg.transport_dedup = false;
  net::Network net(sim, cfg, 5);
  ProtocolHarness harness(net);
  harness.add_protocol(std::make_unique<BcsProtocol>());
  net.start({0, 0});
  for (int i = 0; i < 100; ++i) net.send_app_message(0, 1, 4);
  sim.run();
  ASSERT_GT(net.stats().duplicates_generated, 10u);
  u64 consumed = 0;
  while (net.consume_one(1)) ++consumed;
  EXPECT_EQ(consumed, 100u + net.stats().duplicates_generated);
  const auto& deliveries = harness.message_log().deliveries();
  EXPECT_EQ(deliveries.size(), consumed);
  // Every copy of a message records the send the original made.
  std::map<u64, MessageLog::Delivery> first;
  for (const auto& d : deliveries) {
    const auto [it, fresh] = first.emplace(d.msg_id, d);
    if (fresh) continue;
    EXPECT_EQ(d.src, it->second.src) << "msg " << d.msg_id;
    EXPECT_EQ(d.dst, it->second.dst) << "msg " << d.msg_id;
    EXPECT_EQ(d.send_pos, it->second.send_pos) << "msg " << d.msg_id;
  }
  EXPECT_EQ(first.size(), 100u);
}

TEST(HarnessFactory, AllProtocolsInstantiateAndRun) {
  for (const auto kind : all_protocol_kinds()) {
    des::Simulator sim;
    net::NetworkConfig cfg;
    cfg.n_hosts = 3;
    cfg.n_mss = 2;
    constexpr u64 kSeed = 2;
    net::Network net(sim, cfg, kSeed);
    ProtocolHarness harness(net);
    harness.add_protocol(make_protocol(kind, {}, kSeed));
    net.start({0, 1, 0});
    net.send_app_message(0, 1, 8);
    net.switch_cell(2, 1);
    sim.run_until(50.0);
    net.consume_one(1);
    EXPECT_GE(harness.log(0).total(), 4u) << protocol_kind_name(kind);
    EXPECT_STREQ(harness.protocol(0).name(), protocol_kind_name(kind));
  }
}

TEST(HarnessFactory, NameRoundTrip) {
  for (const auto kind : all_protocol_kinds()) {
    EXPECT_EQ(protocol_kind_from_name(protocol_kind_name(kind)), kind);
  }
  EXPECT_EQ(protocol_kind_from_name("qbc"), ProtocolKind::kQbc);
  EXPECT_THROW(protocol_kind_from_name("nope"), std::invalid_argument);
}

TEST(HarnessFactory, RecoveryRules) {
  EXPECT_EQ(recovery_rule_for(ProtocolKind::kQbc), IndexLineRule::kLastEqual);
  EXPECT_EQ(recovery_rule_for(ProtocolKind::kBcs), IndexLineRule::kFirstAtLeast);
  EXPECT_EQ(recovery_rule_for(ProtocolKind::kTp), IndexLineRule::kFirstAtLeast);
}

TEST(HarnessFactory, PaperProtocolOrder) {
  const auto kinds = paper_protocol_kinds();
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds[0], ProtocolKind::kTp);
  EXPECT_EQ(kinds[1], ProtocolKind::kBcs);
  EXPECT_EQ(kinds[2], ProtocolKind::kQbc);
}

}  // namespace
}  // namespace mobichk::core
