#include "sim/energy.hpp"

#include <gtest/gtest.h>

namespace mobichk::sim {
namespace {

TEST(EnergyConfig, RejectsNegativeCoefficients) {
  EnergyConfig cfg;
  cfg.tx_per_byte = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_NO_THROW(EnergyConfig{}.validate());
}

TEST(EnergyBreakdown, HandComputedCase) {
  EnergyConfig cfg;
  cfg.tx_per_byte = 1.0;
  cfg.rx_per_byte = 0.5;
  cfg.per_message = 10.0;
  cfg.per_checkpoint = 100.0;
  cfg.control_message_bytes = 8;

  net::NetworkStats stats;
  stats.app_sent = 2;
  stats.app_delivered = 2;
  stats.payload_bytes = 200;  // 100 per message
  stats.control_messages = 3;

  ProtocolRunStats proto;
  proto.piggyback_bytes = 20;  // 10 per message
  proto.control_messages = 1;
  proto.storage_wireless_bytes = 1000;
  proto.n_tot = 4;
  proto.initial = 2;

  const EnergyBreakdown e = estimate_energy(cfg, stats, proto);
  // payload: 200 tx + 2 deliveries x 100 B x 0.5 rx = 300.
  EXPECT_DOUBLE_EQ(e.app_payload, 300.0);
  // control info: 20 tx + 2 x 10 x 0.5 = 30.
  EXPECT_DOUBLE_EQ(e.control_info, 30.0);
  // control messages: 4 x (8 x 1.5 + 10) = 88.
  EXPECT_DOUBLE_EQ(e.control_messages, 88.0);
  // checkpoints: 1000 tx + 6 x 100 = 1600.
  EXPECT_DOUBLE_EQ(e.checkpoint_upload, 1600.0);
  // wake-ups: (2 + 2) x 10 = 40.
  EXPECT_DOUBLE_EQ(e.message_overhead, 40.0);
  EXPECT_DOUBLE_EQ(e.total(), 300.0 + 30.0 + 88.0 + 1600.0 + 40.0);
  EXPECT_DOUBLE_EQ(e.checkpointing_total(), 30.0 + 88.0 + 1600.0);
}

TEST(Energy, ProtocolsRankAsExpectedOnARealRun) {
  SimConfig cfg;
  cfg.sim_length = 20'000.0;
  cfg.t_switch = 1'000.0;
  cfg.p_switch = 0.8;
  cfg.seed = 5;
  const RunResult r = run_experiment(cfg);

  // The 10x control-byte pin below is the paper-literal TP cost, two full
  // n-vectors per message; TP's deltas ship less than that. Price every
  // protocol at its dense-equivalent bytes (equal to the shipped bytes
  // for BCS and QBC).
  const EnergyConfig ecfg;
  const auto paper_cost = [&](const char* name) {
    ProtocolRunStats stats = r.by_name(name);
    stats.piggyback_bytes = stats.piggyback_dense_bytes;
    return estimate_energy(ecfg, r.net, stats);
  };
  const EnergyBreakdown tp = paper_cost("TP");
  const EnergyBreakdown bcs = paper_cost("BCS");
  const EnergyBreakdown qbc = paper_cost("QBC");

  // Identical application traffic across paired protocols...
  EXPECT_DOUBLE_EQ(tp.app_payload, bcs.app_payload);
  EXPECT_DOUBLE_EQ(tp.message_overhead, qbc.message_overhead);
  // ...but checkpointing energy ranks TP > BCS >= QBC.
  EXPECT_GT(tp.checkpointing_total(), bcs.checkpointing_total());
  EXPECT_GE(bcs.checkpointing_total(), qbc.checkpointing_total());
  // 2n u32s vs one u64: exactly 10x control bytes with n = 10 hosts.
  EXPECT_DOUBLE_EQ(tp.control_info, 10.0 * bcs.control_info);
}

}  // namespace
}  // namespace mobichk::sim
