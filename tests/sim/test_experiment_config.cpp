// ExperimentConfig: the nested file-facing config document. Pins the
// contract the CLI builds on: defaults mirror the engine defaults field
// by field, write -> parse -> write is byte-identical (so --dump-config
// output reloads to the same effective config), absent members keep
// their defaults, and malformed members fail loudly.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/experiment_config.hpp"

namespace mobichk::sim {
namespace {

std::string to_json(const ExperimentConfig& cfg) {
  std::ostringstream os;
  write_json(os, cfg);
  return os.str();
}

ExperimentConfig parse(const std::string& text) {
  return experiment_config_from_json(json_parse(text));
}

/// A config with every group moved off its default, faults and the data
/// plane included, so round-trip tests cover every serialized member.
ExperimentConfig fully_populated() {
  ExperimentConfig cfg;
  cfg.network.n_hosts = 24;
  cfg.network.n_mss = 8;
  cfg.network.topology = net::MssTopologyKind::kRing;
  cfg.network.wireless_bandwidth = 5.0e4;
  cfg.run.sim_length = 12'345.0;
  cfg.run.seed = 99;
  cfg.run.queue_kind = des::QueueKind::kCalendar;
  cfg.run.shards = 4;
  cfg.workload.comm_mean = 15.0;
  cfg.workload.p_send = 0.6;
  cfg.workload.internal_mean = 0.5;
  cfg.workload.payload_bytes = 512;
  cfg.mobility.model = MobilityModelKind::kParetoResidence;
  cfg.mobility.t_switch = 250.0;
  cfg.mobility.p_switch = 0.7;
  cfg.mobility.disconnect_mean = 400.0;
  cfg.mobility.heterogeneity = 0.3;
  cfg.faults.mode = CrashMode::kCorrelated;
  cfg.faults.first_crash_at = 6'000.0;
  cfg.faults.crash_interval = 1'000.0;
  cfg.faults.max_crashes = 3;
  cfg.faults.correlated = 4;
  cfg.data_plane.enabled = true;
  cfg.data_plane.full_state_bytes = 1u << 18;
  cfg.data_plane.dirty_rate = 0.05;
  cfg.data_plane.incremental = false;
  cfg.data_plane.model = storage::StableStorageKind::kInfinite;
  cfg.data_plane.storage_bandwidth = 2.0e5;
  cfg.data_plane.wireless_bandwidth = 3.0e4;
  cfg.data_plane.wired_bandwidth = 4.0e5;
  cfg.data_plane.migration = storage::MigrationStrategy::kPostCopy;
  cfg.data_plane.precopy_rounds = 2;
  cfg.data_plane.precopy_stop_fraction = 0.1;
  cfg.protocols = {core::ProtocolKind::kQbc, core::ProtocolKind::kTp};
  return cfg;
}

TEST(ExperimentConfigDefaults, MapOntoDefaultSimConfig) {
  const SimConfig want;  // the engine defaults
  const SimConfig got = ExperimentConfig{}.to_sim_config();
  EXPECT_EQ(got.network.n_hosts, want.network.n_hosts);
  EXPECT_EQ(got.network.n_mss, want.network.n_mss);
  EXPECT_EQ(got.network.mss_topology, want.network.mss_topology);
  EXPECT_DOUBLE_EQ(got.network.wireless_bandwidth, want.network.wireless_bandwidth);
  EXPECT_DOUBLE_EQ(got.sim_length, want.sim_length);
  EXPECT_EQ(got.seed, want.seed);
  EXPECT_DOUBLE_EQ(got.comm_mean, want.comm_mean);
  EXPECT_DOUBLE_EQ(got.p_send, want.p_send);
  EXPECT_DOUBLE_EQ(got.internal_mean, want.internal_mean);
  EXPECT_EQ(got.payload_bytes, want.payload_bytes);
  EXPECT_EQ(got.mobility_model, want.mobility_model);
  EXPECT_DOUBLE_EQ(got.t_switch, want.t_switch);
  EXPECT_DOUBLE_EQ(got.p_switch, want.p_switch);
  EXPECT_DOUBLE_EQ(got.disconnect_mean, want.disconnect_mean);
  EXPECT_DOUBLE_EQ(got.heterogeneity, want.heterogeneity);
  EXPECT_EQ(got.faults.mode, want.faults.mode);
  EXPECT_DOUBLE_EQ(got.ckpt_latency, want.ckpt_latency);  // not modeled: stays default
}

TEST(ExperimentConfigDefaults, MapOntoDefaultExperimentOptions) {
  const ExperimentOptions want;
  const ExperimentOptions got = ExperimentConfig{}.to_options();
  EXPECT_EQ(got.protocols, want.protocols);
  EXPECT_EQ(got.queue_kind, want.queue_kind);
  EXPECT_EQ(got.shards, want.shards);
  EXPECT_EQ(got.data_plane.enabled, want.data_plane.enabled);
}

TEST(ExperimentConfigJson, DefaultDocumentRoundTripsByteIdentically) {
  const std::string first = to_json(ExperimentConfig{});
  EXPECT_EQ(to_json(parse(first)), first);
  // Plane-off, crash-free: the compact common-case document.
  EXPECT_EQ(first.find("\"faults\""), std::string::npos);
  EXPECT_EQ(first.find("\"data_plane\""), std::string::npos);
}

TEST(ExperimentConfigJson, FullyPopulatedDocumentRoundTripsByteIdentically) {
  const std::string first = to_json(fully_populated());
  const ExperimentConfig back = parse(first);
  EXPECT_EQ(to_json(back), first);
  // Spot-check the semantic fields actually travelled.
  EXPECT_EQ(back.network.topology, net::MssTopologyKind::kRing);
  EXPECT_EQ(back.run.queue_kind, des::QueueKind::kCalendar);
  EXPECT_EQ(back.run.shards, 4u);
  EXPECT_EQ(back.mobility.model, MobilityModelKind::kParetoResidence);
  EXPECT_EQ(back.faults.mode, CrashMode::kCorrelated);
  EXPECT_TRUE(back.data_plane.enabled);
  EXPECT_EQ(back.data_plane.migration, storage::MigrationStrategy::kPostCopy);
  EXPECT_EQ(back.data_plane.model, storage::StableStorageKind::kInfinite);
  EXPECT_FALSE(back.data_plane.incremental);
  ASSERT_EQ(back.protocols.size(), 2u);
  EXPECT_EQ(back.protocols[0], core::ProtocolKind::kQbc);
}

TEST(ExperimentConfigJson, AbsentMembersKeepTheirDefaults) {
  const ExperimentConfig cfg = parse(R"({"run": {"seed": 17}})");
  EXPECT_EQ(cfg.run.seed, 17u);
  EXPECT_DOUBLE_EQ(cfg.run.sim_length, ExperimentConfig{}.run.sim_length);
  EXPECT_EQ(cfg.network.n_hosts, ExperimentConfig{}.network.n_hosts);
  EXPECT_FALSE(cfg.data_plane.enabled);
  EXPECT_FALSE(cfg.faults.enabled());
  EXPECT_EQ(cfg.protocols, ExperimentConfig{}.protocols);
}

TEST(ExperimentConfigJson, PresenceOfTheBlockIsTheEnableSwitch) {
  const ExperimentConfig cfg = parse(R"({"data_plane": {}, "faults": {"mode": "host"}})");
  EXPECT_TRUE(cfg.data_plane.enabled);
  EXPECT_TRUE(cfg.faults.enabled());
}

TEST(ExperimentConfigJson, SizingOnlyDocumentRoundTripsWithThePlaneOff) {
  // The sizing prices storage_* even with the plane off, so a non-default
  // sizing must survive the dump; the object then says "enabled": false.
  ExperimentConfig cfg;
  cfg.data_plane.full_state_bytes = 4096;
  cfg.data_plane.dirty_rate = 0.002;
  const std::string first = to_json(cfg);
  EXPECT_NE(first.find("\"enabled\": false"), std::string::npos);
  const ExperimentConfig back = parse(first);
  EXPECT_EQ(to_json(back), first);
  EXPECT_FALSE(back.data_plane.enabled);
  EXPECT_EQ(back.data_plane.full_state_bytes, 4096u);
  EXPECT_DOUBLE_EQ(back.data_plane.dirty_rate, 0.002);
  // Plane-on documents keep the parent shape: no enabled member.
  EXPECT_EQ(to_json(fully_populated()).find("\"enabled\""), std::string::npos);
}

TEST(ExperimentConfigJson, UnknownEnumNamesThrow) {
  EXPECT_THROW(parse(R"({"network": {"topology": "torus"}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"run": {"queue_kind": "skiplist"}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"mobility": {"model": "brownian"}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"faults": {"mode": "byzantine"}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"data_plane": {"model": "ramdisk"}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"data_plane": {"migration": "teleport"}})"), std::invalid_argument);
}

TEST(ExperimentConfigConvention, UnsetFirstCrashTimeMeansMidRun) {
  ExperimentConfig cfg;
  cfg.run.sim_length = 40'000.0;
  cfg.faults.mode = CrashMode::kMhCrash;
  cfg.faults.first_crash_at = 0.0;
  EXPECT_DOUBLE_EQ(cfg.to_sim_config().faults.first_crash_at, 20'000.0);
  cfg.faults.first_crash_at = 123.0;
  EXPECT_DOUBLE_EQ(cfg.to_sim_config().faults.first_crash_at, 123.0);
}

TEST(ExperimentConfigFile, LoadRoundTripsThroughDisk) {
  const ExperimentConfig cfg = fully_populated();
  const std::string path = testing::TempDir() + "mobichk_config_roundtrip.json";
  {
    std::ofstream os(path);
    write_json(os, cfg);
  }
  const ExperimentConfig back = load_experiment_config(path);
  EXPECT_EQ(to_json(back), to_json(cfg));
  std::remove(path.c_str());
}

TEST(ExperimentConfigFile, MissingFileThrowsNamingThePath) {
  try {
    (void)load_experiment_config("/nonexistent/mobichk.json");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/mobichk.json"), std::string::npos);
  }
}

}  // namespace
}  // namespace mobichk::sim
