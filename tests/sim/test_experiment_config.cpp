// The run-config document: the nested JSON form of the engine's
// SimConfig + ExperimentOptions pair. Pins the contract the CLI builds
// on: write -> read -> write is byte-identical (so --dump-config output
// reloads to the same effective config), absent members leave their
// fields as they are, malformed members fail loudly, and an unset crash
// time means mid-run in the engine itself.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/experiment_config.hpp"

namespace mobichk::sim {
namespace {

/// The pair one document describes.
struct RunConfig {
  SimConfig cfg;
  ExperimentOptions opts;
};

std::string to_json(const RunConfig& rc) {
  std::ostringstream os;
  write_json(os, rc.cfg, rc.opts);
  return os.str();
}

RunConfig parse(const std::string& text) {
  RunConfig rc;
  config_from_json(json_parse(text), rc.cfg, rc.opts);
  return rc;
}

/// A config with every serialized member moved off its default, faults
/// and the data plane included, so round-trip tests cover every member.
RunConfig fully_populated() {
  RunConfig rc;
  SimConfig& cfg = rc.cfg;
  ExperimentOptions& opts = rc.opts;
  cfg.network.n_hosts = 24;
  cfg.network.n_mss = 8;
  cfg.network.mss_topology = net::MssTopologyKind::kRing;
  cfg.network.wireless_bandwidth = 5.0e4;
  cfg.sim_length = 12'345.0;
  cfg.seed = 99;
  opts.queue_kind = des::QueueKind::kCalendar;
  opts.shards = 4;
  cfg.comm_mean = 15.0;
  cfg.p_send = 0.6;
  cfg.internal_mean = 0.5;
  cfg.payload_bytes = 512;
  cfg.mobility_model = MobilityModelKind::kParetoResidence;
  cfg.t_switch = 250.0;
  cfg.p_switch = 0.7;
  cfg.disconnect_mean = 400.0;
  cfg.heterogeneity = 0.3;
  cfg.faults.mode = CrashMode::kCorrelated;
  cfg.faults.first_crash_at = 6'000.0;
  cfg.faults.crash_interval = 1'000.0;
  cfg.faults.max_crashes = 3;
  cfg.faults.correlated = 4;
  opts.data_plane.enabled = true;
  opts.data_plane.full_state_bytes = 1u << 18;
  opts.data_plane.dirty_rate = 0.05;
  opts.data_plane.incremental = false;
  opts.data_plane.model = storage::StableStorageKind::kInfinite;
  opts.data_plane.storage_bandwidth = 2.0e5;
  opts.data_plane.wireless_bandwidth = 3.0e4;
  opts.data_plane.wired_bandwidth = 4.0e5;
  opts.data_plane.migration = storage::MigrationStrategy::kPostCopy;
  opts.data_plane.precopy_rounds = 2;
  opts.data_plane.precopy_stop_fraction = 0.1;
  opts.protocols = {core::ProtocolKind::kQbc, core::ProtocolKind::kTp};
  return rc;
}

TEST(ExperimentConfigJson, DefaultDocumentRoundTripsByteIdentically) {
  const std::string first = to_json(RunConfig{});
  EXPECT_EQ(to_json(parse(first)), first);
  // Plane-off, crash-free: the compact common-case document.
  EXPECT_EQ(first.find("\"faults\""), std::string::npos);
  EXPECT_EQ(first.find("\"data_plane\""), std::string::npos);
}

TEST(ExperimentConfigJson, FullyPopulatedDocumentRoundTripsByteIdentically) {
  const std::string first = to_json(fully_populated());
  const RunConfig back = parse(first);
  EXPECT_EQ(to_json(back), first);
  // Spot-check the semantic fields actually travelled.
  EXPECT_EQ(back.cfg.network.mss_topology, net::MssTopologyKind::kRing);
  EXPECT_EQ(back.opts.queue_kind, des::QueueKind::kCalendar);
  EXPECT_EQ(back.opts.shards, 4u);
  EXPECT_EQ(back.cfg.mobility_model, MobilityModelKind::kParetoResidence);
  EXPECT_EQ(back.cfg.faults.mode, CrashMode::kCorrelated);
  EXPECT_TRUE(back.opts.data_plane.enabled);
  EXPECT_EQ(back.opts.data_plane.migration, storage::MigrationStrategy::kPostCopy);
  EXPECT_EQ(back.opts.data_plane.model, storage::StableStorageKind::kInfinite);
  EXPECT_FALSE(back.opts.data_plane.incremental);
  ASSERT_EQ(back.opts.protocols.size(), 2u);
  EXPECT_EQ(back.opts.protocols[0], core::ProtocolKind::kQbc);
}

TEST(ExperimentConfigJson, AbsentMembersKeepTheirDefaults) {
  const RunConfig rc = parse(R"({"run": {"seed": 17}})");
  EXPECT_EQ(rc.cfg.seed, 17u);
  EXPECT_DOUBLE_EQ(rc.cfg.sim_length, SimConfig{}.sim_length);
  EXPECT_EQ(rc.cfg.network.n_hosts, SimConfig{}.network.n_hosts);
  EXPECT_FALSE(rc.opts.data_plane.enabled);
  EXPECT_FALSE(rc.cfg.faults.enabled());
  EXPECT_EQ(rc.opts.protocols, ExperimentOptions{}.protocols);
  // Laid over a non-default pair, absent members leave it as it is.
  RunConfig base = fully_populated();
  const std::string before = to_json(base);
  config_from_json(json_parse(R"({"run": {"seed": 99}, "mobility": {}})"), base.cfg, base.opts);
  EXPECT_EQ(to_json(base), before);
}

TEST(ExperimentConfigJson, PresenceOfTheBlockIsTheEnableSwitch) {
  const RunConfig rc = parse(R"({"data_plane": {}, "faults": {"mode": "host"}})");
  EXPECT_TRUE(rc.opts.data_plane.enabled);
  EXPECT_TRUE(rc.cfg.faults.enabled());
}

TEST(ExperimentConfigJson, SizingOnlyDocumentRoundTripsWithThePlaneOff) {
  // The sizing prices storage_* even with the plane off, so a non-default
  // sizing must survive the dump; the object then says "enabled": false.
  RunConfig rc;
  rc.opts.data_plane.full_state_bytes = 4096;
  rc.opts.data_plane.dirty_rate = 0.002;
  const std::string first = to_json(rc);
  EXPECT_NE(first.find("\"enabled\": false"), std::string::npos);
  const RunConfig back = parse(first);
  EXPECT_EQ(to_json(back), first);
  EXPECT_FALSE(back.opts.data_plane.enabled);
  EXPECT_EQ(back.opts.data_plane.full_state_bytes, 4096u);
  EXPECT_DOUBLE_EQ(back.opts.data_plane.dirty_rate, 0.002);
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
  EXPECT_THROW(parse(R"({"protocols": ["NOPE"]})"), std::invalid_argument);
}

// The dumped "first_crash_at": 0 means mid-run in the engine, so a
// reloaded crash config with a new --length still crashes at its middle.
TEST(ExperimentConfigConvention, UnsetFirstCrashTimeMeansMidRun) {
  SimConfig mid;
  mid.sim_length = 6'000.0;
  mid.seed = 42;
  mid.faults.mode = CrashMode::kMhCrash;
  mid.faults.first_crash_at = 3'000.0;
  SimConfig unset = mid;
  unset.faults.first_crash_at = 0.0;
  ExperimentOptions opts;
  opts.collect_trace_hash = true;
  Experiment a(mid, opts);
  a.run();
  Experiment b(unset, opts);
  b.run();
  ASSERT_EQ(b.faults()->records().size(), 1u);
  EXPECT_DOUBLE_EQ(b.faults()->records().front().t, 3'000.0);
  EXPECT_EQ(b.result().trace_hash, a.result().trace_hash);
  const CrashRunStats& x = a.result().recovery;
  const CrashRunStats& y = b.result().recovery;
  EXPECT_EQ(y.crashes_executed, x.crashes_executed);
  EXPECT_EQ(y.crashes_skipped, x.crashes_skipped);
  EXPECT_EQ(y.hosts_crashed, x.hosts_crashed);
  EXPECT_EQ(y.hosts_rolled_back, x.hosts_rolled_back);
  EXPECT_EQ(y.undone_events, x.undone_events);
  EXPECT_EQ(y.replayed_messages, x.replayed_messages);
  EXPECT_EQ(y.checkpoints_discarded, x.checkpoints_discarded);
  EXPECT_DOUBLE_EQ(y.total_recovery_time, x.total_recovery_time);
  EXPECT_DOUBLE_EQ(y.max_recovery_time, x.max_recovery_time);
  EXPECT_DOUBLE_EQ(y.total_planned, x.total_planned);
  EXPECT_DOUBLE_EQ(y.total_estimated, x.total_estimated);
}

TEST(ExperimentConfigFile, LoadRoundTripsThroughDisk) {
  const RunConfig rc = fully_populated();
  const std::string path = testing::TempDir() + "mobichk_config_roundtrip.json";
  {
    std::ofstream os(path);
    write_json(os, rc.cfg, rc.opts);
  }
  RunConfig back;
  load_config(path, back.cfg, back.opts);
  EXPECT_EQ(to_json(back), to_json(rc));
  std::remove(path.c_str());
}

TEST(ExperimentConfigFile, MissingFileThrowsNamingThePath) {
  SimConfig cfg;
  ExperimentOptions opts;
  try {
    load_config("/nonexistent/mobichk.json", cfg, opts);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/mobichk.json"), std::string::npos);
  }
}

}  // namespace
}  // namespace mobichk::sim
