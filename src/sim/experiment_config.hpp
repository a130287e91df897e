// ExperimentConfig: the nested, file-facing configuration of one run.
//
// SimConfig / ExperimentOptions are the engine-facing structs — flat,
// grown field by field, split across two objects for historical reasons.
// ExperimentConfig is the *interface*: one document, grouped the way a
// user thinks about a run (network / run / workload / mobility / faults /
// data_plane / protocols), serializable to JSON and loadable back
// byte-identically. The CLI's --config reads one, --dump-config writes
// the effective one, and every flag is an override on top of it.
//
// Sub-struct defaults mirror the engine defaults exactly, so a default
// ExperimentConfig maps onto a default SimConfig + ExperimentOptions
// (test_experiment_config pins this field by field).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "des/event_queue.hpp"
#include "net/topology.hpp"
#include "sim/config.hpp"
#include "sim/experiment.hpp"
#include "sim/json.hpp"
#include "storage/data_plane.hpp"

namespace mobichk::sim {

struct ExperimentConfig {
  /// Substrate shape (maps onto net::NetworkConfig).
  struct Network {
    u32 n_hosts = 10;
    u32 n_mss = 5;
    net::MssTopologyKind topology = net::MssTopologyKind::kFullMesh;
    f64 wireless_bandwidth = 0.0;  ///< 0 = ideal channel (paper model).
  };

  /// Run horizon, determinism and engine knobs.
  struct Run {
    f64 sim_length = 100'000.0;
    u64 seed = 1;
    des::QueueKind queue_kind = des::QueueKind::kBinaryHeap;
    u32 shards = 1;  ///< Spatial shards (1 = sequential; bit-identical).
  };

  /// Application workload (paper §5.1).
  struct Workload {
    f64 comm_mean = 20.0;
    f64 p_send = 0.4;
    f64 internal_mean = 1.0;
    u32 payload_bytes = 256;
  };

  /// Host mobility (paper §5.1).
  struct Mobility {
    MobilityModelKind model = MobilityModelKind::kPaperUniform;
    f64 t_switch = 1'000.0;
    f64 p_switch = 1.0;
    f64 disconnect_mean = 1'000.0;
    f64 heterogeneity = 0.0;
  };

  /// Crash injection (serialized only when mode != none).
  struct Faults {
    CrashMode mode = CrashMode::kNone;
    f64 first_crash_at = 0.0;  ///< 0 = sim_length / 2 (the CLI convention).
    f64 crash_interval = 0.0;
    u32 max_crashes = 1;
    u32 target = FaultConfig::kRandomTarget;
    u32 correlated = 2;

    bool enabled() const noexcept { return mode != CrashMode::kNone; }
  };

  Network network;
  Run run;
  Workload workload;
  Mobility mobility;
  Faults faults;
  /// Checkpoint data plane (serialized when enabled or when any knob
  /// differs from its default).
  storage::DataPlaneConfig data_plane;
  /// Protocol set; slot 0's piggyback rides the wire.
  std::vector<core::ProtocolKind> protocols{core::ProtocolKind::kTp, core::ProtocolKind::kBcs,
                                            core::ProtocolKind::kQbc};

  /// Engine-facing views. Fields ExperimentConfig does not model
  /// (ckpt_latency, the recovery cost model, ...) keep their defaults.
  SimConfig to_sim_config() const;
  ExperimentOptions to_options() const;
};

/// Serializes the nested document. write -> parse -> write is
/// byte-identical (round-trip pinned by test_experiment_config).
void write_json(std::ostream& os, const ExperimentConfig& cfg);

/// Inverse of write_json(ExperimentConfig): absent members keep their
/// defaults; malformed members throw std::invalid_argument.
ExperimentConfig experiment_config_from_json(const JsonValue& json);

/// Reads and parses `path`; throws std::runtime_error (naming the path)
/// when the file cannot be read.
ExperimentConfig load_experiment_config(const std::string& path);

}  // namespace mobichk::sim
