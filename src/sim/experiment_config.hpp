// The run-config document: the nested JSON form of one run's
// configuration, read into and written from the engine's own SimConfig +
// ExperimentOptions pair.
//
// The document groups the pair the way a user thinks about a run:
//   network.*                         -> cfg.network (n_hosts, n_mss,
//                                        topology, wireless_bandwidth)
//   run.{sim_length, seed}            -> cfg;  run.{queue_kind, shards} -> opts
//   workload.*                        -> cfg
//   mobility.* (model = mobility_model) -> cfg
//   faults.*                          -> cfg.faults (written only when the
//                                        mode is not none)
//   data_plane                        -> opts.data_plane
//   protocols                         -> opts.protocols
// The CLI's --config reads one, --dump-config writes the effective one,
// and every flag is an override on top of it. Fields the document does
// not carry (ckpt_latency, the recovery cost model, ...) are left alone.
#pragma once

#include <iosfwd>
#include <string>

#include "sim/config.hpp"
#include "sim/experiment.hpp"
#include "sim/json.hpp"

namespace mobichk::sim {

/// Serializes the pair as the nested document. write -> read -> write is
/// byte-identical (round-trip pinned by test_experiment_config).
void write_json(std::ostream& os, const SimConfig& cfg, const ExperimentOptions& opts);

/// Inverse of write_json(SimConfig, ExperimentOptions), laid over the
/// pair: a member that is present overwrites its field, an absent member
/// leaves it as it is. A data_plane object enables the plane unless it
/// says "enabled": false. Malformed members and unknown enum names throw
/// std::invalid_argument.
void config_from_json(const JsonValue& json, SimConfig& cfg, ExperimentOptions& opts);

/// Reads `path` and lays it over the pair (config_from_json); throws
/// std::runtime_error (naming the path) when the file cannot be read.
void load_config(const std::string& path, SimConfig& cfg, ExperimentOptions& opts);

}  // namespace mobichk::sim
