#include "sim/experiment_config.hpp"

#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace mobichk::sim {

namespace {

// The data-plane sub-object ("{...}"): presence of the object is the
// enable flag, so an enabled plane writes every knob but `enabled`. A
// disabled plane with non-default sizing (which still prices storage_*)
// writes `"enabled": false` in front of the knobs.
void write_data_plane_fields(JsonWriter& w, const storage::DataPlaneConfig& cfg) {
  w.begin_object();
  if (!cfg.enabled) w.field("enabled", false);
  w.field("full_state_bytes", cfg.full_state_bytes)
      .field("dirty_rate", cfg.dirty_rate)
      .field("incremental", cfg.incremental)
      .field("model", storage::stable_storage_kind_name(cfg.model))
      .field("storage_bandwidth", cfg.storage_bandwidth)
      .field("wireless_bandwidth", cfg.wireless_bandwidth)
      .field("wired_bandwidth", cfg.wired_bandwidth)
      .field("migration", storage::migration_strategy_name(cfg.migration))
      .field("precopy_rounds", static_cast<u64>(cfg.precopy_rounds))
      .field("precopy_stop_fraction", cfg.precopy_stop_fraction);
  w.end_object();
}

storage::DataPlaneConfig data_plane_config_from_json(const JsonValue& json) {
  storage::DataPlaneConfig cfg;
  cfg.enabled = true;
  if (const JsonValue* v = json.find("enabled")) cfg.enabled = v->as_bool();
  if (const JsonValue* v = json.find("full_state_bytes")) cfg.full_state_bytes = v->as_u64();
  if (const JsonValue* v = json.find("dirty_rate")) cfg.dirty_rate = v->as_f64();
  if (const JsonValue* v = json.find("incremental")) cfg.incremental = v->as_bool();
  if (const JsonValue* v = json.find("model")) {
    if (!storage::parse_stable_storage_kind(v->as_string(), cfg.model)) {
      throw std::invalid_argument("unknown stable-storage model: " + v->as_string());
    }
  }
  if (const JsonValue* v = json.find("storage_bandwidth")) cfg.storage_bandwidth = v->as_f64();
  if (const JsonValue* v = json.find("wireless_bandwidth")) cfg.wireless_bandwidth = v->as_f64();
  if (const JsonValue* v = json.find("wired_bandwidth")) cfg.wired_bandwidth = v->as_f64();
  if (const JsonValue* v = json.find("migration")) {
    if (!storage::parse_migration_strategy(v->as_string(), cfg.migration)) {
      throw std::invalid_argument("unknown migration strategy: " + v->as_string());
    }
  }
  if (const JsonValue* v = json.find("precopy_rounds")) {
    cfg.precopy_rounds = static_cast<u32>(v->as_u64());
  }
  if (const JsonValue* v = json.find("precopy_stop_fraction")) {
    cfg.precopy_stop_fraction = v->as_f64();
  }
  return cfg;
}

net::MssTopologyKind topology_parse(const std::string& name) {
  for (const auto kind : {net::MssTopologyKind::kFullMesh, net::MssTopologyKind::kRing,
                          net::MssTopologyKind::kLine, net::MssTopologyKind::kStar}) {
    if (name == net::mss_topology_name(kind)) return kind;
  }
  throw std::invalid_argument("unknown MSS topology: " + name);
}

}  // namespace

SimConfig ExperimentConfig::to_sim_config() const {
  SimConfig cfg;
  cfg.network.n_hosts = network.n_hosts;
  cfg.network.n_mss = network.n_mss;
  cfg.network.mss_topology = network.topology;
  cfg.network.wireless_bandwidth = network.wireless_bandwidth;
  cfg.sim_length = run.sim_length;
  cfg.seed = run.seed;
  cfg.comm_mean = workload.comm_mean;
  cfg.p_send = workload.p_send;
  cfg.internal_mean = workload.internal_mean;
  cfg.payload_bytes = workload.payload_bytes;
  cfg.mobility_model = mobility.model;
  cfg.t_switch = mobility.t_switch;
  cfg.p_switch = mobility.p_switch;
  cfg.disconnect_mean = mobility.disconnect_mean;
  cfg.heterogeneity = mobility.heterogeneity;
  cfg.faults.mode = faults.mode;
  if (faults.enabled()) {
    // The CLI convention: an unset failure time means mid-run.
    cfg.faults.first_crash_at =
        faults.first_crash_at > 0.0 ? faults.first_crash_at : run.sim_length / 2.0;
    cfg.faults.crash_interval = faults.crash_interval;
    cfg.faults.max_crashes = faults.max_crashes;
    cfg.faults.target = faults.target;
    cfg.faults.correlated = faults.correlated;
  }
  return cfg;
}

ExperimentOptions ExperimentConfig::to_options() const {
  ExperimentOptions opts;
  opts.protocols = protocols;
  opts.queue_kind = run.queue_kind;
  opts.shards = run.shards;
  opts.data_plane = data_plane;
  return opts;
}

void write_json(std::ostream& os, const ExperimentConfig& cfg) {
  JsonWriter w(os);
  w.begin_object();
  w.key("network").begin_object();
  w.field("n_hosts", cfg.network.n_hosts)
      .field("n_mss", cfg.network.n_mss)
      .field("topology", net::mss_topology_name(cfg.network.topology))
      .field("wireless_bandwidth", cfg.network.wireless_bandwidth);
  w.end_object();
  w.key("run").begin_object();
  w.field("sim_length", cfg.run.sim_length)
      .field("seed", cfg.run.seed)
      .field("queue_kind", des::queue_kind_name(cfg.run.queue_kind))
      .field("shards", static_cast<u64>(cfg.run.shards));
  w.end_object();
  w.key("workload").begin_object();
  w.field("comm_mean", cfg.workload.comm_mean)
      .field("p_send", cfg.workload.p_send)
      .field("internal_mean", cfg.workload.internal_mean)
      .field("payload_bytes", cfg.workload.payload_bytes);
  w.end_object();
  w.key("mobility").begin_object();
  w.field("model", mobility_model_name(cfg.mobility.model))
      .field("t_switch", cfg.mobility.t_switch)
      .field("p_switch", cfg.mobility.p_switch)
      .field("disconnect_mean", cfg.mobility.disconnect_mean)
      .field("heterogeneity", cfg.mobility.heterogeneity);
  w.end_object();
  // Crash-free configs carry no faults object (and default plane-off
  // configs no data_plane object): presence is the enable switch, and
  // documents for the common case stay small.
  if (cfg.faults.enabled()) {
    w.key("faults").begin_object();
    w.field("mode", crash_mode_name(cfg.faults.mode))
        .field("first_crash_at", cfg.faults.first_crash_at)
        .field("crash_interval", cfg.faults.crash_interval)
        .field("max_crashes", cfg.faults.max_crashes)
        .field("target", cfg.faults.target)
        .field("correlated", cfg.faults.correlated);
    w.end_object();
  }
  if (cfg.data_plane.enabled || cfg.data_plane != storage::DataPlaneConfig{}) {
    w.key("data_plane");
    write_data_plane_fields(w, cfg.data_plane);
  }
  w.key("protocols").begin_array();
  for (const auto kind : cfg.protocols) w.value(core::protocol_kind_name(kind));
  w.end_array();
  w.end_object();
  os << '\n';
}

ExperimentConfig experiment_config_from_json(const JsonValue& json) {
  ExperimentConfig cfg;
  if (const JsonValue* net = json.find("network")) {
    if (const JsonValue* v = net->find("n_hosts")) cfg.network.n_hosts = static_cast<u32>(v->as_u64());
    if (const JsonValue* v = net->find("n_mss")) cfg.network.n_mss = static_cast<u32>(v->as_u64());
    if (const JsonValue* v = net->find("topology")) cfg.network.topology = topology_parse(v->as_string());
    if (const JsonValue* v = net->find("wireless_bandwidth")) {
      cfg.network.wireless_bandwidth = v->as_f64();
    }
  }
  if (const JsonValue* run = json.find("run")) {
    if (const JsonValue* v = run->find("sim_length")) cfg.run.sim_length = v->as_f64();
    if (const JsonValue* v = run->find("seed")) cfg.run.seed = v->as_u64();
    if (const JsonValue* v = run->find("queue_kind")) {
      cfg.run.queue_kind = des::queue_kind_from_name(v->as_string());
    }
    if (const JsonValue* v = run->find("shards")) cfg.run.shards = static_cast<u32>(v->as_u64());
  }
  if (const JsonValue* wl = json.find("workload")) {
    if (const JsonValue* v = wl->find("comm_mean")) cfg.workload.comm_mean = v->as_f64();
    if (const JsonValue* v = wl->find("p_send")) cfg.workload.p_send = v->as_f64();
    if (const JsonValue* v = wl->find("internal_mean")) cfg.workload.internal_mean = v->as_f64();
    if (const JsonValue* v = wl->find("payload_bytes")) {
      cfg.workload.payload_bytes = static_cast<u32>(v->as_u64());
    }
  }
  if (const JsonValue* mob = json.find("mobility")) {
    if (const JsonValue* v = mob->find("model")) cfg.mobility.model = mobility_model_from_name(v->as_string());
    if (const JsonValue* v = mob->find("t_switch")) cfg.mobility.t_switch = v->as_f64();
    if (const JsonValue* v = mob->find("p_switch")) cfg.mobility.p_switch = v->as_f64();
    if (const JsonValue* v = mob->find("disconnect_mean")) cfg.mobility.disconnect_mean = v->as_f64();
    if (const JsonValue* v = mob->find("heterogeneity")) cfg.mobility.heterogeneity = v->as_f64();
  }
  if (const JsonValue* flt = json.find("faults")) {
    if (const JsonValue* v = flt->find("mode")) cfg.faults.mode = crash_mode_from_name(v->as_string());
    if (const JsonValue* v = flt->find("first_crash_at")) cfg.faults.first_crash_at = v->as_f64();
    if (const JsonValue* v = flt->find("crash_interval")) cfg.faults.crash_interval = v->as_f64();
    if (const JsonValue* v = flt->find("max_crashes")) {
      cfg.faults.max_crashes = static_cast<u32>(v->as_u64());
    }
    if (const JsonValue* v = flt->find("target")) cfg.faults.target = static_cast<u32>(v->as_u64());
    if (const JsonValue* v = flt->find("correlated")) {
      cfg.faults.correlated = static_cast<u32>(v->as_u64());
    }
  }
  if (const JsonValue* dp = json.find("data_plane")) {
    cfg.data_plane = data_plane_config_from_json(*dp);
  }
  if (const JsonValue* protos = json.find("protocols")) {
    cfg.protocols.clear();
    for (const JsonValue& name : protos->as_array()) {
      cfg.protocols.push_back(core::protocol_kind_from_name(name.as_string()));
    }
  }
  return cfg;
}

ExperimentConfig load_experiment_config(const std::string& path) {
  std::ifstream file(path);
  if (!file.is_open()) throw std::runtime_error("cannot open config file: " + path);
  std::ostringstream text;
  text << file.rdbuf();
  if (file.bad()) throw std::runtime_error("cannot read config file: " + path);
  return experiment_config_from_json(json_parse(text.str()));
}

}  // namespace mobichk::sim
