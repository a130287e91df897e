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

// Lays a data_plane object over `cfg`: presence of the object is the
// enable flag unless it says "enabled": false.
void data_plane_from_json(const JsonValue& json, storage::DataPlaneConfig& cfg) {
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
}

}  // namespace

void write_json(std::ostream& os, const SimConfig& cfg, const ExperimentOptions& opts) {
  JsonWriter w(os);
  w.begin_object();
  w.key("network").begin_object();
  w.field("n_hosts", cfg.network.n_hosts)
      .field("n_mss", cfg.network.n_mss)
      .field("topology", net::mss_topology_name(cfg.network.mss_topology))
      .field("wireless_bandwidth", cfg.network.wireless_bandwidth);
  w.end_object();
  w.key("run").begin_object();
  w.field("sim_length", cfg.sim_length)
      .field("seed", cfg.seed)
      .field("queue_kind", des::queue_kind_name(opts.queue_kind))
      .field("shards", static_cast<u64>(opts.shards));
  w.end_object();
  w.key("workload").begin_object();
  w.field("comm_mean", cfg.comm_mean)
      .field("p_send", cfg.p_send)
      .field("internal_mean", cfg.internal_mean)
      .field("payload_bytes", cfg.payload_bytes);
  w.end_object();
  w.key("mobility").begin_object();
  w.field("model", mobility_model_name(cfg.mobility_model))
      .field("t_switch", cfg.t_switch)
      .field("p_switch", cfg.p_switch)
      .field("disconnect_mean", cfg.disconnect_mean)
      .field("heterogeneity", cfg.heterogeneity);
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
  if (opts.data_plane.enabled || opts.data_plane != storage::DataPlaneConfig{}) {
    w.key("data_plane");
    write_data_plane_fields(w, opts.data_plane);
  }
  w.key("protocols").begin_array();
  for (const auto kind : opts.protocols) w.value(core::protocol_kind_name(kind));
  w.end_array();
  w.end_object();
  os << '\n';
}

void config_from_json(const JsonValue& json, SimConfig& cfg, ExperimentOptions& opts) {
  if (const JsonValue* net = json.find("network")) {
    if (const JsonValue* v = net->find("n_hosts")) cfg.network.n_hosts = static_cast<u32>(v->as_u64());
    if (const JsonValue* v = net->find("n_mss")) cfg.network.n_mss = static_cast<u32>(v->as_u64());
    if (const JsonValue* v = net->find("topology")) {
      cfg.network.mss_topology = net::mss_topology_from_name(v->as_string());
    }
    if (const JsonValue* v = net->find("wireless_bandwidth")) {
      cfg.network.wireless_bandwidth = v->as_f64();
    }
  }
  if (const JsonValue* run = json.find("run")) {
    if (const JsonValue* v = run->find("sim_length")) cfg.sim_length = v->as_f64();
    if (const JsonValue* v = run->find("seed")) cfg.seed = v->as_u64();
    if (const JsonValue* v = run->find("queue_kind")) {
      opts.queue_kind = des::queue_kind_from_name(v->as_string());
    }
    if (const JsonValue* v = run->find("shards")) opts.shards = static_cast<u32>(v->as_u64());
  }
  if (const JsonValue* wl = json.find("workload")) {
    if (const JsonValue* v = wl->find("comm_mean")) cfg.comm_mean = v->as_f64();
    if (const JsonValue* v = wl->find("p_send")) cfg.p_send = v->as_f64();
    if (const JsonValue* v = wl->find("internal_mean")) cfg.internal_mean = v->as_f64();
    if (const JsonValue* v = wl->find("payload_bytes")) {
      cfg.payload_bytes = static_cast<u32>(v->as_u64());
    }
  }
  if (const JsonValue* mob = json.find("mobility")) {
    if (const JsonValue* v = mob->find("model")) cfg.mobility_model = mobility_model_from_name(v->as_string());
    if (const JsonValue* v = mob->find("t_switch")) cfg.t_switch = v->as_f64();
    if (const JsonValue* v = mob->find("p_switch")) cfg.p_switch = v->as_f64();
    if (const JsonValue* v = mob->find("disconnect_mean")) cfg.disconnect_mean = v->as_f64();
    if (const JsonValue* v = mob->find("heterogeneity")) cfg.heterogeneity = v->as_f64();
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
  if (const JsonValue* dp = json.find("data_plane")) data_plane_from_json(*dp, opts.data_plane);
  if (const JsonValue* protos = json.find("protocols")) {
    opts.protocols.clear();
    for (const JsonValue& name : protos->as_array()) {
      opts.protocols.push_back(core::protocol_kind_from_name(name.as_string()));
    }
  }
}

void load_config(const std::string& path, SimConfig& cfg, ExperimentOptions& opts) {
  std::ifstream file(path);
  if (!file.is_open()) throw std::runtime_error("cannot open config file: " + path);
  std::ostringstream text;
  text << file.rdbuf();
  if (file.bad()) throw std::runtime_error("cannot read config file: " + path);
  config_from_json(json_parse(text.str()), cfg, opts);
}

}  // namespace mobichk::sim
