#include "sim/report.hpp"

#include <ostream>
#include <stdexcept>
#include <utility>

#include "sim/json.hpp"

namespace mobichk::sim {

namespace {

// Shared between the standalone SweepLedger document and the "ledger"
// object inside a FigureResult document.
void write_ledger_fields(JsonWriter& w, const SweepLedger& ledger) {
  w.begin_object();
  w.field("wall_seconds", ledger.wall_seconds)
      .field("events_executed", ledger.events_executed)
      .field("events_per_second", ledger.events_per_second())
      .field("replications_run", ledger.replications_run)
      .field("replications_used", ledger.replications_used)
      .field("replication_cap", ledger.replication_cap);
  // Always present (0.0 for sequential sweeps) so cost reports diff
  // cleanly across shard counts instead of fields appearing and
  // vanishing with the configuration.
  w.field("barrier_stall_seconds", ledger.barrier_stall_seconds);
  // Shard topology fields still appear only for parallel sweeps.
  if (ledger.shards > 1) {
    w.field("shards", static_cast<u64>(ledger.shards)).field("sync_rounds", ledger.sync_rounds);
  }
  if (!ledger.point_wall_seconds.empty()) {
    w.key("point_wall_seconds").begin_array();
    for (const f64 s : ledger.point_wall_seconds) w.value(s);
    w.end_array();
  }
  w.end_object();
}

}  // namespace

void write_json(std::ostream& os, const RunResult& result) {
  JsonWriter w(os);
  w.begin_object();
  w.key("config").begin_object();
  w.field("n_hosts", result.cfg.network.n_hosts)
      .field("n_mss", result.cfg.network.n_mss)
      .field("sim_length", result.cfg.sim_length)
      .field("seed", result.cfg.seed)
      .field("t_switch", result.cfg.t_switch)
      .field("p_switch", result.cfg.p_switch)
      .field("p_send", result.cfg.p_send)
      .field("comm_mean", result.cfg.comm_mean)
      .field("heterogeneity", result.cfg.heterogeneity)
      .field("mobility_model", mobility_model_name(result.cfg.mobility_model));
  w.end_object();

  w.key("network").begin_object();
  w.field("app_sent", result.net.app_sent)
      .field("app_delivered", result.net.app_delivered)
      .field("app_received", result.net.app_received)
      .field("handoffs", result.net.handoffs)
      .field("disconnects", result.net.disconnects)
      .field("reconnects", result.net.reconnects)
      .field("control_messages", result.net.control_messages)
      .field("wireless_messages", result.net.wireless_messages)
      .field("wired_hops", result.net.wired_hops)
      .field("chase_forwards", result.net.chase_forwards)
      .field("buffered_deliveries", result.net.buffered_deliveries)
      .field("piggyback_bytes", result.net.piggyback_bytes)
      .field("piggyback_dense_bytes", result.net.piggyback_dense_bytes);
  // Bulk (data-plane) wired traffic appears only when the plane moved
  // bytes, so plane-off documents stay byte-identical to earlier versions.
  if (result.net.bulk_transfers > 0) {
    w.field("bulk_transfers", result.net.bulk_transfers)
        .field("bulk_wired_bytes", result.net.bulk_wired_bytes);
  }
  w.field("mean_delivery_latency", result.net.delivery_latency.mean());
  w.end_object();

  w.key("protocols").begin_array();
  for (const auto& p : result.protocols) {
    w.begin_object();
    w.field("name", p.name)
        .field("n_tot", p.n_tot)
        .field("basic", p.basic)
        .field("forced", p.forced)
        .field("initial", p.initial)
        .field("max_index", p.max_index)
        .field("piggyback_bytes", p.piggyback_bytes)
        .field("piggyback_dense_bytes", p.piggyback_dense_bytes)
        .field("control_messages", p.control_messages)
        .field("storage_wireless_bytes", p.storage_wireless_bytes)
        .field("storage_wired_bytes", p.storage_wired_bytes)
        .field("storage_transfers", p.storage_transfers)
        .field("lines_checked", p.lines_checked)
        .field("orphans_found", p.orphans_found)
        .field("delta_reorders", p.delta_reorders);
    w.end_object();
  }
  w.end_array();
  w.field("events_executed", result.events_executed)
      .field("workload_ops", result.workload_ops)
      .field("trace_hash", result.trace_hash)
      .field("invariants_ok", result.invariants_ok)
      .field("cancels_effective", result.invariants.cancels_effective)
      .field("cancels_noop", result.invariants.cancels_noop())
      .field("max_pending", static_cast<u64>(result.invariants.max_pending));
  // Written only for sharded runs, so shards=1 documents stay
  // byte-identical to earlier versions.
  if (result.shards > 1) {
    w.field("shards", static_cast<u64>(result.shards))
        .field("sync_rounds", result.sync_rounds)
        .field("cross_shard_ties", result.cross_shard_ties)
        .field("barrier_stall_seconds", result.barrier_stall_seconds);
  }
  if (!result.metrics.empty()) {
    w.key("metrics").begin_object();
    for (const obs::MetricSample& m : result.metrics) w.field(m.name, m.value);
    w.end_object();
  }
  // Written only when a crash actually executed, so crash-free documents
  // stay byte-identical to earlier versions.
  if (result.recovery.crashes_executed > 0) {
    const CrashRunStats& r = result.recovery;
    w.key("recovery").begin_object();
    w.field("crashes_executed", r.crashes_executed)
        .field("crashes_skipped", r.crashes_skipped)
        .field("hosts_crashed", r.hosts_crashed)
        .field("hosts_rolled_back", r.hosts_rolled_back)
        .field("undone_events", r.undone_events)
        .field("replayed_messages", r.replayed_messages)
        .field("checkpoints_discarded", r.checkpoints_discarded)
        .field("total_recovery_time", r.total_recovery_time)
        .field("max_recovery_time", r.max_recovery_time)
        .field("total_planned", r.total_planned)
        .field("total_estimated", r.total_estimated);
    w.end_object();
  }
  // Written only when the checkpoint data plane ran, so plane-off
  // documents stay byte-identical to earlier versions.
  if (result.data_plane_enabled) {
    const storage::DataPlaneStats& d = result.data_plane;
    w.key("data_plane").begin_object();
    w.field("checkpoints", d.checkpoints)
        .field("upload_bytes", d.upload_bytes)
        .field("full_bytes", d.full_bytes)
        .field("transfers_completed", d.transfers_completed)
        .field("transfer_time", d.transfer_time)
        .field("queue_delay", d.queue_delay)
        .field("migrations", d.migrations)
        .field("migration_bytes", d.migration_bytes)
        .field("migration_copy_time", d.migration_copy_time)
        .field("migration_stall", d.migration_stall)
        .field("locality_samples", d.locality_samples)
        .field("locality_hops", d.locality_hops)
        .field("mean_locality", d.mean_locality())
        .field("fetches", d.fetches)
        .field("fetch_bytes", d.fetch_bytes)
        .field("fetch_hops", d.fetch_hops)
        .field("fetch_time", d.fetch_time);
    w.end_object();
  }
  w.end_object();
  os << '\n';
}

void write_json(std::ostream& os, const FigureResult& result) {
  JsonWriter w(os);
  w.begin_object();
  w.field("title", result.title);
  w.key("protocols").begin_array();
  for (const auto& name : result.protocol_names) w.value(name);
  w.end_array();
  w.key("precision").begin_object();
  w.field("target_relative_ci", result.target_relative_ci)
      .field("all_targets_met", result.all_targets_met());
  w.end_object();
  w.key("points").begin_array();
  for (usize p = 0; p < result.t_switch_values.size(); ++p) {
    w.begin_object();
    w.field("t_switch", result.t_switch_values[p])
        .field("replications", static_cast<u64>(result.seeds_used[p]))
        .field("target_met", static_cast<bool>(result.target_met[p]));
    w.key("n_tot").begin_array();
    for (usize k = 0; k < result.protocol_names.size(); ++k) {
      const des::Tally& tally = result.cells[p][k];
      w.begin_object();
      w.field("mean", tally.mean())
          .field("ci95", des::confidence_half_width(tally, 0.95))
          .field("relative_ci95", des::relative_half_width(tally, 0.95))
          .field("min", tally.min())
          .field("max", tally.max())
          .field("replications", tally.count());
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.field("max_relative_spread", result.max_relative_spread());
  w.key("ledger");
  write_ledger_fields(w, result.ledger);
  w.end_object();
  os << '\n';
}

void write_json(std::ostream& os, const SweepLedger& ledger) {
  JsonWriter w(os);
  write_ledger_fields(w, ledger);
  os << '\n';
}

RunResult run_result_from_json(const JsonValue& json) {
  RunResult result;
  if (const JsonValue* cfg = json.find("config")) {
    if (const JsonValue* v = cfg->find("n_hosts")) result.cfg.network.n_hosts = static_cast<u32>(v->as_u64());
    if (const JsonValue* v = cfg->find("n_mss")) result.cfg.network.n_mss = static_cast<u32>(v->as_u64());
    if (const JsonValue* v = cfg->find("sim_length")) result.cfg.sim_length = v->as_f64();
    if (const JsonValue* v = cfg->find("seed")) result.cfg.seed = v->as_u64();
    if (const JsonValue* v = cfg->find("t_switch")) result.cfg.t_switch = v->as_f64();
    if (const JsonValue* v = cfg->find("p_switch")) result.cfg.p_switch = v->as_f64();
    if (const JsonValue* v = cfg->find("p_send")) result.cfg.p_send = v->as_f64();
    if (const JsonValue* v = cfg->find("comm_mean")) result.cfg.comm_mean = v->as_f64();
    if (const JsonValue* v = cfg->find("heterogeneity")) result.cfg.heterogeneity = v->as_f64();
    if (const JsonValue* v = cfg->find("mobility_model")) {
      result.cfg.mobility_model = mobility_model_from_name(v->as_string());
    }
  }
  if (const JsonValue* net = json.find("network")) {
    if (const JsonValue* v = net->find("app_sent")) result.net.app_sent = v->as_u64();
    if (const JsonValue* v = net->find("app_delivered")) result.net.app_delivered = v->as_u64();
    if (const JsonValue* v = net->find("app_received")) result.net.app_received = v->as_u64();
    if (const JsonValue* v = net->find("handoffs")) result.net.handoffs = v->as_u64();
    if (const JsonValue* v = net->find("disconnects")) result.net.disconnects = v->as_u64();
    if (const JsonValue* v = net->find("reconnects")) result.net.reconnects = v->as_u64();
    if (const JsonValue* v = net->find("control_messages")) result.net.control_messages = v->as_u64();
    if (const JsonValue* v = net->find("wireless_messages")) result.net.wireless_messages = v->as_u64();
    if (const JsonValue* v = net->find("wired_hops")) result.net.wired_hops = v->as_u64();
    if (const JsonValue* v = net->find("chase_forwards")) result.net.chase_forwards = v->as_u64();
    if (const JsonValue* v = net->find("buffered_deliveries")) result.net.buffered_deliveries = v->as_u64();
    if (const JsonValue* v = net->find("piggyback_bytes")) result.net.piggyback_bytes = v->as_u64();
    if (const JsonValue* v = net->find("piggyback_dense_bytes")) {
      result.net.piggyback_dense_bytes = v->as_u64();
    }
    if (const JsonValue* v = net->find("bulk_transfers")) result.net.bulk_transfers = v->as_u64();
    if (const JsonValue* v = net->find("bulk_wired_bytes")) {
      result.net.bulk_wired_bytes = v->as_u64();
    }
    if (const JsonValue* v = net->find("mean_delivery_latency")) {
      // The writer serializes only the mean; a one-sample tally re-emits
      // it exactly (write -> parse -> write is byte-identical).
      result.net.delivery_latency.add(v->as_f64());
    }
  }
  if (const JsonValue* protocols = json.find("protocols")) {
    for (const JsonValue& entry : protocols->as_array()) {
      ProtocolRunStats p;
      if (const JsonValue* v = entry.find("name")) {
        p.name = v->as_string();
        p.kind = core::protocol_kind_from_name(p.name);
      }
      if (const JsonValue* v = entry.find("n_tot")) p.n_tot = v->as_u64();
      if (const JsonValue* v = entry.find("basic")) p.basic = v->as_u64();
      if (const JsonValue* v = entry.find("forced")) p.forced = v->as_u64();
      if (const JsonValue* v = entry.find("initial")) p.initial = v->as_u64();
      p.total = p.basic + p.forced + p.initial;
      if (const JsonValue* v = entry.find("max_index")) p.max_index = v->as_u64();
      if (const JsonValue* v = entry.find("piggyback_bytes")) p.piggyback_bytes = v->as_u64();
      if (const JsonValue* v = entry.find("piggyback_dense_bytes")) {
        p.piggyback_dense_bytes = v->as_u64();
      }
      if (const JsonValue* v = entry.find("control_messages")) p.control_messages = v->as_u64();
      if (const JsonValue* v = entry.find("storage_wireless_bytes")) p.storage_wireless_bytes = v->as_u64();
      if (const JsonValue* v = entry.find("storage_wired_bytes")) p.storage_wired_bytes = v->as_u64();
      if (const JsonValue* v = entry.find("storage_transfers")) p.storage_transfers = v->as_u64();
      if (const JsonValue* v = entry.find("lines_checked")) p.lines_checked = v->as_u64();
      if (const JsonValue* v = entry.find("orphans_found")) p.orphans_found = v->as_u64();
      if (const JsonValue* v = entry.find("delta_reorders")) p.delta_reorders = v->as_u64();
      result.protocols.push_back(std::move(p));
    }
  }
  if (const JsonValue* v = json.find("events_executed")) result.events_executed = v->as_u64();
  if (const JsonValue* v = json.find("workload_ops")) result.workload_ops = v->as_u64();
  if (const JsonValue* v = json.find("trace_hash")) result.trace_hash = v->as_u64();
  if (const JsonValue* v = json.find("invariants_ok")) result.invariants_ok = v->as_bool();
  if (const JsonValue* v = json.find("cancels_effective")) {
    result.invariants.cancels_effective = v->as_u64();
    result.invariants.cancels_requested = v->as_u64();
  }
  if (const JsonValue* v = json.find("cancels_noop")) {
    result.invariants.cancels_requested += v->as_u64();
  }
  if (const JsonValue* v = json.find("max_pending")) {
    result.invariants.max_pending = static_cast<usize>(v->as_u64());
  }
  if (const JsonValue* v = json.find("shards")) result.shards = static_cast<u32>(v->as_u64());
  if (const JsonValue* v = json.find("sync_rounds")) result.sync_rounds = v->as_u64();
  if (const JsonValue* v = json.find("cross_shard_ties")) result.cross_shard_ties = v->as_u64();
  if (const JsonValue* v = json.find("barrier_stall_seconds")) {
    result.barrier_stall_seconds = v->as_f64();
  }
  if (const JsonValue* metrics = json.find("metrics")) {
    for (const auto& [name, value] : metrics->object) {
      result.metrics.push_back(obs::MetricSample{name, value.as_f64()});
    }
  }
  if (const JsonValue* rec = json.find("recovery")) {
    CrashRunStats& r = result.recovery;
    if (const JsonValue* v = rec->find("crashes_executed")) r.crashes_executed = v->as_u64();
    if (const JsonValue* v = rec->find("crashes_skipped")) r.crashes_skipped = v->as_u64();
    if (const JsonValue* v = rec->find("hosts_crashed")) r.hosts_crashed = v->as_u64();
    if (const JsonValue* v = rec->find("hosts_rolled_back")) r.hosts_rolled_back = v->as_u64();
    if (const JsonValue* v = rec->find("undone_events")) r.undone_events = v->as_u64();
    if (const JsonValue* v = rec->find("replayed_messages")) r.replayed_messages = v->as_u64();
    if (const JsonValue* v = rec->find("checkpoints_discarded")) {
      r.checkpoints_discarded = v->as_u64();
    }
    if (const JsonValue* v = rec->find("total_recovery_time")) r.total_recovery_time = v->as_f64();
    if (const JsonValue* v = rec->find("max_recovery_time")) r.max_recovery_time = v->as_f64();
    if (const JsonValue* v = rec->find("total_planned")) r.total_planned = v->as_f64();
    if (const JsonValue* v = rec->find("total_estimated")) r.total_estimated = v->as_f64();
  }
  if (const JsonValue* dp = json.find("data_plane")) {
    result.data_plane_enabled = true;
    storage::DataPlaneStats& d = result.data_plane;
    if (const JsonValue* v = dp->find("checkpoints")) d.checkpoints = v->as_u64();
    if (const JsonValue* v = dp->find("upload_bytes")) d.upload_bytes = v->as_u64();
    if (const JsonValue* v = dp->find("full_bytes")) d.full_bytes = v->as_u64();
    if (const JsonValue* v = dp->find("transfers_completed")) d.transfers_completed = v->as_u64();
    if (const JsonValue* v = dp->find("transfer_time")) d.transfer_time = v->as_f64();
    if (const JsonValue* v = dp->find("queue_delay")) d.queue_delay = v->as_f64();
    if (const JsonValue* v = dp->find("migrations")) d.migrations = v->as_u64();
    if (const JsonValue* v = dp->find("migration_bytes")) d.migration_bytes = v->as_u64();
    if (const JsonValue* v = dp->find("migration_copy_time")) d.migration_copy_time = v->as_f64();
    if (const JsonValue* v = dp->find("migration_stall")) d.migration_stall = v->as_f64();
    if (const JsonValue* v = dp->find("locality_samples")) d.locality_samples = v->as_u64();
    if (const JsonValue* v = dp->find("locality_hops")) d.locality_hops = v->as_u64();
    // mean_locality is derived from samples/hops; the writer re-emits it
    // exactly, so write -> parse -> write stays byte-identical.
    if (const JsonValue* v = dp->find("fetches")) d.fetches = v->as_u64();
    if (const JsonValue* v = dp->find("fetch_bytes")) d.fetch_bytes = v->as_u64();
    if (const JsonValue* v = dp->find("fetch_hops")) d.fetch_hops = v->as_u64();
    if (const JsonValue* v = dp->find("fetch_time")) d.fetch_time = v->as_f64();
  }
  return result;
}

SweepLedger sweep_ledger_from_json(const JsonValue& json) {
  SweepLedger ledger;
  if (const JsonValue* v = json.find("wall_seconds")) ledger.wall_seconds = v->as_f64();
  if (const JsonValue* v = json.find("events_executed")) ledger.events_executed = v->as_u64();
  if (const JsonValue* v = json.find("replications_run")) ledger.replications_run = v->as_u64();
  if (const JsonValue* v = json.find("replications_used")) ledger.replications_used = v->as_u64();
  if (const JsonValue* v = json.find("replication_cap")) ledger.replication_cap = v->as_u64();
  if (const JsonValue* v = json.find("shards")) ledger.shards = static_cast<u32>(v->as_u64());
  if (const JsonValue* v = json.find("sync_rounds")) ledger.sync_rounds = v->as_u64();
  if (const JsonValue* v = json.find("barrier_stall_seconds")) {
    ledger.barrier_stall_seconds = v->as_f64();
  }
  if (const JsonValue* v = json.find("point_wall_seconds")) {
    for (const JsonValue& s : v->array) ledger.point_wall_seconds.push_back(s.as_f64());
  }
  return ledger;
}

}  // namespace mobichk::sim
