#include "sim/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <stdexcept>

#include "core/protocols/tp.hpp"
#include "core/recovery.hpp"

namespace mobichk::sim {

namespace {

/// Cap on recovery lines the consistency oracle samples per protocol.
constexpr usize kVerifyMaxLines = 64;

/// The online recovery-line semantics each protocol class admits.
obs::TrackerMode tracker_mode_for(core::ProtocolKind kind) {
  switch (kind) {
    case core::ProtocolKind::kTp: return obs::TrackerMode::kTpDependency;
    case core::ProtocolKind::kBcs:
    case core::ProtocolKind::kLazyBcs:
    case core::ProtocolKind::kCoordinated: return obs::TrackerMode::kIndexFirstAtLeast;
    case core::ProtocolKind::kQbc: return obs::TrackerMode::kIndexLastEqual;
    default: return obs::TrackerMode::kNone;
  }
}

}  // namespace

const ProtocolRunStats& RunResult::by_name(const std::string& name) const {
  for (const auto& p : protocols) {
    if (p.name == name) return p;
  }
  throw std::out_of_range("RunResult::by_name: no protocol named " + name);
}

Experiment::Experiment(SimConfig cfg, ExperimentOptions opts)
    : cfg_(cfg), opts_(std::move(opts)) {
  cfg_.validate();
  if (opts_.protocols.empty()) {
    throw std::invalid_argument("ExperimentOptions: need at least one protocol");
  }
  // The sizing prices storage_* on every run, plane on or off.
  opts_.data_plane.validate();
  if (opts_.shards > 1) shards_ = std::min(opts_.shards, cfg_.network.n_mss);
  if (shards_ > 1 && opts_.observer != nullptr) {
    throw std::invalid_argument(
        "ExperimentOptions: observers are sequential-only; run with shards=1");
  }
  if (opts_.collect_trace_hash) hash_sink_ = std::make_unique<des::HashSink>();
  sim_ = std::make_unique<des::Simulator>(opts_.queue_kind);
  des::TraceSink* sink = hash_sink_.get();
  if (opts_.trace_sink != nullptr) {
    if (sink != nullptr) {
      tee_.attach(sink);
      tee_.attach(opts_.trace_sink);
      sink = &tee_;
    } else {
      sink = opts_.trace_sink;
    }
  }
  if (shards_ > 1) {
    const f64 lookahead = std::min(cfg_.network.wireless_latency, cfg_.network.wired_latency);
    sharded_ =
        std::make_unique<des::ShardedSimulator>(*sim_, shards_, opts_.queue_kind, lookahead);
    sim_->set_sharded(sharded_.get());
    mux_ = std::make_unique<des::ShardTraceMux>(shards_,
                                                sink != nullptr ? sink : &null_sink_);
    sink = mux_.get();
  }
  net_ = std::make_unique<net::Network>(*sim_, cfg_.network, cfg_.seed, sink);
  harness_ = std::make_unique<core::ProtocolHarness>(*net_, sink);
  if (opts_.data_plane.enabled) {
    data_plane_ = std::make_unique<storage::DataPlane>(
        *sim_, net_->topology(), opts_.data_plane, cfg_.network.n_hosts,
        cfg_.network.wireless_latency, cfg_.network.wired_latency);
    data_plane_->set_trace_sink(sink);
    data_plane_->set_network(net_.get());
    harness_->set_data_plane(data_plane_.get());
  }
  if (opts_.observer != nullptr) {
    net_->set_observer(opts_.observer->delivery_latency(), &opts_.observer->timeline());
    harness_->set_timeline(&opts_.observer->timeline());
    if (data_plane_ != nullptr) data_plane_->set_timeline(&opts_.observer->timeline());
  }
  if (opts_.profiler != nullptr) {
    // Lane 0 = coordinator / sequential engine; lane 1+s = shard s
    // (set_profiler on the sharded engine installs those).
    opts_.profiler->ensure_lanes(1);
    if (sharded_ != nullptr) {
      sharded_->set_profiler(opts_.profiler);
    } else {
      sim_->set_prof(&opts_.profiler->lane_ref(0));
    }
    net_->set_profiler(opts_.profiler);
    harness_->set_profiler(opts_.profiler);
    if (data_plane_ != nullptr) data_plane_->set_profiler(opts_.profiler);
  }
  for (const auto kind : opts_.protocols) {
    harness_->add_protocol(core::make_protocol(kind, opts_.params, cfg_.seed));
  }
  if (opts_.profiler != nullptr) {
    std::vector<std::string> slot_names;
    slot_names.reserve(harness_->protocol_count());
    for (usize slot = 0; slot < harness_->protocol_count(); ++slot) {
      slot_names.emplace_back(harness_->protocol(slot).name());
    }
    opts_.profiler->set_slot_names(std::move(slot_names));
  }
  if (shards_ > 1) {
    // The network refuses sequential-only configs (duplicating channels,
    // bandwidth caps) before anything else is switched over.
    net_->enable_sharding(sharded_.get(), mux_.get());
    harness_->enable_sharding(shards_);
    if (data_plane_ != nullptr) data_plane_->enable_sharding(shards_);
    merger_ = std::make_unique<WindowMerger>(*net_, *harness_, data_plane_.get());
    sharded_->set_hooks(merger_.get());
  }
  workload_ = std::make_unique<WorkloadDriver>(*sim_, *net_, cfg_);
  if (shards_ > 1) workload_->enable_sharding(shards_);
  if (cfg_.ckpt_latency > 0.0) {
    // Probe every slot: stalling only for slot 0's checkpoints made the
    // trace depend on protocol order in multi-protocol runs.
    std::vector<const core::CheckpointLog*> probes;
    probes.reserve(harness_->protocol_count());
    for (usize slot = 0; slot < harness_->protocol_count(); ++slot) {
      probes.push_back(&harness_->log(slot));
    }
    workload_->set_latency_probes(std::move(probes));
  }
  mobility_ = std::make_unique<MobilityDriver>(*sim_, *net_, cfg_, workload_.get());
  if (cfg_.faults.enabled()) {
    crash_ = std::make_unique<CrashDriver>(*sim_, *net_, *harness_, cfg_, opts_.protocols,
                                           workload_.get(), mobility_.get(), opts_.observer,
                                           data_plane_.get());
  }
  if (opts_.observer != nullptr) {
    opts_.observer->set_n_hosts(static_cast<i32>(cfg_.network.n_hosts));
    std::vector<std::string> names;
    names.reserve(harness_->protocol_count());
    for (usize slot = 0; slot < harness_->protocol_count(); ++slot) {
      names.emplace_back(harness_->protocol(slot).name());
    }
    opts_.observer->set_protocol_names(std::move(names));
    std::vector<obs::TrackerMode> modes;
    modes.reserve(opts_.protocols.size());
    for (const auto kind : opts_.protocols) modes.push_back(tracker_mode_for(kind));
    opts_.observer->enable_causal(modes);
  }
}

void Experiment::run() {
  if (ran_) throw std::logic_error("Experiment::run called twice");
  ran_ = true;
  const auto wall_start = std::chrono::steady_clock::now();
  net_->start();
  workload_->start();
  mobility_->start();
  if (crash_ != nullptr) crash_->start();
  if (sharded_ != nullptr) {
    sharded_->run_until(cfg_.sim_length);
  } else {
    sim_->run_until(cfg_.sim_length);
  }
  result_.wall_seconds =
      std::chrono::duration<f64>(std::chrono::steady_clock::now() - wall_start).count();

  result_.cfg = cfg_;
  result_.net = net_->stats();
  result_.invariants = sharded_ != nullptr ? sharded_->invariants() : sim_->invariants();
  result_.events_executed = result_.invariants.executed;
  result_.workload_ops = workload_->ops_executed();
  result_.trace_hash = hash_sink_ != nullptr ? hash_sink_->hash() : 0;
  result_.invariants_ok = sharded_ != nullptr ? sharded_->invariants_ok() : sim_->invariants_ok();
  result_.shards = shards_;
  if (sharded_ != nullptr) {
    result_.sync_rounds = sharded_->sync_rounds();
    result_.barrier_stall_seconds = sharded_->barrier_stall_seconds();
    result_.cross_shard_ties = mux_->cross_shard_ties() + net_->cross_shard_ties() +
                               harness_->cross_shard_ties() +
                               (data_plane_ != nullptr ? data_plane_->cross_shard_ties() : 0);
  }
  result_.protocols.clear();
  result_.protocols.reserve(opts_.protocols.size());
  for (usize slot = 0; slot < harness_->protocol_count(); ++slot) {
    const core::CheckpointLog& log = harness_->log(slot);
    ProtocolRunStats stats;
    stats.name = harness_->protocol(slot).name();
    stats.kind = opts_.protocols[slot];
    stats.total = log.total();
    stats.n_tot = log.n_tot();
    stats.basic = log.basic();
    stats.forced = log.forced();
    stats.initial = log.initial();
    stats.max_index = log.max_sn();
    stats.piggyback_bytes = harness_->piggyback_bytes(slot);
    stats.piggyback_dense_bytes = harness_->piggyback_dense_bytes(slot);
    stats.control_messages = harness_->protocol(slot).control_messages();
    if (stats.kind == core::ProtocolKind::kTp) {
      stats.delta_reorders =
          static_cast<const core::TpProtocol&>(harness_->protocol(slot)).delta_reorders();
    }
    const core::StorageTraffic traffic = core::storage_traffic(log, opts_.data_plane);
    stats.storage_wireless_bytes = traffic.wireless_bytes;
    stats.storage_wired_bytes = traffic.wired_bytes;
    stats.storage_transfers = traffic.transfers;
    if (opts_.verify_consistency) verify_slot(slot, stats);
    result_.protocols.push_back(std::move(stats));
  }
  if (crash_ != nullptr) result_.recovery = crash_->stats();
  if (data_plane_ != nullptr) {
    result_.data_plane_enabled = true;
    result_.data_plane = data_plane_->stats();
  }
  if (opts_.observer != nullptr) {
    // Every counter is published once, here, from the ledger the run
    // already keeps (catalog: docs/observability.md). The des.* and net.*
    // names were registered by RunObserver's constructor, so they keep
    // their catalog positions.
    obs::MetricRegistry& reg = opts_.observer->registry();
    const des::SimInvariants& inv = result_.invariants;
    for (usize k = 0; k < des::kEventKindCount; ++k) {
      reg.counter(std::string("des.dispatch.") + des::event_kind_name(k)).add(inv.dispatched[k]);
    }
    reg.counter("des.queue.pushes").add(inv.scheduled);
    reg.counter("des.queue.pops").add(inv.executed);
    reg.gauge("des.queue.max_pending").max_of(static_cast<f64>(inv.max_pending));
    const net::NetworkStats& ns = result_.net;
    reg.counter("net.leg.uplink").add(ns.app_sent);
    reg.counter("net.leg.wired_hop").add(ns.wired_hops - ns.bulk_wired_hops);
    // A wireless message is an app send's uplink, a control message or a
    // downlink (duplicates included).
    reg.counter("net.leg.downlink").add(ns.wireless_messages - ns.app_sent - ns.control_messages);
    reg.counter("net.bytes.payload").add(ns.payload_bytes);
    reg.counter("net.bytes.piggyback").add(ns.piggyback_bytes);
    reg.counter("net.bytes.piggyback_dense").add(ns.piggyback_dense_bytes);
    reg.counter("net.mobility.handoffs").add(ns.handoffs);
    reg.counter("net.mobility.disconnects").add(ns.disconnects);
    reg.counter("net.mobility.reconnects").add(ns.reconnects);
    reg.counter("net.mobility.crashes").add(ns.crashes);
    reg.counter("net.mobility.restores").add(ns.restores);
    if (crash_ != nullptr) {
      const CrashRunStats& rec = result_.recovery;
      reg.counter("recovery.crashes").add(rec.crashes_executed);
      reg.counter("recovery.hosts_crashed").add(rec.hosts_crashed);
      reg.counter("recovery.hosts_rolled_back").add(rec.hosts_rolled_back);
      reg.counter("recovery.undone_events").add(rec.undone_events);
      reg.counter("recovery.replayed_messages").add(rec.replayed_messages);
      reg.counter("recovery.checkpoints_discarded").add(rec.checkpoints_discarded);
      reg.gauge("recovery.total_time").set(rec.total_recovery_time);
      reg.gauge("recovery.max_time").set(rec.max_recovery_time);
      reg.gauge("recovery.total_estimated").set(rec.total_estimated);
    }
    if (data_plane_ != nullptr) {
      const storage::DataPlaneStats& dp = result_.data_plane;
      reg.counter("storage.checkpoints").add(dp.checkpoints);
      reg.counter("storage.upload_bytes").add(dp.upload_bytes);
      reg.counter("storage.full_bytes").add(dp.full_bytes);
      reg.counter("storage.transfers_completed").add(dp.transfers_completed);
      reg.counter("storage.migrations").add(dp.migrations);
      reg.counter("storage.migration_bytes").add(dp.migration_bytes);
      reg.counter("storage.fetches").add(dp.fetches);
      reg.counter("storage.fetch_bytes").add(dp.fetch_bytes);
      reg.gauge("storage.transfer_time").set(dp.transfer_time);
      reg.gauge("storage.queue_delay").set(dp.queue_delay);
      reg.gauge("storage.migration_copy_time").set(dp.migration_copy_time);
      reg.gauge("storage.migration_stall").set(dp.migration_stall);
      reg.gauge("storage.mean_locality_hops").set(dp.mean_locality());
      reg.gauge("storage.fetch_time").set(dp.fetch_time);
    }
    // Close the online recovery-line analysis (Z-cycle pass, final
    // gauges) before the snapshot so rl.* metrics are complete.
    opts_.observer->finalize_causal();
    result_.metrics = opts_.observer->registry().snapshot();
  }
  if (opts_.profiler != nullptr) {
    // prof.* samples ride after the registry snapshot (still a stable,
    // deterministic catalog order; the values are host times).
    std::vector<obs::MetricSample> prof = opts_.profiler->snapshot();
    result_.metrics.insert(result_.metrics.end(), std::make_move_iterator(prof.begin()),
                           std::make_move_iterator(prof.end()));
  }
}

void Experiment::verify_slot(usize slot, ProtocolRunStats& stats) {
  const core::CheckpointLog& log = harness_->log(slot);
  const core::MessageLog& messages = harness_->message_log();
  const std::vector<u64> current = harness_->current_positions();
  const core::ProtocolKind kind = opts_.protocols[slot];

  if (kind == core::ProtocolKind::kBasicOnly || kind == core::ProtocolKind::kUncoordinated) {
    // These classes build no recovery line on the fly; the rollback
    // machinery (core/recovery.hpp) is their recovery story.
    return;
  }

  if (kind == core::ProtocolKind::kTp) {
    // Sample checkpoints as anchors, newest first per host.
    usize budget = kVerifyMaxLines;
    for (net::HostId h = 0; h < log.n_hosts() && budget > 0; ++h) {
      const auto& records = log.of(h);
      for (auto it = records.rbegin(); it != records.rend() && budget > 0; ++it, --budget) {
        const auto cut = core::tp_recovery_line(log, *it, current);
        ++stats.lines_checked;
        stats.orphans_found += core::find_orphans(messages, cut).size();
      }
    }
    return;
  }

  // Index-based: sample indices evenly across [0, max_sn].
  const u64 max_index = log.max_sn();
  const auto rule = core::recovery_rule_for(kind);
  const u64 step = std::max<u64>(1, (max_index + 1) / kVerifyMaxLines);
  for (u64 m = 0; m <= max_index; m += step) {
    const auto cut = core::index_recovery_line(log, m, rule, current);
    ++stats.lines_checked;
    stats.orphans_found += core::find_orphans(messages, cut).size();
  }
}

RunResult run_experiment(const SimConfig& cfg, const ExperimentOptions& opts) {
  Experiment exp(cfg, opts);
  exp.run();
  return exp.result();
}

}  // namespace mobichk::sim
