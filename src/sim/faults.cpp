#include "sim/faults.hpp"

#include <algorithm>

#include "core/recovery.hpp"
#include "obs/causal.hpp"

namespace mobichk::sim {

namespace {

/// Protocols whose recovery line is the index line of the victims'
/// highest reached index; the rest use the generic orphan fixpoint.
bool uses_index_rollback(core::ProtocolKind kind) noexcept {
  switch (kind) {
    case core::ProtocolKind::kBcs:
    case core::ProtocolKind::kQbc:
    case core::ProtocolKind::kCoordinated:
    case core::ProtocolKind::kLazyBcs: return true;
    default: return false;
  }
}

}  // namespace

CrashDriver::CrashDriver(des::Simulator& sim, net::Network& net, core::ProtocolHarness& harness,
                         const SimConfig& cfg, std::vector<core::ProtocolKind> kinds,
                         WorkloadDriver* workload, MobilityDriver* mobility,
                         obs::RunObserver* observer, storage::DataPlane* data_plane)
    : sim_(sim),
      net_(net),
      harness_(harness),
      cfg_(cfg),
      kinds_(std::move(kinds)),
      workload_(workload),
      mobility_(mobility),
      observer_(observer),
      data_plane_(data_plane),
      rng_(cfg.seed, "faults") {
  down_.assign(net.n_hosts(), false);
}

void CrashDriver::start() {
  if (!cfg_.faults.enabled()) return;
  des::EventPayload p;
  p.target = this;
  p.kind = des::EventKind::kCrash;
  // An unset failure time means mid-run.
  const f64 at = cfg_.faults.first_crash_at > 0.0 ? cfg_.faults.first_crash_at
                                                  : cfg_.sim_length / 2.0;
  sim_.schedule_at(at, p);
  ++scheduled_;
}

void CrashDriver::on_event(const des::EventPayload& p) {
  if (p.kind == des::EventKind::kCrash) {
    execute_crash();
    schedule_next_crash();
  } else {
    finish_recovery(static_cast<net::HostId>(p.a), p.b);
  }
}

void CrashDriver::schedule_next_crash() {
  if (scheduled_ >= cfg_.faults.max_crashes || cfg_.faults.crash_interval <= 0.0) return;
  const f64 gap = des::Exponential(cfg_.faults.crash_interval).sample(rng_);
  des::EventPayload p;
  p.target = this;
  p.kind = des::EventKind::kCrash;
  sim_.schedule_after(gap, p);
  ++scheduled_;
}

std::vector<net::HostId> CrashDriver::pick_victims() {
  std::vector<net::HostId> eligible;
  for (net::HostId h = 0; h < net_.n_hosts(); ++h) {
    if (net_.host(h).connected() && !down_[h]) eligible.push_back(h);
  }
  std::vector<net::HostId> victims;
  const FaultConfig& f = cfg_.faults;
  switch (f.mode) {
    case CrashMode::kMhCrash:
      if (f.target != FaultConfig::kRandomTarget) {
        for (const auto h : eligible) {
          if (h == f.target) victims.push_back(h);
        }
      } else if (!eligible.empty()) {
        victims.push_back(eligible[des::uniform_index(rng_, eligible.size())]);
      }
      break;
    case CrashMode::kCorrelated: {
      const usize want = std::min<usize>(f.correlated, eligible.size());
      for (usize i = 0; i < want; ++i) {
        const auto j = static_cast<usize>(des::uniform_index(rng_, eligible.size()));
        victims.push_back(eligible[j]);
        eligible.erase(eligible.begin() + static_cast<std::ptrdiff_t>(j));
      }
      break;
    }
    case CrashMode::kCellOutage: {
      const auto cell = f.target != FaultConfig::kRandomTarget
                            ? static_cast<net::MssId>(f.target)
                            : static_cast<net::MssId>(des::uniform_index(rng_, net_.n_mss()));
      // Every live host the cell holds, in ascending id order.
      for (const auto h : eligible) {
        if (net_.host(h).mss() == cell) victims.push_back(h);
      }
      break;
    }
    case CrashMode::kNone: break;
  }
  return victims;
}

void CrashDriver::execute_crash() {
  const std::vector<net::HostId> victims = pick_victims();
  if (victims.empty()) {
    // Every candidate is already down or disconnected; a failure with no
    // live victim is a no-op.
    ++stats_.crashes_skipped;
    return;
  }

  const u32 n = net_.n_hosts();
  const std::vector<u64> fail_pos = harness_.current_positions();
  std::vector<bool> crashed(n, false);
  for (const auto v : victims) crashed[v] = true;

  CrashRecord rec;
  rec.t = sim_.now();
  rec.mode = cfg_.faults.mode;
  rec.victims = victims;
  const core::MessageLog& messages = harness_.message_log();

  // Measure every protocol's rollback against the shared trace; slot 0's
  // line is the one the run physically restores.
  core::RollbackResult rb0;
  const obs::CausalMonitor* monitor = observer_ != nullptr ? observer_->causal() : nullptr;
  for (usize slot = 0; slot < kinds_.size(); ++slot) {
    core::RollbackResult rb =
        uses_index_rollback(kinds_[slot])
            ? core::index_rollback(harness_.log(slot), core::recovery_rule_for(kinds_[slot]),
                                   fail_pos, crashed)
            : core::rollback_to_consistent(harness_.log(slot), messages, fail_pos, crashed);
    rec.slot_undone.push_back(rb.undone_events());
    rec.slot_line_index.push_back(rb.line.index);
    const obs::RecoveryLineTracker* tracker =
        monitor != nullptr ? monitor->tracker(slot) : nullptr;
    rec.tracker_line_index.push_back(tracker != nullptr ? tracker->line_index() : ~0ULL);
    if (slot == 0) rb0 = std::move(rb);
  }

  std::vector<net::MssId> host_mss(n);
  for (net::HostId h = 0; h < n; ++h) host_mss[h] = net_.host(h).mss();
  const core::RecoveryPlan plan =
      core::plan_recovery(rb0, messages, crashed, host_mss, net_.n_mss(), cfg_.faults.recovery);

  rec.line_index = rb0.line.index;
  rec.hosts_rolled_back = plan.estimate.hosts_rolled_back;
  rec.undone_events = rb0.undone_events();
  rec.replayed_messages = plan.replayed_messages;
  rec.checkpoints_discarded = rb0.total_discarded();
  rec.orphan_iterations = rb0.iterations;
  rec.planned_recovery = plan.completion;
  rec.estimated_recovery = plan.estimate.total();
  rec.undone_per_host.resize(n);
  for (net::HostId h = 0; h < n; ++h) rec.undone_per_host[h] = fail_pos[h] - rb0.line.pos[h];

  // Execute slot 0's line: victims and every connected survivor the line
  // forces onto a stored checkpoint go down together and rejoin at their
  // planned ready times. Disconnected rolled-back hosts are measured but
  // not physically cycled (they are already paused; their restore folds
  // into their eventual reconnect).
  const u64 record_idx = records_.size();
  for (net::HostId h = 0; h < n; ++h) {
    const bool forced = rb0.line.members[h] != nullptr;
    if (!crashed[h] && !forced) continue;
    if (!net_.host(h).connected()) continue;
    ++rec.hosts_taken_down;
    net_.crash(h);
    if (workload_ != nullptr) workload_->pause(h);
    if (mobility_ != nullptr) mobility_->pause(h);
    down_[h] = true;
    f64 ready = plan.hosts[h].ready_at;
    if (data_plane_ != nullptr) {
      // The restore is not free: the host's recovery image lives at its
      // placement MSS and the bytes must be read off stable storage
      // (queueing behind concurrent writers) and shipped over the wired
      // backbone to the cell the host rejoins. Distant placements and
      // contended disks stretch the measured outage.
      ready += data_plane_->recovery_fetch(h, host_mss[h], sim_.now());
    }
    des::EventPayload p;
    p.target = this;
    p.kind = des::EventKind::kRecover;
    p.a = h;
    p.b = record_idx;
    sim_.schedule_after(ready, p);
    ++rec.pending_restores;
  }

  ++stats_.crashes_executed;
  stats_.hosts_crashed += victims.size();
  stats_.hosts_rolled_back += rec.hosts_rolled_back;
  stats_.undone_events += rec.undone_events;
  stats_.replayed_messages += rec.replayed_messages;
  stats_.checkpoints_discarded += rec.checkpoints_discarded;
  stats_.total_planned += rec.planned_recovery;
  stats_.total_estimated += rec.estimated_recovery;
  records_.push_back(std::move(rec));
}

void CrashDriver::finish_recovery(net::HostId host, u64 record_idx) {
  // The host restored its checkpoint image and replayed its logged
  // messages; it rejoins the cell it was in when it went down.
  net_.restore(host, net_.host(host).mss());
  down_[host] = false;
  if (workload_ != nullptr) workload_->resume(host);
  if (mobility_ != nullptr) mobility_->resume(host);
  CrashRecord& rec = records_.at(record_idx);
  if (rec.pending_restores > 0 && --rec.pending_restores == 0) {
    rec.actual_recovery = sim_.now() - rec.t;
    stats_.total_recovery_time += rec.actual_recovery;
    stats_.max_recovery_time = std::max(stats_.max_recovery_time, rec.actual_recovery);
  }
}

}  // namespace mobichk::sim
