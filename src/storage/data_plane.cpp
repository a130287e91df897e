#include "storage/data_plane.hpp"

#include <cmath>
#include <stdexcept>

#include "des/lane.hpp"
#include "des/shard_merge.hpp"
#include "net/network.hpp"
#include "obs/timeline.hpp"

namespace mobichk::storage {

const char* migration_strategy_name(MigrationStrategy strategy) noexcept {
  switch (strategy) {
    case MigrationStrategy::kNone:
      return "none";
    case MigrationStrategy::kPreCopy:
      return "precopy";
    case MigrationStrategy::kPostCopy:
      return "postcopy";
  }
  return "?";
}

bool parse_migration_strategy(std::string_view name, MigrationStrategy& out) noexcept {
  if (name == "none") {
    out = MigrationStrategy::kNone;
    return true;
  }
  if (name == "precopy") {
    out = MigrationStrategy::kPreCopy;
    return true;
  }
  if (name == "postcopy") {
    out = MigrationStrategy::kPostCopy;
    return true;
  }
  return false;
}

void DataPlaneConfig::validate() const {
  if (full_state_bytes == 0) throw std::invalid_argument("DataPlaneConfig: zero state size");
  if (dirty_rate < 0.0) throw std::invalid_argument("DataPlaneConfig: negative dirty rate");
  if (!(storage_bandwidth > 0.0) || !(wireless_bandwidth > 0.0) || !(wired_bandwidth > 0.0)) {
    throw std::invalid_argument("DataPlaneConfig: bandwidths must be > 0");
  }
  if (precopy_rounds == 0) throw std::invalid_argument("DataPlaneConfig: zero pre-copy rounds");
  if (precopy_stop_fraction < 0.0 || precopy_stop_fraction > 1.0) {
    throw std::invalid_argument("DataPlaneConfig: stop fraction outside [0, 1]");
  }
}

u64 dirtied_bytes(u64 full_state_bytes, f64 dirty_rate, f64 dt) noexcept {
  return static_cast<u64>(
      std::ceil(static_cast<f64>(full_state_bytes) * (1.0 - std::exp(-dirty_rate * dt))));
}

DataPlane::DataPlane(des::Simulator& main, const net::MssTopology& topology, DataPlaneConfig cfg,
                     u32 n_hosts, f64 wireless_latency, f64 wired_latency)
    : main_(main),
      topology_(topology),
      cfg_(cfg),
      wireless_latency_(wireless_latency),
      wired_latency_(wired_latency),
      placement_(n_hosts, net::kNoMss) {
  cfg_.validate();
  storage_ = make_stable_storage(cfg_.model, topology.n_mss(), cfg_.storage_bandwidth);
}

void DataPlane::on_checkpoint(net::HostId host, net::MssId mss, des::Time now, u8 ckpt_kind,
                              u64 bytes) {
  obs::ProfScope prof_scope(prof_ != nullptr ? &prof_->lane().storage : nullptr);
  PendingOp op;
  op.t = now;
  op.host = host;
  op.from = mss;
  op.to = mss;
  op.bytes = bytes;
  op.kind = 0;
  op.ckpt_kind = ckpt_kind;
  enqueue_or_process(op);
}

void DataPlane::on_handoff(net::HostId host, net::MssId from, net::MssId to, des::Time now) {
  obs::ProfScope prof_scope(prof_ != nullptr ? &prof_->lane().storage : nullptr);
  PendingOp op;
  op.t = now;
  op.host = host;
  op.from = from;
  op.to = to;
  op.kind = 1;
  enqueue_or_process(op);
}

void DataPlane::enqueue_or_process(const PendingOp& op) {
  const u32 lane = des::lane();
  if (lane == 0) {
    process(op);
  } else {
    lanes_.at(lane).ops.push_back(op);
  }
}

void DataPlane::enable_sharding(u32 n_shards) { lanes_.resize(1 + n_shards); }

void DataPlane::merge_window() {
  obs::ProfScope prof_scope(prof_ != nullptr ? &prof_->lane().storage : nullptr);
  // K-way merge on (time, lane, index): each journal is time-ordered by
  // construction, so the merged order equals the sequential processing
  // order and the FIFO admissions / placement moves reproduce exactly.
  cross_shard_ties_ += des::merge_shard_journals(
      lanes_.size(), [this](usize l) -> auto& { return lanes_[l].ops; },
      [](const PendingOp& op) { return op.t; },
      [this](usize, const PendingOp& op) { process(op); });
  for (Journal& l : lanes_) l.ops.clear();
}

void DataPlane::process(const PendingOp& op) {
  if (op.kind == 0) {
    process_checkpoint(op);
  } else {
    process_handoff(op);
  }
}

void DataPlane::process_checkpoint(const PendingOp& op) {
  net::MssId& placement = placement_.at(op.host);
  ++stats_.checkpoints;
  stats_.upload_bytes += op.bytes;
  stats_.full_bytes += cfg_.full_state_bytes;
  if (placement == net::kNoMss) placement = op.from;  // first image lands here
  const des::Time arrive =
      op.t + wireless_latency_ + static_cast<f64>(op.bytes) / cfg_.wireless_bandwidth;
  const ServiceResult r = storage_->write(op.from, op.bytes, arrive);
  stats_.queue_delay += r.queue_delay;
  stats_.transfer_time += r.done - op.t;
  schedule_completion(kSubUpload, op.host, op.from, op.bytes, op.t, r.done);
  sample_locality(op.host, op.from);
}

void DataPlane::process_handoff(const PendingOp& op) {
  const net::MssId placement = placement_.at(op.host);
  if (cfg_.migration != MigrationStrategy::kNone && placement != net::kNoMss &&
      placement != op.to) {
    migrate(op.host, op.to, op.t);
  }
  sample_locality(op.host, op.to);
}

void DataPlane::migrate(net::HostId host, net::MssId to, des::Time now) {
  net::MssId& placement = placement_.at(host);
  const u32 hops = topology_.hops(placement, to);
  const f64 lat = static_cast<f64>(hops) * wired_latency_;
  const f64 state = static_cast<f64>(cfg_.full_state_bytes);
  f64 copy_time = 0.0;
  f64 stall = 0.0;
  u64 total = 0;
  if (cfg_.migration == MigrationStrategy::kPostCopy) {
    // Placement flips immediately; the host stalls only for the control
    // round-trip while the image back-fills in the background.
    stall = lat;
    copy_time = lat + state / cfg_.wired_bandwidth;
    total = cfg_.full_state_bytes;
  } else {
    // Pre-copy: each round copies the bytes dirtied during the previous
    // round while the host keeps executing; the final stop-and-copy of
    // the residual dirty set is the only host-visible stall.
    u64 round = cfg_.full_state_bytes;
    u64 residual = cfg_.full_state_bytes;
    u32 rounds = 0;
    for (;;) {
      const f64 t_r = lat + static_cast<f64>(round) / cfg_.wired_bandwidth;
      copy_time += t_r;
      total += round;
      ++rounds;
      residual = dirtied_bytes(cfg_.full_state_bytes, cfg_.dirty_rate, t_r);
      if (residual > cfg_.full_state_bytes) residual = cfg_.full_state_bytes;
      if (rounds >= cfg_.precopy_rounds ||
          static_cast<f64>(residual) <= cfg_.precopy_stop_fraction * state) {
        break;
      }
      round = residual;
    }
    stall = lat + static_cast<f64>(residual) / cfg_.wired_bandwidth;
    total += residual;
  }
  // The image leaves the source device and lands on the destination's;
  // both admissions contend with concurrent checkpoint uploads there.
  const ServiceResult src = storage_->read(placement, total, now);
  const ServiceResult dst = storage_->write(to, total, now + copy_time + stall);
  stats_.queue_delay += src.queue_delay + dst.queue_delay;
  ++stats_.migrations;
  stats_.migration_bytes += total;
  stats_.migration_copy_time += copy_time;
  stats_.migration_stall += stall;
  if (network_ != nullptr) network_->account_bulk_wired(hops, total);
  placement = to;
  schedule_completion(kSubMigration, host, to, total, now, dst.done);
}

void DataPlane::sample_locality(net::HostId host, net::MssId host_at) {
  const net::MssId placement = placement_.at(host);
  if (placement == net::kNoMss) return;
  ++stats_.locality_samples;
  stats_.locality_hops += topology_.hops(host_at, placement);
}

des::Time DataPlane::recovery_fetch(net::HostId host, net::MssId at_mss, des::Time now) {
  obs::ProfScope prof_scope(prof_ != nullptr ? &prof_->lane().storage : nullptr);
  const net::MssId placement = placement_.at(host);
  if (placement == net::kNoMss) return 0.0;
  const u64 bytes = cfg_.full_state_bytes;
  const u32 hops = topology_.hops(at_mss, placement);
  const ServiceResult r = storage_->read(placement, bytes, now);
  f64 extra = r.done - now;
  if (hops > 0) {
    // The image is remote: pay the wired legs on top of the device read.
    extra += static_cast<f64>(hops) * wired_latency_ +
             static_cast<f64>(bytes) / cfg_.wired_bandwidth;
    if (network_ != nullptr) network_->account_bulk_wired(hops, bytes);
  }
  ++stats_.fetches;
  stats_.fetch_bytes += bytes;
  stats_.fetch_hops += hops;
  stats_.fetch_time += extra;
  stats_.queue_delay += r.queue_delay;
  schedule_completion(kSubFetch, host, placement, bytes, now, now + extra);
  return extra;
}

void DataPlane::schedule_completion(u8 sub, net::HostId host, net::MssId mss, u64 bytes,
                                    des::Time start, des::Time done) {
  u32 idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
    pending_[idx] = Transfer{host, mss, bytes, start, sub};
  } else {
    idx = static_cast<u32>(pending_.size());
    pending_.push_back(Transfer{host, mss, bytes, start, sub});
  }
  des::EventPayload p;
  p.target = this;
  p.kind = des::EventKind::kCheckpointTransfer;
  p.sub = sub;
  p.a = idx;
  main_.schedule_at(done, p);
}

void DataPlane::on_event(const des::EventPayload& payload) {
  obs::ProfScope prof_scope(prof_ != nullptr ? &prof_->lane().storage : nullptr);
  const Transfer t = pending_.at(payload.a);
  free_.push_back(payload.a);
  ++stats_.transfers_completed;
  const des::Time now = main_.now();
  if (sink_ != nullptr) {
    des::TraceRecord rec;
    rec.time = now;
    rec.actor = t.host;
    rec.kind = t.sub == kSubUpload ? des::TraceKind::kStorageWrite
                                   : des::TraceKind::kStorageTransfer;
    rec.a = t.bytes;
    rec.b = (static_cast<u64>(t.sub) << 32) | t.mss;
    sink_->record(rec);
  }
  if (timeline_ != nullptr) {
    obs::ProbeEvent e;
    e.t = t.start;
    e.kind = obs::ProbeKind::kStorageTransfer;
    e.actor = static_cast<i32>(t.host);
    e.track = static_cast<i32>(t.mss);
    e.a = t.bytes;
    e.b = t.sub;
    e.value = now - t.start;
    timeline_->record(e);
  }
}

}  // namespace mobichk::storage
