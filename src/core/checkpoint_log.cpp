#include "core/checkpoint_log.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "des/lane.hpp"
#include "storage/data_plane.hpp"

namespace mobichk::core {

const CheckpointRecord& CheckpointLog::append(CheckpointRecord rec) {
  auto& vec = per_host_.at(rec.host);
  rec.ordinal = vec.size();
  assert((vec.empty() || vec.back().sn <= rec.sn) && "per-host sn must be non-decreasing");
  assert((vec.empty() || vec.back().event_pos <= rec.event_pos) && "event_pos must be non-decreasing");
  ++total_;
  switch (rec.kind) {
    case CheckpointKind::kInitial: ++initial_; break;
    case CheckpointKind::kBasic: ++basic_; break;
    case CheckpointKind::kForced: ++forced_; break;
  }
  vec.push_back(std::move(rec));
  return vec.back();
}

const u8* CheckpointLog::DepArena::store(const u8* bytes, usize n) {
  if (n == 0) return nullptr;
  u8* at = nullptr;
  if (n > kBlockBytes) {
    // Its own block; the open one keeps its free space.
    blocks_.push_back(std::make_unique_for_overwrite<u8[]>(n));
    at = blocks_.back().get();
  } else {
    if (n > left_) {
      blocks_.push_back(std::make_unique_for_overwrite<u8[]>(kBlockBytes));
      next_ = blocks_.back().get();
      left_ = kBlockBytes;
    }
    at = next_;
    next_ += n;
    left_ -= n;
  }
  std::memcpy(at, bytes, n);
  return at;
}

const u8* CheckpointLog::store_deps(const u8* bytes, usize n) {
  const u32 lane = des::lane();
  assert(lane < arenas_.size() && "a shard window stores into a log sized for it");
  return arenas_[lane].store(bytes, n);
}

const CheckpointRecord* CheckpointLog::by_ordinal(net::HostId host, u64 ordinal) const {
  const auto& vec = per_host_.at(host);
  return ordinal < vec.size() ? &vec[ordinal] : nullptr;
}

const CheckpointRecord* CheckpointLog::first_with_sn_at_least(net::HostId host, u64 sn) const {
  const auto& vec = per_host_.at(host);
  const auto it = std::lower_bound(vec.begin(), vec.end(), sn,
                                   [](const CheckpointRecord& r, u64 s) { return r.sn < s; });
  return it == vec.end() ? nullptr : &*it;
}

const CheckpointRecord* CheckpointLog::last_with_sn(net::HostId host, u64 sn) const {
  const auto& vec = per_host_.at(host);
  const auto it = std::upper_bound(vec.begin(), vec.end(), sn,
                                   [](u64 s, const CheckpointRecord& r) { return s < r.sn; });
  if (it == vec.begin()) return nullptr;
  const CheckpointRecord* prev = &*(it - 1);
  return prev->sn == sn ? prev : nullptr;
}

const CheckpointRecord* CheckpointLog::last_at_or_before_pos(net::HostId host, u64 pos) const {
  const auto& vec = per_host_.at(host);
  const auto it =
      std::upper_bound(vec.begin(), vec.end(), pos,
                       [](u64 p, const CheckpointRecord& r) { return p < r.event_pos; });
  return it == vec.begin() ? nullptr : &*(it - 1);
}

void CheckpointLog::promote_sn(net::HostId host, u64 new_sn) {
  auto& vec = per_host_.at(host);
  assert(!vec.empty() && "promote_sn on host without checkpoints");
  assert(vec.back().sn <= new_sn && "promote_sn must not decrease sn");
  vec.back().sn = new_sn;
}

u64 CheckpointLog::max_sn(net::HostId host) const {
  const auto& vec = per_host_.at(host);
  return vec.empty() ? 0 : vec.back().sn;
}

u64 CheckpointLog::max_sn() const {
  u64 m = 0;
  for (net::HostId h = 0; h < n_hosts(); ++h) m = std::max(m, max_sn(h));
  return m;
}

u64 upload_bytes(const CheckpointRecord* prev, const CheckpointRecord& rec,
                 const storage::DataPlaneConfig& sizing) {
  if (prev == nullptr || !sizing.incremental) return sizing.full_state_bytes;
  return storage::dirtied_bytes(sizing.full_state_bytes, sizing.dirty_rate, rec.time - prev->time);
}

StorageTraffic storage_traffic(const CheckpointLog& log, const storage::DataPlaneConfig& sizing) {
  StorageTraffic traffic;
  for (net::HostId h = 0; h < log.n_hosts(); ++h) {
    const CheckpointRecord* prev = nullptr;
    for (const CheckpointRecord& rec : log.of(h)) {
      traffic.wireless_bytes += upload_bytes(prev, rec, sizing);
      if (sizing.incremental && prev != nullptr && prev->location != rec.location) {
        traffic.wired_bytes += sizing.full_state_bytes;
        ++traffic.transfers;
      }
      prev = &rec;
    }
  }
  return traffic;
}

}  // namespace mobichk::core
