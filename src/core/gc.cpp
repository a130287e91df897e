#include "core/gc.hpp"

#include <algorithm>
#include <stdexcept>

namespace mobichk::core {

u64 GcAnalysis::total_collectible() const noexcept {
  u64 total = 0;
  for (const u64 c : collectible_per_host) total += c;
  return total;
}

u64 GcAnalysis::total_retained(const CheckpointLog& log) const {
  return log.total() - total_collectible();
}

namespace {

/// The stable index over a prefix: the largest M every host has reached.
u64 stable_index_of(const std::vector<u64>& max_sn_per_host) {
  u64 stable = ~0ULL;
  for (const u64 m : max_sn_per_host) stable = std::min(stable, m);
  return stable;
}

/// Ordinal of the line member for `host` at `index` within the prefix of
/// its first `prefix` checkpoints.
u64 member_ordinal(const CheckpointLog& log, net::HostId host, u64 prefix, u64 index,
                   IndexLineRule rule) {
  const auto& records = log.of(host);
  const auto begin = records.begin();
  const auto end = begin + static_cast<std::ptrdiff_t>(prefix);
  if (rule == IndexLineRule::kLastEqual) {
    const auto it = std::upper_bound(begin, end, index,
                                     [](u64 s, const CheckpointRecord& r) { return s < r.sn; });
    if (it != begin && (it - 1)->sn == index) return (it - 1)->ordinal;
  }
  const auto it = std::lower_bound(begin, end, index,
                                   [](const CheckpointRecord& r, u64 s) { return r.sn < s; });
  if (it == end) {
    throw std::logic_error("gc: stable index has no member in prefix");
  }
  return it->ordinal;
}

}  // namespace

GcAnalysis analyze_gc(const CheckpointLog& log, IndexLineRule rule, u32 n_mss) {
  const u32 n = log.n_hosts();
  GcAnalysis out;
  out.collectible_per_host.assign(n, 0);
  out.collectible_per_mss.assign(n_mss, 0);

  std::vector<u64> max_sn(n);
  for (net::HostId h = 0; h < n; ++h) {
    if (log.count(h) == 0) throw std::invalid_argument("analyze_gc: host without checkpoints");
    max_sn[h] = log.max_sn(h);
  }
  out.stable_index = stable_index_of(max_sn);

  out.stable_line.index = out.stable_index;
  out.stable_line.pos.resize(n);
  out.stable_line.members.resize(n, nullptr);
  for (net::HostId h = 0; h < n; ++h) {
    const u64 ordinal = member_ordinal(log, h, log.count(h), out.stable_index, rule);
    const CheckpointRecord* member = log.by_ordinal(h, ordinal);
    out.stable_line.members[h] = member;
    out.stable_line.pos[h] = member->event_pos;
    out.collectible_per_host[h] = ordinal;  // everything strictly older
    for (u64 x = 0; x < ordinal; ++x) {
      out.collectible_per_mss.at(log.by_ordinal(h, x)->location) += 1;
    }
  }
  return out;
}

u64 gc_reclaimable_bytes(const GcAnalysis& gc, const CheckpointLog& log,
                         const storage::DataPlaneConfig& sizing) {
  u64 bytes = 0;
  for (net::HostId h = 0; h < gc.collectible_per_host.size(); ++h) {
    const auto& records = log.of(h);
    for (u64 x = 0; x < gc.collectible_per_host[h]; ++x) {
      bytes += upload_bytes(x == 0 ? nullptr : &records.at(x - 1), records.at(x), sizing);
    }
  }
  return bytes;
}

std::vector<OccupancySample> gc_occupancy_timeline(const CheckpointLog& log, IndexLineRule rule,
                                                   des::Time horizon, usize samples) {
  if (samples == 0) return {};
  const u32 n = log.n_hosts();
  std::vector<OccupancySample> out;
  out.reserve(samples);
  for (usize s = 1; s <= samples; ++s) {
    const des::Time t = horizon * static_cast<f64>(s) / static_cast<f64>(samples);
    OccupancySample sample;
    sample.time = t;
    // Prefix sizes per host at time t (records are time-ordered).
    std::vector<u64> prefix(n);
    std::vector<u64> max_sn(n, 0);
    bool all_have_checkpoints = true;
    for (net::HostId h = 0; h < n; ++h) {
      const auto& records = log.of(h);
      const auto it = std::upper_bound(records.begin(), records.end(), t,
                                       [](des::Time tt, const CheckpointRecord& r) {
                                         return tt < r.time;
                                       });
      prefix[h] = static_cast<u64>(it - records.begin());
      sample.live_without_gc += prefix[h];
      if (prefix[h] == 0) {
        all_have_checkpoints = false;
      } else {
        max_sn[h] = records[prefix[h] - 1].sn;
      }
    }
    if (!all_have_checkpoints) {
      sample.live_with_gc = sample.live_without_gc;
    } else {
      const u64 stable = stable_index_of(max_sn);
      for (net::HostId h = 0; h < n; ++h) {
        const u64 member = member_ordinal(log, h, prefix[h], stable, rule);
        sample.live_with_gc += prefix[h] - member;  // member and newer survive
      }
    }
    out.push_back(sample);
  }
  return out;
}

}  // namespace mobichk::core
