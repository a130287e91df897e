// The barrier merge of the sharded engine.
//
// At every barrier the coordinator replays per-shard journals — trace
// records, send registrations, cross-shard legs, deliveries, data-plane
// operations, delivery latencies — in the order the sequential engine
// produced them. A shard executes its events in time order, so each
// journal is time-ordered by construction, and a k-way merge on
// (time, shard, index) restores the sequential order whenever the heads
// it compares differ in time. When two shards hold entries at the same
// time the lowest shard goes first: deterministic, but not necessarily
// the sequential order. The merge counts those picks, so a run reports
// how often the tie-break decided anything instead of assuming never.
#pragma once

#include <vector>

#include "des/types.hpp"

namespace mobichk::des {

/// Merges `n_shards` time-ordered journals in (time, shard, index) order.
/// `journal(s)` returns shard s's journal (any random-access container
/// with size()), `time_of(entry)` an entry's time, and `emit(s, entry)`
/// consumes the next entry in merged order; `emit` must not resize the
/// journals. Returns the number of picks whose time equalled another
/// shard's head time — the cross-shard ties the lowest-shard-first rule
/// broke. Shard counts are single digits, so a linear head scan per pick
/// beats a heap, and the heads live on the stack: a barrier runs several
/// merges and allocates for none of them.
template <typename JournalOf, typename TimeOf, typename Emit>
u64 merge_shard_journals(usize n_shards, JournalOf&& journal, TimeOf&& time_of, Emit&& emit) {
  constexpr usize kInlineShards = 16;
  usize inline_heads[kInlineShards] = {};
  std::vector<usize> spilled;
  usize* head = inline_heads;
  if (n_shards > kInlineShards) {
    spilled.assign(n_shards, 0);
    head = spilled.data();
  }
  u64 ties = 0;
  for (;;) {
    usize best = n_shards;
    Time best_time = 0.0;
    bool tied = false;
    for (usize s = 0; s < n_shards; ++s) {
      const auto& j = journal(s);
      if (head[s] >= j.size()) continue;
      const Time t = time_of(j[head[s]]);
      if (best == n_shards || t < best_time) {
        best = s;
        best_time = t;
        tied = false;
      } else if (t == best_time) {
        tied = true;
      }
    }
    if (best == n_shards) return ties;
    if (tied) ++ties;
    emit(best, journal(best)[head[best]++]);
  }
}

}  // namespace mobichk::des
