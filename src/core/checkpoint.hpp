// Checkpoint records: what a protocol writes to stable storage.
#pragma once

#include <vector>

#include "des/types.hpp"
#include "net/ids.hpp"

namespace mobichk::core {

/// Why a checkpoint was taken.
enum class CheckpointKind : u8 {
  kInitial,  ///< The mandatory checkpoint at computation start.
  kBasic,    ///< Mandated by mobility: cell switch or voluntary disconnection.
  kForced,   ///< Induced by the protocol (communication pattern or marker).
};

/// Returns a stable display name for a kind.
constexpr const char* checkpoint_kind_name(CheckpointKind kind) noexcept {
  switch (kind) {
    case CheckpointKind::kInitial: return "initial";
    case CheckpointKind::kBasic: return "basic";
    case CheckpointKind::kForced: return "forced";
  }
  return "?";
}

/// One dependency entry: what a TP checkpoint requires of `host`. Entries
/// absent from a record mean "no dependency" (ckpt 0, the initial
/// checkpoint) and "location never learned" (MSS 0), the zero entries of
/// the paper's full CKPT[]/LOC[] vectors.
struct DepEntry {
  u32 host = 0;
  u32 ckpt = 0;  ///< Minimal checkpoint ordinal of `host` the line requires.
  u32 loc = 0;   ///< Last-known MSS of `host` (retrieval metadata).
};

/// One local checkpoint C_{i,x}.
struct CheckpointRecord {
  net::HostId host = 0;
  u64 ordinal = 0;       ///< Per-host creation order (0-based, includes initial).
  u64 sn = 0;            ///< Protocol index: sequence number (BCS/QBC), checkpoint
                         ///< count (TP), snapshot round (coordinated), = ordinal otherwise.
  CheckpointKind kind = CheckpointKind::kInitial;
  des::Time time = 0.0;
  net::MssId location = 0;  ///< MSS whose stable storage holds it.
  u64 event_pos = 0;        ///< Host events with position <= event_pos precede it.
  bool replaced_predecessor = false;  ///< QBC equivalence rule fired (same sn as predecessor).

  /// TP: the transitive dependencies recorded with the checkpoint — only
  /// the entries actually depended on, sorted by host; `dep_rank` is the
  /// logical vector length (n_hosts).
  std::vector<DepEntry> sparse_deps;
  u32 dep_rank = 0;

  /// True when the record carries TP dependency information. Readers must
  /// go through the `dep_*_at` accessors.
  bool has_deps() const noexcept { return dep_rank > 0; }

  /// Logical length of the dependency vectors (n_hosts at record time).
  u32 deps_rank() const noexcept { return dep_rank; }

  /// CKPT[j] / LOC[j]. Absent entries read as 0, the no-dependency default.
  u32 dep_ckpt_at(u32 j) const noexcept {
    const DepEntry* e = find_sparse(j);
    return e != nullptr ? e->ckpt : 0;
  }
  u32 dep_loc_at(u32 j) const noexcept {
    const DepEntry* e = find_sparse(j);
    return e != nullptr ? e->loc : 0;
  }

 private:
  const DepEntry* find_sparse(u32 j) const noexcept {
    usize lo = 0, hi = sparse_deps.size();
    while (lo < hi) {
      const usize mid = (lo + hi) / 2;
      if (sparse_deps[mid].host < j) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo < sparse_deps.size() && sparse_deps[lo].host == j ? &sparse_deps[lo] : nullptr;
  }
};

}  // namespace mobichk::core
