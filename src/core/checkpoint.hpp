// Checkpoint records: what a protocol writes to stable storage.
#pragma once

#include "des/types.hpp"
#include "net/ids.hpp"
#include "net/message.hpp"

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

/// One local checkpoint C_{i,x}. The fields run from 8-byte to 1-byte
/// ones, so the record packs into 64 bytes on LP64: a run keeps every
/// record until it ends.
struct CheckpointRecord {
  u64 ordinal = 0;       ///< Per-host creation order (0-based, includes initial).
  u64 sn = 0;            ///< Protocol index: sequence number (BCS/QBC), checkpoint
                         ///< count (TP), snapshot round (coordinated), = ordinal otherwise.
  des::Time time = 0.0;
  u64 event_pos = 0;     ///< Host events with position <= event_pos precede it.
  /// TP: the transitive dependencies recorded with the checkpoint, only
  /// the entries actually depended on: `dep_count` entries in the
  /// DepWriter encoding (net/message.hpp) at `dep_bytes`, which the
  /// CheckpointLog's snapshot arena owns (or, for a record built outside a
  /// log, its builder). `dep_rank` is the logical vector length (n_hosts).
  const u8* dep_bytes = nullptr;
  net::HostId host = 0;
  net::MssId location = 0;  ///< MSS whose stable storage holds it.
  u32 dep_count = 0;
  u32 dep_rank = 0;
  CheckpointKind kind = CheckpointKind::kInitial;
  bool replaced_predecessor = false;  ///< QBC equivalence rule fired (same sn as predecessor).

  /// True when the record carries TP dependency information. Readers must
  /// go through `deps()` or the `dep_*_at` accessors.
  bool has_deps() const noexcept { return dep_rank > 0; }

  /// Logical length of the dependency vectors (n_hosts at record time).
  u32 deps_rank() const noexcept { return dep_rank; }

  /// The recorded entries, in host order.
  net::DepReader deps() const noexcept { return {dep_bytes, dep_count}; }

  /// CKPT[j] / LOC[j], decoded linearly. Absent entries read as 0, the
  /// no-dependency default.
  u32 dep_ckpt_at(u32 j) const noexcept { return dep_at(j).ckpt; }
  u32 dep_loc_at(u32 j) const noexcept { return dep_at(j).loc; }

 private:
  net::DepEntry dep_at(u32 j) const noexcept {
    for (net::DepReader in = deps(); !in.done();) {
      const net::DepEntry e = in.next();
      if (e.host >= j) return e.host == j ? e : net::DepEntry{};
    }
    return {};
  }
};

}  // namespace mobichk::core
