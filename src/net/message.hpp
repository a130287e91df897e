// Application-message representation, including the protocol piggyback.
#pragma once

#include <algorithm>
#include <vector>

#include "des/types.hpp"
#include "net/ids.hpp"

namespace mobichk::net {

/// Bytes a LEB128 varint needs for `v`. The delta piggyback encoding is
/// modelled (not serialized): wire-byte accounting charges what the value
/// would cost on the wire, and varints are what a real encoder would use
/// for the small gaps and counters that dominate delta entries.
constexpr usize varint_bytes(u64 v) noexcept {
  usize n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// One delta piggyback entry: host `idx`'s checkpoint-interval requirement
/// and last-known location, shipped only when they changed since the last
/// message on this (src, dst) pair.
struct PbDelta {
  u32 idx = 0;   ///< Dense host id the entry describes.
  u32 ckpt = 0;  ///< CKPT[idx]: required checkpoint interval.
  u32 loc = 0;   ///< LOC[idx]: last-known MSS of idx.
};

/// Protocol control information piggybacked on an application message.
///
/// This is a generic container covering the needs of every protocol in the
/// suite: index-based protocols use `sn` only; the two-phase protocol (TP)
/// uses a delta list carrying only the CKPT[]/LOC[] entries that changed
/// since the previous message to the same destination. `wire_bytes()`
/// reports how much control data the message actually carries, which feeds
/// the channel-overhead accounting the paper's section 2.2 motivates;
/// `dense_bytes()` reports what the paper's two full n-vectors would cost.
struct Piggyback {
  u64 sn = 0;                   ///< Index-based protocols: sender's sequence number.
  std::vector<PbDelta> deltas;  ///< TP: entries changed since last msg to dst.
  u32 delta_seq = 0;            ///< TP: per-(src,dst) sequence for gap detection.
  u32 dense_rank = 0;           ///< TP: 2 * n_hosts, the dense-equivalent entry count.
  bool has_sn = false;          ///< Whether `sn` is meaningful (affects wire size).
  bool has_delta = false;       ///< Whether the TP delta list is carried.

  /// Encoded cost of the delta list alone: seq + count + gap-coded indices
  /// + varint values. A real encoder keeps a one-bit escape to fall back
  /// to the dense layout when deltas would be larger (first contact, or
  /// pathological value growth), so the delta cost is capped at the
  /// dense-equivalent size — `encoded <= dense` holds unconditionally.
  usize delta_encoded_bytes() const noexcept {
    usize bytes = varint_bytes(delta_seq) + varint_bytes(deltas.size());
    u32 prev = 0;
    for (const PbDelta& d : deltas) {
      bytes += varint_bytes(d.idx - prev) + varint_bytes(d.ckpt) + varint_bytes(d.loc);
      prev = d.idx;
    }
    return std::min(bytes, static_cast<usize>(dense_rank) * sizeof(u32));
  }

  /// Bytes of control information this piggyback adds on the wire.
  usize wire_bytes() const noexcept {
    usize bytes = 0;
    if (has_sn) bytes += sizeof(u64);
    if (has_delta) bytes += delta_encoded_bytes();
    return bytes;
  }

  /// Bytes the same control information would cost with the dense layout
  /// (full CKPT[]/LOC[] vectors). Equals wire_bytes() for piggybacks
  /// without a delta list; for TP's it is the overhead the paper's
  /// original TP would have paid, kept for apples-to-apples figure
  /// comparisons.
  usize dense_bytes() const noexcept {
    usize bytes = 0;
    if (has_sn) bytes += sizeof(u64);
    if (has_delta) bytes += static_cast<usize>(dense_rank) * sizeof(u32);
    return bytes;
  }
};

/// An application message in flight or in a mailbox.
///
/// The message carries what the network reads of the piggyback on the
/// wire — slot 0's `sn` and its encoded and dense-equivalent sizes — not
/// the piggyback itself. The send handler sets those fields; the protocols'
/// control information stays with the handler (parked between send and
/// receive) except in sharded runs, where it rides in `pbs`.
struct AppMessage {
  u64 id = 0;               ///< Globally unique message id.
  HostId src = 0;
  HostId dst = 0;
  u32 payload_bytes = 0;    ///< Application payload size (excl. piggyback).
  bool has_sn = false;      ///< Whether the piggyback carries `sn`.
  des::Time sent_at = 0.0;
  u64 send_pos = 0;         ///< Sender's event position at send (consistency oracle).
  u64 sn = 0;               ///< Piggybacked sequence number (index-based protocols).
  u64 pb_bytes = 0;         ///< Piggyback bytes on the wire (Piggyback::wire_bytes).
  u64 pb_dense_bytes = 0;   ///< Dense-equivalent piggyback bytes (Piggyback::dense_bytes).
  /// Sharded runs only: every protocol slot's piggyback travels by value
  /// with the message (sender and receiver may live on different shards,
  /// so the harness cannot park them in a shared pool). Sequential runs
  /// leave this empty and use the pooled parking path.
  std::vector<Piggyback> pbs;

  usize wire_bytes() const noexcept { return payload_bytes + pb_bytes; }
};

}  // namespace mobichk::net
