// Application-message representation, including the protocol piggyback.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <vector>

#include "des/types.hpp"
#include "net/ids.hpp"

namespace mobichk::net {

/// Bytes a LEB128 varint needs for `v`. Wire-byte accounting charges what
/// a value costs in this encoding, and varints are what a real encoder
/// would use for the small gaps and counters that dominate delta entries.
constexpr usize varint_bytes(u64 v) noexcept {
  usize n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Writes `v` as a LEB128 varint at `out`; returns the byte after it.
inline u8* put_varint(u8* out, u32 v) noexcept {
  while (v >= 0x80) {
    *out++ = static_cast<u8>(v | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<u8>(v);
  return out;
}

/// Reads one LEB128 varint written by put_varint at `in` into `v`;
/// returns the byte after it.
inline const u8* get_varint(const u8* in, u32& v) noexcept {
  u32 x = *in++;
  if (x < 0x80) {
    v = x;
    return in;
  }
  x &= 0x7f;
  for (unsigned shift = 7;; shift += 7) {
    const u32 b = *in++;
    x |= (b & 0x7f) << shift;
    if (b < 0x80) break;
  }
  v = x;
  return in;
}

/// One dependency entry: what a TP piggyback or checkpoint snapshot holds
/// of host `host`. Hosts absent from a list mean "no dependency" (ckpt 0,
/// the initial checkpoint) and "location never learned" (MSS 0), the zero
/// entries of the paper's full CKPT[]/LOC[] vectors.
struct DepEntry {
  u32 host = 0;
  u32 ckpt = 0;  ///< CKPT[host]: minimal checkpoint ordinal of `host` required.
  u32 loc = 0;   ///< LOC[host]: last-known MSS of `host` (retrieval metadata).
};

/// Most bytes one encoded entry takes: three five-byte u32 varints.
inline constexpr usize kDepEntryMaxBytes = 15;

/// Encoder for a dependency list, the one format TP both stores and
/// prices: entries in strictly ascending host order, each written as
/// gap(host), ckpt, loc LEB128 varints, where the gap is the host id
/// minus the previous entry's (the first entry's gap is its host id).
/// The caller provides the room, at most kDepEntryMaxBytes per entry.
class DepWriter {
 public:
  explicit DepWriter(u8* out) noexcept : begin_(out), out_(out) {}

  void put(u32 host, u32 ckpt, u32 loc) noexcept {
    assert((count_ == 0 || host > prev_) && "a dependency list is strictly ascending by host");
    out_ = put_varint(out_, host - prev_);
    out_ = put_varint(out_, ckpt);
    out_ = put_varint(out_, loc);
    prev_ = host;
    ++count_;
  }

  /// Appends `count` entries another DepWriter encoded, `size` bytes at
  /// `bytes`, as they are: their first gap must be relative to this
  /// writer's last host, and `last` is the host of their final entry.
  void append(const u8* bytes, usize size, u32 count, u32 last) noexcept {
    if (count == 0) return;
    assert((count_ == 0 || last > prev_) && "a dependency list is strictly ascending by host");
    std::memcpy(out_, bytes, size);
    out_ += size;
    prev_ = last;
    count_ += count;
  }

  /// The bytes written so far, `size()` of them.
  const u8* data() const noexcept { return begin_; }
  usize size() const noexcept { return static_cast<usize>(out_ - begin_); }
  /// Entries written so far.
  u32 count() const noexcept { return count_; }

 private:
  u8* begin_;
  u8* out_;
  u32 prev_ = 0;
  u32 count_ = 0;
};

/// Forward decoder over `count` entries a DepWriter wrote at `in`.
class DepReader {
 public:
  DepReader(const u8* in, u32 count) noexcept : in_(in), left_(count) {}

  bool done() const noexcept { return left_ == 0; }

  /// The next entry; only while !done().
  DepEntry next() noexcept {
    DepEntry e;
    u32 gap = 0;
    in_ = get_varint(in_, gap);
    in_ = get_varint(in_, e.ckpt);
    in_ = get_varint(in_, e.loc);
    host_ += gap;
    e.host = host_;
    --left_;
    return e;
  }

  /// The byte after the entries read so far.
  const u8* pos() const noexcept { return in_; }

 private:
  const u8* in_;
  u32 left_;
  u32 host_ = 0;
};

/// Encodes `list` (strictly ascending by host) into exactly sized bytes,
/// for callers that build a list by hand.
inline std::vector<u8> encode_deps(const std::vector<DepEntry>& list) {
  std::vector<u8> buf(list.size() * kDepEntryMaxBytes);
  DepWriter w(buf.data());
  for (const DepEntry& e : list) w.put(e.host, e.ckpt, e.loc);
  return {buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(w.size())};
}

/// Protocol control information piggybacked on an application message.
///
/// This is a generic container covering the needs of every protocol in the
/// suite: index-based protocols use `sn` only; the two-phase protocol (TP)
/// carries a delta: only the CKPT[]/LOC[] entries that changed since the
/// previous message to the same destination, DepWriter-encoded. The bytes
/// it holds are the bytes it is charged for. `wire_bytes()` reports how
/// much control data the message actually carries, which feeds the
/// channel-overhead accounting the paper's section 2.2 motivates;
/// `dense_bytes()` reports what the paper's two full n-vectors would cost.
struct Piggyback {
  u64 sn = 0;               ///< Index-based protocols: sender's sequence number.
  std::vector<u8> delta;    ///< TP: entries changed since last msg to dst, encoded.
  u32 delta_count = 0;      ///< TP: entries in `delta`.
  u32 delta_seq = 0;        ///< TP: per-(src,dst) sequence for gap detection.
  u32 dense_rank = 0;       ///< TP: 2 * n_hosts, the dense-equivalent entry count.
  bool has_sn = false;      ///< Whether `sn` is meaningful (affects wire size).
  bool has_delta = false;   ///< Whether the TP delta is carried.

  /// The delta's entries, in host order.
  DepReader delta_reader() const noexcept { return {delta.data(), delta_count}; }

  /// Encoded cost of the delta alone: seq + count + the encoded entries.
  /// A real encoder keeps a one-bit escape to fall back to the dense
  /// layout when deltas would be larger (first contact, or pathological
  /// value growth), so the delta cost is capped at the dense-equivalent
  /// size — `encoded <= dense` holds unconditionally.
  usize delta_encoded_bytes() const noexcept {
    const usize bytes = varint_bytes(delta_seq) + varint_bytes(delta_count) + delta.size();
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
  /// without a delta; for TP's it is the overhead the paper's
  /// original TP would have paid, kept for apples-to-apples figure
  /// comparisons.
  usize dense_bytes() const noexcept {
    usize bytes = 0;
    if (has_sn) bytes += sizeof(u64);
    if (has_delta) bytes += static_cast<usize>(dense_rank) * sizeof(u32);
    return bytes;
  }
};

/// An application message in flight or in a mailbox: the one record of
/// itself from send to receive.
///
/// Every protocol slot's piggyback rides the message in `pbs`. Slot 0's
/// is the one charged on the wire: the network reads its `sn` and its
/// encoded and dense-equivalent sizes there, and a message with no
/// piggyback carries no control information. The receive handler reads
/// the piggybacks back off the message, and the delivery record takes
/// `id`, `src`, `dst`, `send_pos` and slot 0's `sn` from it.
struct AppMessage {
  u64 id = 0;               ///< Globally unique message id (a sharded window-time send
                            ///< gets it at the next barrier).
  HostId src = 0;
  HostId dst = 0;
  u32 payload_bytes = 0;    ///< Application payload size (excl. piggyback).
  des::Time sent_at = 0.0;
  u64 send_pos = 0;         ///< Position the send event took at the sender.
  /// One piggyback per protocol slot, by value: the receiver reads its
  /// control information here, whatever shard or duplicate copy it gets.
  std::vector<Piggyback> pbs;

  /// Slot 0's piggyback, the one on the wire; null when there is none.
  const Piggyback* wire_pb() const noexcept { return pbs.empty() ? nullptr : pbs.data(); }

  usize wire_bytes() const noexcept {
    return payload_bytes + (pbs.empty() ? 0 : pbs[0].wire_bytes());
  }
};

}  // namespace mobichk::net
