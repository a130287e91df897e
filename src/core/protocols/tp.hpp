// TP: the two-phase-based protocol of Acharya & Badrinath (an adaptation
// of Russell's protocol to mobile systems). Paper §4.1.
//
// Rule: each host owns a boolean phase; sending sets phase := SEND; a
// receive while phase == SEND forces a checkpoint (and resets the phase).
// Every checkpoint interval therefore contains all its receives before
// all its sends, which is what makes the dependency-vector recovery line
// consistent (Russell 1980).
//
// Control information: two vectors of n integers ride on every message —
// CKPT[] (transitive dependency on checkpoint intervals) and LOC[]
// (transitive dependency on MH locations, for efficient retrieval over
// the wired network). This is why TP does not scale in the number of
// hosts, the paper's point (3).
//
// Encoding: each message ships a per-destination delta — only the entries
// that changed since the previous message on the same (src, dst) pair,
// plus the sender's own entry — over per-host sorted entry lists whose
// memory is proportional to the dependencies that actually formed. The
// paper-literal cost of the two full vectors is still counted per message
// (Piggyback::dense_bytes, piggyback_dense_bytes in the run stats); the
// full-vector protocol is the test oracle in tests/core/dense_tp_oracle.hpp.
// Deltas are exact under per-pair FIFO delivery; out-of-order delivery
// (chase-forwarded messages during a handoff) can leave the receiver's
// view transiently *under* the full vectors until the stragglers arrive.
// Such gaps are detected via a per-pair sequence number and surfaced
// through delta_reorders(). The phase rule never reads the vectors, so
// forced checkpoints — and the event trace — do not depend on them.
//
// Storage: the entries a message or a checkpoint carries are stored in
// the encoding they are charged for (net::DepWriter: gap-coded host,
// ckpt, loc as LEB128 varints), so a piggyback's delta is an exact-size
// byte vector and a checkpoint snapshot is bytes in the log's arena. A
// host's live list is one byte buffer in the same codec: a header of
// three varints (the entry count, the bytes the entries take, the
// highest host held), the held entries in ascending host order without
// the own entry, then one LEB128 version stamp per entry in the same
// order. An empty list is an empty buffer. Versions are 32-bit; a host whose
// version counter would pass 2^32-1 is a std::overflow_error, never a
// silently short delta.
//
// Cost model, for a sender holding m entries and a delta of k: a
// checkpoint, and a delta that ships every held entry (a pair's first
// message while no held entry is at version 0), copies the list's bytes
// around the own entry, O(m) bytes moved and the entries below the own
// host skipped over; a delta past the host's version counter is the own
// entry alone; any other delta decodes the entries and their versions
// side by side and re-encodes those changed since the pair's last
// message, O(m). Either way the bytes go to a per-thread buffer and the
// k encoded entries are copied out exactly. A receive patches
// the list in place while the delta adds no host and every raise keeps
// the byte lengths of its ckpt, loc and version varints; otherwise it
// keeps the bytes before the first change, decodes, merges and
// re-encodes the rest into per-thread scratch in one forward pass,
// O(m + k), and copies the result back, growing the buffer by half when
// it does not fit.
#pragma once

#include <vector>

#include "core/protocol.hpp"
#include "des/relaxed_counter.hpp"

namespace mobichk::core {

class TpProtocol final : public CheckpointProtocol {
 public:
  const char* name() const noexcept override { return "TP"; }

  void host_init(const net::MobileHost& host) override;
  net::Piggyback make_piggyback(const net::MobileHost& host, net::HostId dst) override;
  void handle_receive(const net::MobileHost& host, const net::AppMessage& msg,
                      const net::Piggyback& pb) override;
  void handle_cell_switch(const net::MobileHost& host, net::MssId from, net::MssId to) override;
  void handle_disconnect(const net::MobileHost& host) override;

  /// Test access: true when the host's phase is SEND.
  bool phase_is_send(net::HostId host) const { return phase_send_.at(host) != 0; }
  /// Test access: materialised requirement vector (CKPT[], own entry 0).
  std::vector<u32> requirement_vector(net::HostId host) const;
  /// Test access: materialised location vector (LOC[]).
  std::vector<u32> location_vector(net::HostId host) const;
  /// Test access: sets the host's version counter (drives it to the wrap).
  void set_version(net::HostId host, u32 version) { version_.at(host) = version; }
  /// Deliveries whose per-pair delta sequence arrived out of order (each
  /// one may leave a transient dependency under-estimate).
  u64 delta_reorders() const noexcept { return delta_reorders_; }
  /// Bytes the live-list buffers hold (their capacities).
  u64 live_list_bytes() const noexcept;
  /// Entries the live lists hold, over all hosts.
  u64 live_entries() const noexcept;

 protected:
  void do_bind() override;

 private:
  /// Sender-side cursor: what dst has already been shipped.
  struct SendCursor {
    u32 dst = 0;
    u32 next_seq = 0;
    u32 last_ver = 0;
  };
  /// Receiver-side cursor: next expected per-pair sequence.
  struct RecvCursor {
    u32 src = 0;
    u32 expect = 0;
  };

  void basic_checkpoint(const net::MobileHost& host);
  /// Encodes `host`'s entries whose version is at least `min_ver`, and its
  /// own entry, in host order, into the calling thread's scratch buffer.
  net::DepWriter encode_entries(const net::MobileHost& host, u64 min_ver) const;
  /// Receive: raises host `me`'s entries to a sorted delta.
  void merge_delta(net::HostId me, const net::Piggyback& pb);
  /// The rest of a receive that cannot patch `me`'s list in place: keeps
  /// the `passed` held entries before the byte `rest` (the last of them
  /// host `prev`) and their versions before `rest_vers`, merges the held
  /// entries from `rest` on with the delta entries `in` still reads, and
  /// writes the list back.
  void rebuild(net::HostId me, const u8* rest, const u8* rest_vers, u32 passed, u32 prev,
               net::DepReader in, u32 delta_count);
  /// Host `me`'s next version stamp; throws std::overflow_error on a wrap.
  u32 next_version(net::HostId me);
  void checkpoint(const net::MobileHost& host, CheckpointKind kind, net::MsgId trigger = 0);

  SendCursor& send_cursor(net::HostId src, net::HostId dst);
  RecvCursor& recv_cursor(net::HostId dst, net::HostId src);

  // SoA host state (index = dense host id).
  std::vector<u8> phase_send_;                     ///< init: RECV (0).
  std::vector<u64> ckpt_count_;                    ///< Checkpoints taken (= next ordinal).
  std::vector<u32> self_loc_;                      ///< Own MSS at last checkpoint.
  std::vector<std::vector<u8>> lists_;             ///< Per-host live list (see Storage).
  std::vector<u32> version_;                       ///< Per-host change counter.
  std::vector<std::vector<SendCursor>> send_cur_;  ///< Per-host, sorted by dst.
  std::vector<std::vector<RecvCursor>> recv_cur_;  ///< Per-host, sorted by src.
  // Relaxed atomic: a rare cross-shard bump (only on an out-of-order
  // per-pair delta, which owner-local receives make owner-local anyway).
  des::RelaxedCounter delta_reorders_;
};

}  // namespace mobichk::core
