#include "core/protocols/tp.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace mobichk::core {

namespace {

/// Find-or-insert keyed lookup in a small sorted vector (flat map).
template <typename T, typename Key>
T& flat_map_get(std::vector<T>& v, Key T::* key, Key k) {
  const auto it = std::lower_bound(v.begin(), v.end(), k,
                                   [key](const T& e, Key x) { return e.*key < x; });
  if (it != v.end() && (*it).*key == k) return *it;
  T fresh{};
  fresh.*key = k;
  return *v.insert(it, fresh);
}

/// A live list's header, three LEB128 varints at the front of its
/// buffer (the entry count, the bytes the entries take, the highest host
/// held), decoded with the offsets they imply. An empty list is an empty
/// buffer.
struct ListHead {
  u32 count = 0;
  u32 last = 0;
  usize ents = 0;   ///< Offset of the first entry (the header's size).
  usize split = 0;  ///< Offset of the first version (the entries' end).
};

/// Most bytes a header takes.
constexpr usize kHeadMaxBytes = 15;
/// Most bytes a version stamp (a u32 LEB128 varint) takes.
constexpr usize kVersionMaxBytes = 5;

ListHead head_of(const std::vector<u8>& list) noexcept {
  ListHead head;
  if (list.empty()) return head;
  const u8* in = list.data();
  u32 ents_bytes = 0;
  in = net::get_varint(in, head.count);
  in = net::get_varint(in, ents_bytes);
  in = net::get_varint(in, head.last);
  head.ents = static_cast<usize>(in - list.data());
  head.split = head.ents + ents_bytes;
  return head;
}

/// The held entries of `list`, in host order.
net::DepReader held_entries(const std::vector<u8>& list) noexcept {
  const ListHead head = head_of(list);
  return {list.data() + head.ents, head.count};
}

/// The byte after the LEB128 varint at `in`.
const u8* skip_varint(const u8* in) noexcept {
  while (*in++ >= 0x80) {
  }
  return in;
}

/// Reads the held entry at `in` that follows host `prev` in its list;
/// returns the byte after it.
const u8* read_entry(const u8* in, u32 prev, net::DepEntry& e) noexcept {
  u32 gap = 0;
  in = net::get_varint(in, gap);
  e.host = prev + gap;
  in = net::get_varint(in, e.ckpt);
  return net::get_varint(in, e.loc);
}

/// The calling thread's encode buffer, with room for `entries` entries.
/// Per thread, not per protocol: shard workers send and checkpoint
/// concurrently.
u8* encode_scratch(usize entries) {
  thread_local std::vector<u8> buf;
  const usize need = entries * net::kDepEntryMaxBytes;
  if (buf.size() < need) buf.resize(need);
  return buf.data();
}

}  // namespace

void TpProtocol::do_bind() {
  phase_send_.assign(ctx_.n_hosts, 0);
  ckpt_count_.assign(ctx_.n_hosts, 0);
  self_loc_.assign(ctx_.n_hosts, 0);
  lists_.assign(ctx_.n_hosts, {});
  version_.assign(ctx_.n_hosts, 0);
  send_cur_.assign(ctx_.n_hosts, {});
  recv_cur_.assign(ctx_.n_hosts, {});
}

TpProtocol::SendCursor& TpProtocol::send_cursor(net::HostId src, net::HostId dst) {
  return flat_map_get(send_cur_[src], &SendCursor::dst, static_cast<u32>(dst));
}

TpProtocol::RecvCursor& TpProtocol::recv_cursor(net::HostId dst, net::HostId src) {
  return flat_map_get(recv_cur_[dst], &RecvCursor::src, static_cast<u32>(src));
}

void TpProtocol::host_init(const net::MobileHost& host) {
  self_loc_[host.id()] = host.mss();
  checkpoint(host, CheckpointKind::kInitial);
}

void TpProtocol::checkpoint(const net::MobileHost& host, CheckpointKind kind, net::MsgId trigger) {
  const net::HostId me = host.id();
  const obs::ForcedRule rule = kind == CheckpointKind::kForced
                                   ? obs::ForcedRule::kReceiveAfterSend
                                   : obs::ForcedRule::kNone;
  // The own location observable through location_vector() reflects the
  // MSS at the latest checkpoint.
  self_loc_[me] = host.mss();
  // Snapshot every held entry plus the own anchor.
  const net::DepWriter deps = encode_entries(host, 0);
  take_checkpoint(host, kind, ckpt_count_[me], deps.data(), deps.size(), deps.count(),
                  ctx_.n_hosts, rule, trigger);
  ++ckpt_count_[me];
  // A fresh interval has no sends yet; phase returns to RECV (Russell's
  // discipline: forced checkpoints are needed only for receives that
  // follow a send *within the same interval*).
  phase_send_[me] = 0;
}

net::DepWriter TpProtocol::encode_entries(const net::MobileHost& host, u64 min_ver) const {
  const net::HostId me = host.id();
  const u32 own_ckpt = static_cast<u32>(ckpt_count_[me]);
  const std::vector<u8>& list = lists_[me];
  const ListHead head = head_of(list);
  net::DepWriter w(encode_scratch(head.count + 1));
  // No entry's version is above the host's counter, so past it only the
  // own entry ships.
  if (head.count == 0 || min_ver > version_[me]) {
    w.put(me, own_ckpt, host.mss());
    return w;
  }
  const u8* const ents = list.data() + head.ents;
  const u8* const vers = list.data() + head.split;
  // A snapshot ships every held entry, and so does a delta from version 1
  // unless an entry is still at version 0 (held at ckpt 0; a canonical
  // LEB128 holds a zero byte only when its value is 0). Then the bytes
  // below and above the own entry are copied as they are, and only the
  // first entry above it is re-gapped.
  if (min_ver == 0 || (min_ver == 1 && std::memchr(vers, 0, list.size() - head.split) == nullptr)) {
    if (me > head.last) {
      w.append(ents, head.split - head.ents, head.count, head.last);
      w.put(me, own_ckpt, host.mss());
      return w;
    }
    const u8* above = ents;  // the first entry above the own host
    u32 below = 0;
    u32 prev = 0;
    for (u32 gap = 0;; ++below) {
      const u8* const fields = net::get_varint(above, gap);
      if (prev + gap > me) break;
      prev += gap;
      above = skip_varint(skip_varint(fields));
    }
    net::DepEntry e;
    const u8* const rest = read_entry(above, prev, e);
    w.append(ents, static_cast<usize>(above - ents), below, prev);
    w.put(me, own_ckpt, host.mss());
    w.put(e.host, e.ckpt, e.loc);
    w.append(rest, static_cast<usize>(vers - rest), head.count - below - 1, head.last);
    return w;
  }
  // Otherwise walk the entries and their versions side by side and keep
  // those changed since `min_ver`.
  const u8* p = ents;
  const u8* v = vers;
  net::DepEntry e;
  bool own_emitted = false;
  for (u32 i = 0; i < head.count; ++i) {
    u32 ver = 0;
    v = net::get_varint(v, ver);
    if (ver < min_ver) {
      u32 gap = 0;
      p = skip_varint(skip_varint(net::get_varint(p, gap)));
      e.host += gap;
      continue;
    }
    p = read_entry(p, e.host, e);
    if (!own_emitted && e.host > me) {
      w.put(me, own_ckpt, host.mss());
      own_emitted = true;
    }
    w.put(e.host, e.ckpt, e.loc);
  }
  if (!own_emitted) w.put(me, own_ckpt, host.mss());
  return w;
}

net::Piggyback TpProtocol::make_piggyback(const net::MobileHost& host, net::HostId dst) {
  const net::HostId me = host.id();
  net::Piggyback pb;
  SendCursor& sc = send_cursor(me, dst);
  pb.has_delta = true;
  pb.delta_seq = sc.next_seq++;
  pb.dense_rank = 2 * ctx_.n_hosts;
  // Entries changed since the last message to this destination, plus the
  // sender's own entry (always fresh: the receiver needs the sender's
  // current interval and location), copied out at their encoded size.
  const net::DepWriter delta = encode_entries(host, u64{sc.last_ver} + 1);
  pb.delta.assign(delta.data(), delta.data() + delta.size());
  pb.delta_count = delta.count();
  sc.last_ver = version_[me];
  phase_send_[me] = 1;
  return pb;
}

void TpProtocol::handle_receive(const net::MobileHost& host, const net::AppMessage& msg,
                                const net::Piggyback& pb) {
  const net::HostId me = host.id();
  // Per-pair gap detection must run even for messages that force a
  // checkpoint, so it happens before anything else.
  RecvCursor& rc = recv_cursor(me, msg.src);
  if (pb.delta_seq != rc.expect) ++delta_reorders_;
  rc.expect = pb.delta_seq + 1;
  if (phase_send_[me] != 0) {
    checkpoint(host, CheckpointKind::kForced, msg.id);
  }
  // Merge transitive dependencies after checkpointing, so the forced
  // checkpoint excludes this message.
  merge_delta(me, pb);
}

u32 TpProtocol::next_version(net::HostId me) {
  u32& v = version_[me];
  if (v == std::numeric_limits<u32>::max()) {
    throw std::overflow_error("TP: the version counter of host " + std::to_string(me) +
                              " would pass 2^32-1");
  }
  return ++v;
}

void TpProtocol::merge_delta(net::HostId me, const net::Piggyback& pb) {
  std::vector<u8>& list = lists_[me];
  const ListHead head = head_of(list);
  net::DepReader in = pb.delta_reader();
  if (head.count == 0) {
    rebuild(me, nullptr, nullptr, 0, 0, in, pb.delta_count);
    return;
  }
  // Both lists are sorted by host. Patch the held entries in place while
  // the delta names only held hosts and every raise keeps the byte
  // lengths of its ckpt, loc and version varints; at the first delta
  // entry that does not, hand the rest to rebuild().
  u8* const base = list.data();
  const u8* at = base + head.ents;  // the next held entry
  const u8* v = base + head.split;  // its version
  u32 passed = 0;                   // held entries before `at`
  u32 prev = 0;                     // the host of the last of them
  while (!in.done()) {
    const net::DepReader at_d = in;
    const net::DepEntry d = in.next();
    if (d.host == me) continue;
    if (d.host > head.last) {
      // New past every held host: all of them stay as they are.
      rebuild(me, base + head.split, base + list.size(), head.count, head.last, at_d,
              pb.delta_count);
      return;
    }
    // Pass the held entries below d.host, reading only their gaps.
    u32 gap = 0;
    const u8* ckpt_at = net::get_varint(at, gap);
    while (prev + gap < d.host) {
      prev += gap;
      at = skip_varint(skip_varint(ckpt_at));
      v = skip_varint(v);
      ++passed;
      ckpt_at = net::get_varint(at, gap);
    }
    if (prev + gap != d.host) {
      rebuild(me, at, v, passed, prev, at_d, pb.delta_count);  // a host new to `me`
      return;
    }
    u32 ckpt = 0;
    const u8* const loc_at = net::get_varint(ckpt_at, ckpt);
    const u8* const next = skip_varint(loc_at);
    const u8* const next_v = skip_varint(v);
    if (d.ckpt > ckpt) {
      if (net::varint_bytes(d.ckpt) != static_cast<usize>(loc_at - ckpt_at) ||
          net::varint_bytes(d.loc) != static_cast<usize>(next - loc_at) ||
          net::varint_bytes(u64{version_[me]} + 1) != static_cast<usize>(next_v - v)) {
        rebuild(me, at, v, passed, prev, at_d, pb.delta_count);
        return;
      }
      const u32 ver = next_version(me);
      net::put_varint(base + (ckpt_at - base), d.ckpt);
      net::put_varint(base + (loc_at - base), d.loc);
      net::put_varint(base + (v - base), ver);
    }
    prev = d.host;
    at = next;
    v = next_v;
    ++passed;
  }
}

void TpProtocol::rebuild(net::HostId me, const u8* rest, const u8* rest_vers, u32 passed,
                         u32 prev, net::DepReader in, u32 delta_count) {
  // Per thread: shard workers receive concurrently.
  thread_local std::vector<u8> ents_buf;
  thread_local std::vector<u8> vers_buf;
  std::vector<u8>& list = lists_[me];
  const ListHead head = head_of(list);
  const usize most = usize{head.count} + delta_count;
  if (ents_buf.size() < kHeadMaxBytes + most * net::kDepEntryMaxBytes) {
    ents_buf.resize(kHeadMaxBytes + most * net::kDepEntryMaxBytes);
  }
  if (vers_buf.size() < most * kVersionMaxBytes) vers_buf.resize(most * kVersionMaxBytes);
  // The header goes in front of the entries once its values are known.
  u8* const ents_out = ents_buf.data() + kHeadMaxBytes;
  net::DepWriter w(ents_out);
  u8* vout = vers_buf.data();
  if (passed > 0) {
    // The entries before the cursor, and their versions, stay as they are.
    const u8* const ents = list.data() + head.ents;
    const u8* const vers = list.data() + head.split;
    w.append(ents, static_cast<usize>(rest - ents), passed, prev);
    std::memcpy(vout, vers, static_cast<usize>(rest_vers - vers));
    vout += rest_vers - vers;
  }
  // One forward merge: held entries below the next delta host are copied,
  // a held host the delta names is raised when the shipped ckpt is above
  // it, and a host new to the receiver starts as the zero entry (no
  // dependency yet, version 0) and takes the shipped values when those
  // are above it. Each raise takes the host's next version.
  u32 left = head.count - passed;  // held entries from `rest` on
  net::DepEntry e{prev, 0, 0};     // the next held entry, while has_e
  bool has_e = false;
  const auto next_held = [&] {
    has_e = left > 0;
    if (has_e) {
      rest = read_entry(rest, e.host, e);
      --left;
    }
  };
  next_held();
  u32 last = prev;
  while (!in.done()) {
    const net::DepEntry d = in.next();
    if (d.host == me) continue;
    while (has_e && e.host < d.host) {
      u32 held_ver = 0;
      rest_vers = net::get_varint(rest_vers, held_ver);
      w.put(e.host, e.ckpt, e.loc);
      vout = net::put_varint(vout, held_ver);
      next_held();
    }
    net::DepEntry out{d.host, 0, 0};
    u32 ver = 0;
    if (has_e && e.host == d.host) {
      out = e;
      rest_vers = net::get_varint(rest_vers, ver);
      next_held();
    }
    if (d.ckpt > out.ckpt) {
      out.ckpt = d.ckpt;
      out.loc = d.loc;
      ver = next_version(me);
    }
    w.put(out.host, out.ckpt, out.loc);
    vout = net::put_varint(vout, ver);
    last = d.host;
  }
  if (has_e) {
    // Held entries above the last delta host: the first is re-gapped, the
    // rest are copied as they are.
    const u8* const vers_end = list.data() + list.size();
    w.put(e.host, e.ckpt, e.loc);
    w.append(rest, static_cast<usize>(list.data() + head.split - rest), left, head.last);
    std::memcpy(vout, rest_vers, static_cast<usize>(vers_end - rest_vers));
    vout += vers_end - rest_vers;
    last = head.last;
  }
  if (w.count() == 0) return;
  const auto ents_bytes = static_cast<u32>(w.size());
  u8* const begin = ents_out - (net::varint_bytes(w.count()) + net::varint_bytes(ents_bytes) +
                                net::varint_bytes(last));
  net::put_varint(net::put_varint(net::put_varint(begin, w.count()), ents_bytes), last);
  const usize size = static_cast<usize>(ents_out - begin) + ents_bytes +
                     static_cast<usize>(vout - vers_buf.data());
  if (size > list.capacity()) {
    // Grow by half rather than double: the lists are most of TP's memory.
    std::vector<u8> grown;
    grown.reserve(std::max(size, list.capacity() + list.capacity() / 2));
    list.swap(grown);
  }
  list.assign(begin, ents_out + ents_bytes);
  list.insert(list.end(), vers_buf.data(), vout);
}

std::vector<u32> TpProtocol::requirement_vector(net::HostId host) const {
  std::vector<u32> out(ctx_.n_hosts, 0);
  for (net::DepReader in = held_entries(lists_.at(host)); !in.done();) {
    const net::DepEntry e = in.next();
    out[e.host] = e.ckpt;
  }
  return out;
}

std::vector<u32> TpProtocol::location_vector(net::HostId host) const {
  std::vector<u32> out(ctx_.n_hosts, 0);
  for (net::DepReader in = held_entries(lists_.at(host)); !in.done();) {
    const net::DepEntry e = in.next();
    out[e.host] = e.loc;
  }
  out[host] = self_loc_[host];
  return out;
}

u64 TpProtocol::live_list_bytes() const noexcept {
  u64 bytes = 0;
  for (const std::vector<u8>& list : lists_) bytes += list.capacity();
  return bytes;
}

u64 TpProtocol::live_entries() const noexcept {
  u64 entries = 0;
  for (const std::vector<u8>& list : lists_) entries += head_of(list).count;
  return entries;
}

void TpProtocol::basic_checkpoint(const net::MobileHost& host) {
  checkpoint(host, CheckpointKind::kBasic);
}

void TpProtocol::handle_cell_switch(const net::MobileHost& host, net::MssId, net::MssId) {
  basic_checkpoint(host);
}

void TpProtocol::handle_disconnect(const net::MobileHost& host) { basic_checkpoint(host); }

}  // namespace mobichk::core
