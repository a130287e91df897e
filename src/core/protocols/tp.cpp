#include "core/protocols/tp.hpp"

#include <algorithm>
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

/// First position in [from, v.size()) whose idx is >= key. Gallops from
/// `from` (1, 2, 4, ... ahead) before a binary search, so walking a sorted
/// run of keys costs O(log gap) each: O(m + k) for k keys over m entries,
/// and O(k log m) when k is small.
template <typename T>
usize gallop_lower_bound(const std::vector<T>& v, usize from, u32 key) {
  usize lo = from;
  usize hi = from;
  for (usize step = 1; hi < v.size() && v[hi].idx < key; step *= 2) {
    lo = hi + 1;
    hi += step;
  }
  hi = std::min(hi, v.size());
  const auto it = std::lower_bound(v.begin() + static_cast<std::ptrdiff_t>(lo),
                                   v.begin() + static_cast<std::ptrdiff_t>(hi), key,
                                   [](const T& e, u32 x) { return e.idx < x; });
  return static_cast<usize>(it - v.begin());
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
  entries_.assign(ctx_.n_hosts, {});
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
  const std::vector<Entry>& es = entries_[me];
  net::DepWriter w(encode_scratch(es.size() + 1));
  bool own_emitted = false;
  for (const Entry& e : es) {
    if (!own_emitted && e.idx > me) {
      w.put(me, static_cast<u32>(ckpt_count_[me]), host.mss());
      own_emitted = true;
    }
    if (e.ver >= min_ver) w.put(e.idx, e.ckpt, e.loc);
  }
  if (!own_emitted) w.put(me, static_cast<u32>(ckpt_count_[me]), host.mss());
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
  // Both lists are sorted by host. The forward pass decodes the delta,
  // raises the entries the receiver already holds, in place, and sets the
  // hosts new to it aside (per thread: shard workers receive
  // concurrently).
  thread_local std::vector<net::DepEntry> fresh;
  fresh.clear();
  std::vector<Entry>& es = entries_[me];
  const usize held = es.size();
  usize at = 0;
  for (net::DepReader in = pb.delta_reader(); !in.done();) {
    const net::DepEntry d = in.next();
    if (d.host == me) continue;
    at = gallop_lower_bound(es, at, d.host);
    if (at == held || es[at].idx != d.host) {
      fresh.push_back(d);
      continue;
    }
    Entry& e = es[at++];
    if (d.ckpt > e.ckpt) {
      e.ckpt = d.ckpt;
      e.loc = d.loc;
      e.ver = next_version(me);
    }
  }
  if (fresh.empty()) return;
  // Grow once and merge backwards in place: held entries shift up past
  // the new ones, which start out as the zero entry (no dependency yet)
  // and take the shipped values when those are above it. Writing stops
  // once the lowest new host is placed; everything below is already home.
  es.resize(held + fresh.size());
  usize read = held;
  usize write = es.size();
  for (auto d = fresh.rbegin(); d != fresh.rend(); ++d) {
    while (read > 0 && es[read - 1].idx > d->host) es[--write] = es[--read];
    Entry& e = es[--write];
    e = Entry{};
    e.idx = d->host;
    if (d->ckpt > 0) {
      e.ckpt = d->ckpt;
      e.loc = d->loc;
      e.ver = next_version(me);
    }
  }
}

std::vector<u32> TpProtocol::requirement_vector(net::HostId host) const {
  std::vector<u32> out(ctx_.n_hosts, 0);
  for (const Entry& e : entries_.at(host)) out[e.idx] = e.ckpt;
  return out;
}

std::vector<u32> TpProtocol::location_vector(net::HostId host) const {
  std::vector<u32> out(ctx_.n_hosts, 0);
  for (const Entry& e : entries_.at(host)) out[e.idx] = e.loc;
  out[host] = self_loc_[host];
  return out;
}

void TpProtocol::basic_checkpoint(const net::MobileHost& host) {
  checkpoint(host, CheckpointKind::kBasic);
}

void TpProtocol::handle_cell_switch(const net::MobileHost& host, net::MssId, net::MssId) {
  basic_checkpoint(host);
}

void TpProtocol::handle_disconnect(const net::MobileHost& host) { basic_checkpoint(host); }

}  // namespace mobichk::core
