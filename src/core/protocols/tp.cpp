#include "core/protocols/tp.hpp"

#include <algorithm>
#include <cassert>

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
  // Snapshot the touched entries plus the own anchor, sorted by host.
  const std::vector<Entry>& es = entries_[me];
  std::vector<DepEntry> deps;
  deps.reserve(es.size() + 1);
  bool own_emitted = false;
  for (const Entry& e : es) {
    if (!own_emitted && e.idx > me) {
      deps.push_back({me, static_cast<u32>(ckpt_count_[me]), host.mss()});
      own_emitted = true;
    }
    deps.push_back({e.idx, e.ckpt, e.loc});
  }
  if (!own_emitted) deps.push_back({me, static_cast<u32>(ckpt_count_[me]), host.mss()});
  take_checkpoint(host, kind, ckpt_count_[me], std::move(deps), ctx_.n_hosts, rule, trigger);
  ++ckpt_count_[me];
  // A fresh interval has no sends yet; phase returns to RECV (Russell's
  // discipline: forced checkpoints are needed only for receives that
  // follow a send *within the same interval*).
  phase_send_[me] = 0;
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
  // current interval and location), in host order.
  const std::vector<Entry>& es = entries_[me];
  pb.deltas.reserve(es.size() + 1);
  bool own_emitted = false;
  for (const Entry& e : es) {
    if (!own_emitted && e.idx > me) {
      pb.deltas.push_back({me, static_cast<u32>(ckpt_count_[me]), host.mss()});
      own_emitted = true;
    }
    if (e.ver > sc.last_ver) pb.deltas.push_back({e.idx, e.ckpt, e.loc});
  }
  if (!own_emitted) pb.deltas.push_back({me, static_cast<u32>(ckpt_count_[me]), host.mss()});
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
  merge_deltas(me, pb.deltas);
}

void TpProtocol::merge_deltas(net::HostId me, const std::vector<net::PbDelta>& deltas) {
  // Both lists are sorted by host. The forward pass raises the entries the
  // receiver already holds, in place, and counts the hosts new to it.
  assert(std::adjacent_find(deltas.begin(), deltas.end(),
                            [](const net::PbDelta& a, const net::PbDelta& b) {
                              return a.idx >= b.idx;
                            }) == deltas.end() &&
         "a sparse delta lists each host once, in ascending order");
  std::vector<Entry>& es = entries_[me];
  const usize held = es.size();
  usize fresh = 0;
  usize at = 0;
  for (const net::PbDelta& d : deltas) {
    if (d.idx == me) continue;
    at = gallop_lower_bound(es, at, d.idx);
    if (at == held || es[at].idx != d.idx) {
      ++fresh;
      continue;
    }
    Entry& e = es[at++];
    if (d.ckpt > e.ckpt) {
      e.ckpt = d.ckpt;
      e.loc = d.loc;
      e.ver = ++version_[me];
    }
  }
  if (fresh == 0) return;
  // Grow once and merge backwards in place: held entries shift up past
  // the new ones, which start out as the zero entry (no dependency yet)
  // and take the shipped values when those are above it. Writing stops
  // once the last new host is placed; everything below is already home.
  es.resize(held + fresh);
  usize read = held;
  usize write = es.size();
  for (auto d = deltas.rbegin(); write != read; ++d) {
    if (d->idx == me) continue;
    while (read > 0 && es[read - 1].idx > d->idx) es[--write] = es[--read];
    if (read > 0 && es[read - 1].idx == d->idx) {
      es[--write] = es[--read];  // raised by the forward pass
      continue;
    }
    Entry& e = es[--write];
    e = Entry{};
    e.idx = d->idx;
    if (d->ckpt > 0) {
      e.ckpt = d->ckpt;
      e.loc = d->loc;
      e.ver = ++version_[me];
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
