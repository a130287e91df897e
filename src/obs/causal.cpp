#include "obs/causal.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <unordered_map>

namespace mobichk::obs {

RecoveryLineTracker::RecoveryLineTracker(TrackerMode mode, u32 n_hosts)
    : mode_(mode), n_(n_hosts), hosts_(n_hosts), uninitialized_(n_hosts) {
  if (n_hosts == 0) throw std::invalid_argument("RecoveryLineTracker: n_hosts is zero");
  lag_hosts_[0] = n_hosts;
}

void RecoveryLineTracker::resolve_metrics(MetricRegistry& registry, const std::string& prefix) {
  line_index_g_ = &registry.gauge(prefix + ".line_index");
  lag_max_g_ = &registry.gauge(prefix + ".lag_max");
  lag_h_ = &registry.histogram(prefix + ".lag", 0.0, kLagBuckets, kLagBuckets);
  chain_h_ = &registry.histogram(prefix + ".forced_chain", 0.0, 32.0, 32);
  useless_c_ = &registry.counter(prefix + ".useless_checkpoints");
  advances_c_ = &registry.counter(prefix + ".line_advances");
}

void RecoveryLineTracker::on_checkpoint(u32 host, u64 sn, CkptKind kind, u64 trigger_msg) {
  HostState& h = hosts_.at(host);
  const HostMark before = mark(host);
  if (h.sns.empty()) --uninitialized_;
  h.phase_send = false;  // a fresh interval has no sends yet
  u32 chain = 0;
  if (kind == CkptKind::kForced) {
    chain = 1;  // marker-forced: the chain starts here
    if (trigger_msg != 0) {
      if (const MsgInfo* m = sent(trigger_msg)) chain = m->chain_at_send + 1;
    }
    if (chain_h_ != nullptr) chain_h_->add(static_cast<f64>(chain));
    max_chain_ = std::max<u64>(max_chain_, chain);
  }
  h.chain = chain;
  h.sns.push_back(sn);
  remark(host, before);
  advance_committed();
}

void RecoveryLineTracker::on_sn_promote(u32 host, u64 sn) {
  HostState& h = hosts_.at(host);
  if (h.sns.empty()) return;
  const HostMark before = mark(host);
  if (sn > h.sns.back()) h.sns.back() = sn;
  remark(host, before);
  advance_committed();
}

void RecoveryLineTracker::on_send(u32 host, u64 msg_id) {
  HostState& h = hosts_.at(host);
  const u32 si = h.sns.empty() ? 0 : static_cast<u32>(h.sns.size() - 1);
  if (msg_id >= msgs_.size()) msgs_.resize(msg_id + 1);
  msgs_[msg_id] = MsgInfo{host, si, h.chain};
  h.phase_send = true;
}

void RecoveryLineTracker::on_deliver(u32 host, u64 msg_id) {
  const MsgInfo* info = sent(msg_id);
  if (info == nullptr) return;  // foreign message (manual scripts)
  const HostState& h = hosts_.at(host);
  const u32 di = h.sns.empty() ? 0 : static_cast<u32>(h.sns.size() - 1);
  edges_.push_back(Edge{info->src, info->send_interval, host, di});
  // The forced checkpoint's probe event precedes the deliver event, so a
  // SEND phase here means a TP protocol broke Russell's discipline.
  if (mode_ == TrackerMode::kTpDependency && h.phase_send) ++phase_violations_;
}

const RecoveryLineTracker::MsgInfo* RecoveryLineTracker::sent(u64 msg_id) const {
  if (msg_id >= msgs_.size() || msgs_[msg_id].src == kNoSend) return nullptr;
  return &msgs_[msg_id];
}

/// The index a host has reached: TP mode its deepest ordinal, the index
/// modes its latest sn. The committed line is the minimum over hosts.
u64 RecoveryLineTracker::reached(const HostState& h) const {
  return mode_ == TrackerMode::kTpDependency ? h.sns.size() - 1 : h.sns.back();
}

RecoveryLineTracker::HostMark RecoveryLineTracker::mark(u32 host) const {
  const HostState& h = hosts_[host];
  if (h.sns.empty()) return HostMark{};
  return HostMark{reached(h) <= committed_, lag(host)};
}

/// Moves `host` in the tallies from `before` (its mark ahead of an
/// update) to its current mark.
void RecoveryLineTracker::remark(u32 host, const HostMark& before) {
  const HostMark now = mark(host);
  if (before.holding) --holding_;
  if (now.holding) ++holding_;
  if (now.lag == before.lag) return;
  --lag_hosts_[std::min<u64>(before.lag, kLagBuckets)];
  ++lag_hosts_[std::min<u64>(now.lag, kLagBuckets)];
  lag_sum_ = lag_sum_ - before.lag + now.lag;
  lag_max_ = std::max(lag_max_, now.lag);
}

/// Rebuilds holding_ and the lag tallies from every host: O(n), once per
/// line move.
void RecoveryLineTracker::retally() {
  holding_ = 0;
  lag_hosts_.fill(0);
  lag_sum_ = 0;
  lag_max_ = 0;
  for (u32 h = 0; h < n_; ++h) {
    const HostMark m = mark(h);
    if (m.holding) ++holding_;
    ++lag_hosts_[std::min<u64>(m.lag, kLagBuckets)];
    lag_sum_ += m.lag;
    lag_max_ = std::max(lag_max_, m.lag);
  }
}

void RecoveryLineTracker::advance_committed() {
  if (uninitialized_ > 0) return;  // not every host initialized yet
  if (holding_ == 0) {
    // Every host is past the committed index: the line moves up to the
    // least reached index.
    u64 m = ~u64{0};
    for (const HostState& h : hosts_) m = std::min(m, reached(h));
    if (advances_c_ != nullptr) advances_c_->add(m - committed_);
    committed_ = m;
    retally();
  } else if (committed_ != 0) {
    return;  // a host still holds the line where it is
  }
  // Until the line first moves, every update re-samples it at index 0.
  if (line_index_g_ != nullptr) line_index_g_->set(static_cast<f64>(committed_));
  sample_lag();
}

/// Adds one `.lag` value per host, from the tallies.
void RecoveryLineTracker::sample_lag() {
  if (lag_h_ != nullptr) {
    u64 least = 0;
    while (least < kLagBuckets && lag_hosts_[least] == 0) ++least;
    if (least == kLagBuckets) {  // every host is in overflow
      least = ~u64{0};
      for (u32 h = 0; h < n_; ++h) least = std::min(least, lag(h));
    }
    lag_h_->add_batch(std::span(lag_hosts_).first<kLagBuckets>(), lag_hosts_[kLagBuckets],
                      static_cast<f64>(lag_sum_), static_cast<f64>(least),
                      static_cast<f64>(lag_max_));
  }
  if (lag_max_g_ != nullptr) lag_max_g_->set(static_cast<f64>(lag_max_));
}

u64 RecoveryLineTracker::lag(u32 host) const {
  const HostState& h = hosts_.at(host);
  if (h.sns.empty()) return 0;
  if (mode_ == TrackerMode::kTpDependency) {
    const u64 deepest = h.sns.size() - 1;
    return deepest > committed_ ? deepest - committed_ : 0;
  }
  // Checkpoints strictly beyond the committed index.
  const auto it = std::upper_bound(h.sns.begin(), h.sns.end(), committed_);
  return static_cast<u64>(h.sns.end() - it);
}

std::vector<LineMember> RecoveryLineTracker::index_line(u64 index) const {
  std::vector<LineMember> line(n_);
  for (u32 h = 0; h < n_; ++h) {
    const auto& sns = hosts_[h].sns;
    line[h].host = h;
    auto it = sns.end();
    if (mode_ == TrackerMode::kIndexLastEqual) {
      const auto ub = std::upper_bound(sns.begin(), sns.end(), index);
      if (ub != sns.begin() && *(ub - 1) == index) it = ub - 1;
    }
    if (it == sns.end()) it = std::lower_bound(sns.begin(), sns.end(), index);
    if (it != sns.end()) {
      line[h].ordinal = static_cast<u64>(it - sns.begin());
    } else {
      line[h].is_virtual = true;
    }
  }
  return line;
}

std::vector<LineMember> RecoveryLineTracker::tp_line(u32 host, u64 ordinal) const {
  if (mode_ != TrackerMode::kTpDependency) {
    throw std::logic_error("RecoveryLineTracker::tp_line: not a TP tracker");
  }
  if (ordinal >= hosts_.at(host).sns.size()) {
    throw std::out_of_range("RecoveryLineTracker::tp_line: no such checkpoint");
  }
  // reach[j]: one past the latest interval of j with an interval-graph
  // path into (host, ordinal - 1), i.e. CKPT[j] of the checkpoint. Under
  // the phase discipline every receive of an interval precedes its sends,
  // so each message on such a path is delivered before the next one is
  // sent: a newest-first sweep over the deliveries meets every path's
  // messages last hop first, and an edge into a reaching interval makes
  // its source interval reach too.
  std::vector<u64> reach(n_, 0);
  reach[host] = ordinal;
  for (auto e = edges_.rbegin(); e != edges_.rend(); ++e) {
    if (e->di < reach[e->dst]) reach[e->src] = std::max<u64>(reach[e->src], u64{e->si} + 1);
  }
  std::vector<LineMember> line(n_);
  for (u32 j = 0; j < n_; ++j) {
    line[j].host = j;
    if (reach[j] < hosts_[j].sns.size()) {
      line[j].ordinal = reach[j];
    } else {
      // Not yet taken: the host's current state stands in (sound under
      // the phase discipline — it has received nothing since its send).
      line[j].is_virtual = true;
    }
  }
  return line;
}

usize RecoveryLineTracker::node_id(u32 host, u64 interval) const {
  return node_base_[host] + static_cast<usize>(interval);
}

namespace {

/// Strongly connected components of a CSR digraph (out-edges of node u
/// are targets[offsets[u] .. offsets[u+1])), by Tarjan's algorithm with an
/// explicit call stack: one host's successor chain alone can be 10^5+
/// nodes deep, far beyond what native recursion survives. Returns a
/// component id per node; O(V + E) time and memory.
std::vector<u32> strongly_connected_components(const std::vector<u32>& offsets,
                                               const std::vector<u32>& targets) {
  constexpr u32 kUnset = ~u32{0};
  const u32 n = static_cast<u32>(offsets.size() - 1);
  std::vector<u32> order(n, kUnset);  // discovery index
  std::vector<u32> low(n, 0);
  std::vector<u32> comp(n, kUnset);   // set when the node leaves the stack
  std::vector<u32> stack;
  struct Frame {
    u32 node, next_edge;
  };
  std::vector<Frame> calls;
  u32 discovered = 0, components = 0;
  for (u32 root = 0; root < n; ++root) {
    if (order[root] != kUnset) continue;
    order[root] = low[root] = discovered++;
    stack.push_back(root);
    calls.push_back(Frame{root, offsets[root]});
    while (!calls.empty()) {
      const u32 u = calls.back().node;
      if (calls.back().next_edge < offsets[u + 1]) {
        const u32 v = targets[calls.back().next_edge++];
        if (order[v] == kUnset) {
          order[v] = low[v] = discovered++;
          stack.push_back(v);
          calls.push_back(Frame{v, offsets[v]});
        } else if (comp[v] == kUnset) {  // visited and still on the stack
          low[u] = std::min(low[u], order[v]);
        }
        continue;
      }
      calls.pop_back();
      if (!calls.empty()) {
        const u32 parent = calls.back().node;
        low[parent] = std::min(low[parent], low[u]);
      }
      if (low[u] == order[u]) {
        u32 w = kUnset;
        do {
          w = stack.back();
          stack.pop_back();
          comp[w] = components;
        } while (w != u);
        ++components;
      }
    }
  }
  return comp;
}

}  // namespace

void RecoveryLineTracker::finalize() {
  if (finalized_) return;
  finalized_ = true;
  // Lay out the interval-graph nodes exactly like core::IntervalGraph:
  // one node per (host, checkpoint ordinal); interval x is opened by
  // checkpoint x.
  node_base_.assign(n_, 0);
  usize total = 0;
  for (u32 h = 0; h < n_; ++h) {
    node_base_[h] = total;
    total += hosts_[h].sns.size();
  }
  // CSR adjacency: every message edge (src,si) -> (dst,di) plus the
  // successor edge (h,y) -> (h,y+1).
  std::vector<u32> offsets(total + 1, 0);
  for (u32 h = 0; h < n_; ++h) {
    for (u64 y = 0; y + 1 < hosts_[h].sns.size(); ++y) ++offsets[node_id(h, y) + 1];
  }
  const auto in_range = [this](const Edge& e) {
    return e.si < hosts_[e.src].sns.size() && e.di < hosts_[e.dst].sns.size();
  };
  for (const Edge& e : edges_) {
    if (in_range(e)) ++offsets[node_id(e.src, e.si) + 1];
  }
  for (usize u = 0; u < total; ++u) offsets[u + 1] += offsets[u];
  std::vector<u32> targets(offsets[total]);
  std::vector<u32> cursor(offsets.begin(), offsets.end() - 1);
  for (u32 h = 0; h < n_; ++h) {
    for (u64 y = 0; y + 1 < hosts_[h].sns.size(); ++y) {
      const usize u = node_id(h, y);
      targets[cursor[u]++] = static_cast<u32>(u + 1);
    }
  }
  for (const Edge& e : edges_) {
    if (!in_range(e)) continue;
    targets[cursor[node_id(e.src, e.si)]++] = static_cast<u32>(node_id(e.dst, e.di));
  }
  // C(h,x), x >= 1, lies on a Z-cycle iff (h,x-1) and (h,x) share an SCC:
  // a Z-cycle is a path from (h,x) to some (h,y), y < x, and (h,y) climbs
  // back to (h,x) through (h,x-1) by successor edges; conversely a path
  // from (h,x) back to (h,x-1) ends with a message edge into some (h,y),
  // y < x, once its trailing successor edges are peeled off.
  const std::vector<u32> comp = strongly_connected_components(offsets, targets);
  z_cycle_.assign(total, 0);
  useless_ = 0;
  for (u32 h = 0; h < n_; ++h) {
    for (u64 x = 1; x < hosts_[h].sns.size(); ++x) {
      if (comp[node_id(h, x - 1)] == comp[node_id(h, x)]) {
        z_cycle_[node_id(h, x)] = 1;
        ++useless_;
      }
    }
  }
  if (useless_c_ != nullptr) useless_c_->add(useless_);
  advance_committed();
}

bool RecoveryLineTracker::on_z_cycle(u32 host, u64 ordinal) const {
  if (!finalized_) throw std::logic_error("RecoveryLineTracker::on_z_cycle before finalize()");
  if (ordinal == 0 || ordinal >= hosts_.at(host).sns.size()) return false;
  return z_cycle_[node_id(host, ordinal)] != 0;
}

CausalMonitor::CausalMonitor(u32 n_hosts, const std::vector<TrackerMode>& modes,
                             const std::vector<std::string>& names, MetricRegistry& registry) {
  trackers_.reserve(modes.size());
  for (usize slot = 0; slot < modes.size(); ++slot) {
    if (modes[slot] == TrackerMode::kNone) {
      trackers_.push_back(nullptr);
      continue;
    }
    auto tracker = std::make_unique<RecoveryLineTracker>(modes[slot], n_hosts);
    const std::string label =
        slot < names.size() ? names[slot] : "slot" + std::to_string(slot);
    tracker->resolve_metrics(registry, "rl." + std::to_string(slot) + "." + label);
    trackers_.push_back(std::move(tracker));
  }
}

void CausalMonitor::on_probe_event(const ProbeEvent& e) {
  switch (e.kind) {
    case ProbeKind::kCheckpoint:
    case ProbeKind::kSnPromote: {
      if (e.track < 0 || static_cast<usize>(e.track) >= trackers_.size()) return;
      RecoveryLineTracker* t = trackers_[static_cast<usize>(e.track)].get();
      if (t == nullptr) return;
      if (e.kind == ProbeKind::kCheckpoint) {
        t->on_checkpoint(static_cast<u32>(e.actor), e.a, e.ckpt_kind, e.b);
      } else {
        t->on_sn_promote(static_cast<u32>(e.actor), e.a);
      }
      break;
    }
    case ProbeKind::kSend:
      for (auto& t : trackers_) {
        if (t != nullptr) t->on_send(static_cast<u32>(e.actor), e.a);
      }
      break;
    case ProbeKind::kDeliver:
      for (auto& t : trackers_) {
        if (t != nullptr) t->on_deliver(static_cast<u32>(e.actor), e.a);
      }
      break;
    default:
      break;  // mobility / sweep events carry no causal information
  }
}

void CausalMonitor::finalize() {
  for (auto& t : trackers_) {
    if (t != nullptr) t->finalize();
  }
}

std::vector<ChainStep> explain_checkpoint_chain(const Timeline& timeline, i32 slot, i32 host,
                                                u64 ordinal, usize max_depth) {
  const std::vector<ProbeEvent>& ev = timeline.events();
  // Index the timeline once: checkpoint event positions per host (for
  // this slot) and the send event of every message id.
  std::unordered_map<i32, std::vector<usize>> ckpts_of;
  std::unordered_map<u64, usize> send_of;
  for (usize i = 0; i < ev.size(); ++i) {
    if (ev[i].kind == ProbeKind::kCheckpoint && ev[i].track == slot) {
      ckpts_of[ev[i].actor].push_back(i);
    } else if (ev[i].kind == ProbeKind::kSend) {
      send_of.emplace(ev[i].a, i);
    }
  }

  std::vector<ChainStep> chain;
  const auto host_it = ckpts_of.find(host);
  if (host_it == ckpts_of.end() || ordinal >= host_it->second.size()) return chain;
  usize idx = host_it->second[ordinal];
  u64 current_ordinal = ordinal;
  while (chain.size() < max_depth) {
    const ProbeEvent& c = ev[idx];
    ChainStep step;
    step.t = c.t;
    step.host = c.actor;
    step.ordinal = current_ordinal;
    step.sn = c.a;
    step.ckpt_kind = c.ckpt_kind;
    step.rule = c.rule;
    step.replaced = c.replaced;
    step.trigger_msg = c.b;
    if (c.b == 0) {
      chain.push_back(step);
      break;  // basic / initial / marker-forced: the chain ends here
    }
    const auto send_it = send_of.find(c.b);
    if (send_it == send_of.end()) {
      chain.push_back(step);
      break;  // send not on the timeline (capped / partial recording)
    }
    const ProbeEvent& s = ev[send_it->second];
    step.msg_src = s.actor;
    step.msg_sent_t = s.t;
    step.msg_wire_sn = s.b;
    step.msg_found = true;
    chain.push_back(step);
    // The sender's latest checkpoint before the send.
    const auto sender_it = ckpts_of.find(s.actor);
    if (sender_it == ckpts_of.end()) break;
    const std::vector<usize>& sc = sender_it->second;
    const auto ub = std::upper_bound(sc.begin(), sc.end(), send_it->second);
    if (ub == sc.begin()) break;  // no checkpoint before the send
    idx = *(ub - 1);
    current_ordinal = static_cast<u64>((ub - 1) - sc.begin());
  }
  return chain;
}

}  // namespace mobichk::obs
