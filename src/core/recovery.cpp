#include "core/recovery.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace mobichk::core {

GlobalCheckpoint index_recovery_line(const CheckpointLog& log, u64 index, IndexLineRule rule,
                                     const std::vector<u64>& current_pos) {
  const u32 n = log.n_hosts();
  if (current_pos.size() != n) {
    throw std::invalid_argument("index_recovery_line: current_pos size mismatch");
  }
  GlobalCheckpoint cut;
  cut.index = index;
  cut.pos.resize(n);
  cut.members.resize(n, nullptr);
  for (net::HostId h = 0; h < n; ++h) {
    const CheckpointRecord* member = nullptr;
    if (rule == IndexLineRule::kLastEqual) {
      member = log.last_with_sn(h, index);
    }
    if (member == nullptr) {
      member = log.first_with_sn_at_least(h, index);
    }
    if (member != nullptr) {
      cut.members[h] = member;
      cut.pos[h] = member->event_pos;
    } else {
      // The host never reached index M: it never received a message with
      // sn >= M, so its current state is consistent with the line.
      cut.pos[h] = current_pos[h];
    }
  }
  return cut;
}

GlobalCheckpoint tp_recovery_line(const CheckpointLog& log, const CheckpointRecord& anchor,
                                  const std::vector<u64>& current_pos) {
  const u32 n = log.n_hosts();
  if (!anchor.has_deps() || anchor.deps_rank() != n) {
    throw std::invalid_argument("tp_recovery_line: anchor lacks dependency vectors");
  }
  GlobalCheckpoint cut;
  cut.index = anchor.ordinal;
  cut.pos.resize(n);
  cut.members.resize(n, nullptr);
  // Decode the anchor once: O(n + m) for m recorded entries.
  std::vector<u32> required(n, 0);
  for (net::DepReader in = anchor.deps(); !in.done();) {
    const net::DepEntry e = in.next();
    if (e.host >= n) throw std::invalid_argument("tp_recovery_line: anchor entry beyond its rank");
    required[e.host] = e.ckpt;
  }
  for (net::HostId h = 0; h < n; ++h) {
    const CheckpointRecord* member = h == anchor.host ? &anchor : log.by_ordinal(h, required[h]);
    if (member != nullptr) {
      cut.members[h] = member;
      cut.pos[h] = member->event_pos;
    } else {
      // The required checkpoint has not been taken yet; under the phase
      // discipline the host's current state is a sound stand-in (it has
      // received nothing since its last send).
      cut.pos[h] = current_pos[h];
    }
  }
  return cut;
}

std::vector<const MessageLog::Delivery*> find_orphans(const MessageLog& messages,
                                                      const GlobalCheckpoint& cut) {
  std::vector<const MessageLog::Delivery*> orphans;
  for (const auto& d : messages.deliveries()) {
    if (d.send_pos > cut.pos.at(d.src) && d.recv_pos <= cut.pos.at(d.dst)) {
      orphans.push_back(&d);
    }
  }
  return orphans;
}

std::string describe_orphan(const MessageLog::Delivery& d, const GlobalCheckpoint& cut) {
  std::ostringstream os;
  os << "orphan: msg " << d.msg_id << " h" << d.src << "@" << d.send_pos << " -> h" << d.dst
     << "@" << d.recv_pos << " vs cut (src<=" << cut.pos.at(d.src) << ", dst<=" << cut.pos.at(d.dst)
     << ") index " << cut.index;
  return os.str();
}

u64 RollbackResult::total_discarded() const noexcept {
  u64 total = 0;
  for (const u64 d : checkpoints_discarded) total += d;
  return total;
}

u64 RollbackResult::undone_events() const {
  if (line.pos.size() != fail_pos.size()) {
    throw std::logic_error("RollbackResult::undone_events: line/fail_pos size mismatch");
  }
  u64 total = 0;
  for (usize h = 0; h < fail_pos.size(); ++h) {
    if (fail_pos[h] < line.pos[h]) {
      throw std::logic_error("RollbackResult::undone_events: line above the failure cut");
    }
    total += fail_pos[h] - line.pos[h];
  }
  return total;
}

namespace {

std::vector<bool> failure_mask(u32 n, net::HostId failed_host, const char* fn) {
  std::vector<bool> failed(n, failed_host == kAllHostsFailed);
  if (failed_host != kAllHostsFailed) {
    if (failed_host >= n) {
      throw std::invalid_argument(std::string(fn) + ": failed_host out of range");
    }
    failed[failed_host] = true;
  }
  return failed;
}

}  // namespace

RollbackResult rollback_to_consistent(const CheckpointLog& log, const MessageLog& messages,
                                      const std::vector<u64>& fail_pos,
                                      net::HostId failed_host) {
  return rollback_to_consistent(log, messages, fail_pos,
                                failure_mask(log.n_hosts(), failed_host, "rollback_to_consistent"));
}

RollbackResult rollback_to_consistent(const CheckpointLog& log, const MessageLog& messages,
                                      const std::vector<u64>& fail_pos,
                                      const std::vector<bool>& failed) {
  const u32 n = log.n_hosts();
  if (fail_pos.size() != n || failed.size() != n) {
    throw std::invalid_argument("rollback_to_consistent: fail_pos/failed size mismatch");
  }
  RollbackResult result;
  result.fail_pos = fail_pos;
  result.line.pos.resize(n);
  result.line.members.resize(n, nullptr);
  result.checkpoints_discarded.assign(n, 0);

  std::vector<u64> latest_ordinal(n, 0);
  for (net::HostId h = 0; h < n; ++h) {
    const CheckpointRecord* member = log.last_at_or_before_pos(h, fail_pos[h]);
    if (member == nullptr) {
      throw std::logic_error("rollback_to_consistent: host lacks an initial checkpoint");
    }
    latest_ordinal[h] = member->ordinal;
    if (failed[h]) {
      result.line.members[h] = member;
      result.line.pos[h] = member->event_pos;
    } else {
      // Survivor: its failure state is intact and can be checkpointed on
      // the spot (virtual member).
      result.line.pos[h] = fail_pos[h];
    }
  }

  // Fixpoint: keep rolling receivers of orphan messages back. Each
  // rollback strictly decreases some cut position, so this terminates
  // (at worst at the initial checkpoints).
  bool changed = true;
  while (changed) {
    changed = false;
    ++result.iterations;
    for (const auto& d : messages.deliveries()) {
      if (d.send_pos > result.line.pos[d.src] && d.recv_pos <= result.line.pos[d.dst]) {
        // The receiver must roll strictly below the orphan receive. A
        // receive at pos 0 cannot be rolled under (and `recv_pos - 1`
        // would wrap the u64); likewise, when no stored checkpoint lies
        // strictly below the current cut the line cannot move — skip the
        // delivery instead of looping on it forever.
        const CheckpointRecord* member =
            d.recv_pos == 0 ? nullptr : log.last_at_or_before_pos(d.dst, d.recv_pos - 1);
        if (member == nullptr || member->event_pos >= result.line.pos[d.dst]) continue;
        result.line.members[d.dst] = member;
        result.line.pos[d.dst] = member->event_pos;
        changed = true;
      }
    }
  }

  for (net::HostId h = 0; h < n; ++h) {
    if (result.line.members[h] != nullptr) {
      result.checkpoints_discarded[h] = latest_ordinal[h] - result.line.members[h]->ordinal;
    }
  }
  return result;
}

RollbackResult index_rollback(const CheckpointLog& log, IndexLineRule rule,
                              const std::vector<u64>& fail_pos, net::HostId failed_host) {
  return index_rollback(log, rule, fail_pos,
                        failure_mask(log.n_hosts(), failed_host, "index_rollback"));
}

RollbackResult index_rollback(const CheckpointLog& log, IndexLineRule rule,
                              const std::vector<u64>& fail_pos, const std::vector<bool>& failed) {
  const u32 n = log.n_hosts();
  if (fail_pos.size() != n || failed.size() != n) {
    throw std::invalid_argument("index_rollback: fail_pos/failed size mismatch");
  }
  RollbackResult result;
  result.fail_pos = fail_pos;
  result.iterations = 1;
  if (n == 0) return result;  // degenerate zero-host log: nothing to roll back
  // Every crashed host must restart from a stored checkpoint; the best
  // index is the highest one all of them reached. (Feeding the
  // kAllHostsFailed sentinel into max_sn used to index out of range.)
  bool any_failed = false;
  u64 index = ~0ULL;
  for (net::HostId h = 0; h < n; ++h) {
    if (!failed[h]) continue;
    any_failed = true;
    index = std::min(index, log.max_sn(h));
  }
  if (!any_failed) {
    throw std::invalid_argument("index_rollback: no failed host — line index undefined");
  }
  result.line = index_recovery_line(log, index, rule, fail_pos);
  // Survivors whose member lies beyond their failure position roll to
  // their last stored checkpoint with sn semantics intact: this cannot
  // happen for the index = failed hosts' max sn (members were taken
  // before the failure), but clamp defensively.
  for (net::HostId h = 0; h < n; ++h) {
    if (result.line.pos[h] > fail_pos[h]) {
      const CheckpointRecord* member = log.last_at_or_before_pos(h, fail_pos[h]);
      result.line.members[h] = member;
      result.line.pos[h] = member != nullptr ? member->event_pos : 0;
    }
  }
  result.checkpoints_discarded.assign(n, 0);
  for (net::HostId h = 0; h < n; ++h) {
    const CheckpointRecord* latest = log.last_at_or_before_pos(h, fail_pos[h]);
    if (latest != nullptr && result.line.members[h] != nullptr) {
      result.checkpoints_discarded[h] = latest->ordinal - result.line.members[h]->ordinal;
    }
  }
  return result;
}

}  // namespace mobichk::core
