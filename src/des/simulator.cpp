#include "des/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace mobichk::des {

Simulator::Simulator(QueueKind queue_kind) : queue_(make_event_queue(queue_kind)) {}

EventHandle Simulator::schedule_at(Time t, const EventPayload& payload) {
  assert(payload.target != nullptr && "typed payload needs a target");
  if (t < now_) throw std::invalid_argument("Simulator::schedule_at: time is in the past");
  EventEntry entry;
  entry.time = t;
  entry.seq = next_seq_++;
  entry.payload = payload;
  EventHandle handle;
  if (prof_ != nullptr) {
    const u64 t0 = obs::prof_now_ns();
    handle = queue_->push(entry);
    prof_->queue_push.add(obs::prof_now_ns() - t0);
  } else {
    handle = queue_->push(entry);
  }
  ++invariants_.scheduled;
  if (queue_->size() > invariants_.max_pending) invariants_.max_pending = queue_->size();
  if (probe_ != nullptr) probe_->pushes->add();
  return handle;
}

void Simulator::cancel(EventHandle handle) {
  if (!handle.valid()) return;
  ++invariants_.cancels_requested;
  bool effective;
  if (prof_ != nullptr) {
    const u64 t0 = obs::prof_now_ns();
    effective = queue_->cancel(handle);
    prof_->queue_cancel.add(obs::prof_now_ns() - t0);
  } else {
    effective = queue_->cancel(handle);
  }
  if (effective) {
    ++invariants_.cancels_effective;
    if (probe_ != nullptr) probe_->cancels->add();
  }
}

void Simulator::advance_to(const EventEntry& e) noexcept {
  if (e.time < now_) {
    ++invariants_.time_regressions;
    assert(false && "event queue returned an event in the past");
  }
#ifndef NDEBUG
  // Seqs count up from 1, so a bitmap catches a double pop without
  // allocating per event: it starts at 2^20 seqs and doubles, so the
  // allocation gates hold in debug builds too.
  if (e.seq >= fired_seqs_.size()) {
    fired_seqs_.resize(std::max({2 * fired_seqs_.size(), e.seq + 1, usize{1} << 20}));
  }
  assert(!fired_seqs_[e.seq] && "event seq popped twice");
  fired_seqs_[e.seq] = true;
#endif
  now_ = e.time;
}

void Simulator::pop_and_fire_timed() {
  const u64 t0 = obs::prof_now_ns();
  const EventEntry e = queue_->pop();
  const u64 t1 = obs::prof_now_ns();
  prof_->queue_pop.add(t1 - t0);
  advance_to(e);
  if (probe_ != nullptr) observe_pop(e);
  fire(e);
  // Dispatch time covers the handler body (and the negligible clock
  // advance); queue maintenance is accounted separately above.
  prof_->dispatch[static_cast<usize>(e.payload.kind)].add(obs::prof_now_ns() - t1);
  ++prof_->events;
  ++executed_;
  ++invariants_.executed;
}

u64 Simulator::run_until(Time t_end) {
  assert(t_end >= now_);
  u64 count = 0;
  while (!queue_->empty()) {
    // peek_time (not pop/push-back): re-pushing would file the entry under
    // a fresh slot and silently invalidate every outstanding handle to it.
    if (queue_->peek_time() > t_end) break;
    pop_and_fire();
    ++count;
  }
  now_ = t_end;
  return count;
}

u64 Simulator::run_window(Time h_excl, Time cap) {
  u64 count = 0;
  for (;;) {
    const Time t = queue_->peek_time_below(h_excl);
    if (t == kNoEventBelow || t > cap) break;
    pop_and_fire();
    ++count;
  }
  return count;
}

void Simulator::step_one() {
  assert(!queue_->empty() && "step_one() on empty queue");
  pop_and_fire();
}

u64 Simulator::run() {
  u64 count = 0;
  while (!queue_->empty()) {
    pop_and_fire();
    ++count;
  }
  return count;
}

}  // namespace mobichk::des
