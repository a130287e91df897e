// Reference pending-event set: one flat list kept sorted at all times.
//
// Deliberately the simplest implementation that can be correct — O(n)
// push, O(1) pop — so the determinism audit (sim/audit.hpp) and the
// queue-equivalence fuzz tests can use it as an oracle against the
// optimised BinaryHeapQueue and CalendarQueue.
#pragma once

#include <vector>

#include "des/event_queue.hpp"

namespace mobichk::des {

/// Sorted-list event queue: descending (time, seq) order, so the next
/// event to fire sits at the back of the vector.
class SortedListQueue final : public EventQueue {
 public:
  void push(EventEntry entry) override;
  EventEntry pop() override;
  Time peek_time_below(Time bound) override;
  bool empty() const override { return entries_.empty(); }
  usize size() const override { return entries_.size(); }
  const char* name() const noexcept override { return "sorted-list"; }

 private:
  std::vector<EventEntry> entries_;
};

}  // namespace mobichk::des
