#include "des/sorted_list_queue.hpp"

#include <algorithm>
#include <cassert>

namespace mobichk::des {

void SortedListQueue::push(EventEntry entry) {
  const auto pos = std::upper_bound(
      entries_.begin(), entries_.end(), entry,
      [](const EventEntry& a, const EventEntry& b) { return b < a; });
  entries_.insert(pos, entry);
}

EventEntry SortedListQueue::pop() {
  assert(!entries_.empty() && "pop() on empty queue");
  const EventEntry out = entries_.back();
  entries_.pop_back();
  return out;
}

Time SortedListQueue::peek_time_below(Time bound) {
  if (entries_.empty()) return kNoEventBelow;
  const Time t = entries_.back().time;
  return t < bound ? t : kNoEventBelow;
}

}  // namespace mobichk::des
