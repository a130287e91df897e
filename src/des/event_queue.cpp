#include "des/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "des/sorted_list_queue.hpp"

namespace mobichk::des {

// ---------------------------------------------------------------------------
// BinaryHeapQueue
// ---------------------------------------------------------------------------

void BinaryHeapQueue::push(EventEntry entry) {
  heap_.push_back(entry);
  sift_up(heap_.size() - 1);
}

EventEntry BinaryHeapQueue::pop() {
  assert(!heap_.empty() && "pop() on empty queue");
  const EventEntry out = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return out;
}

Time BinaryHeapQueue::peek_time_below(Time bound) {
  if (heap_.empty()) return kNoEventBelow;
  const Time t = heap_.front().time;
  return t < bound ? t : kNoEventBelow;
}

void BinaryHeapQueue::sift_up(usize i) {
  while (i > 0) {
    const usize parent = (i - 1) / 2;
    if (!(heap_[i] < heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void BinaryHeapQueue::sift_down(usize i) {
  const usize n = heap_.size();
  for (;;) {
    const usize l = 2 * i + 1;
    const usize r = 2 * i + 2;
    usize smallest = i;
    if (l < n && heap_[l] < heap_[smallest]) smallest = l;
    if (r < n && heap_[r] < heap_[smallest]) smallest = r;
    if (smallest == i) return;
    std::swap(heap_[i], heap_[smallest]);
    i = smallest;
  }
}

// ---------------------------------------------------------------------------
// CalendarQueue
// ---------------------------------------------------------------------------

namespace {
constexpr usize kMinBuckets = 2;
constexpr usize kInitialBuckets = 8;
/// Width estimation: up to this many adjacent-gap samples, spread evenly
/// over the sorted pending set. Brown's classic rule samples only the
/// first ~25 events, which mis-tunes when the near future is dense and
/// the tail sparse (or vice versa); an even sample sees the whole
/// distribution at O(1) extra cost per resize.
constexpr usize kWidthSamples = 64;
/// Scan-cost monitor: every kTuneWindow pops, compare buckets scanned to
/// pops; above kScanPerPopLimit the geometry is stale (width far off the
/// current event spacing) and a re-tune is forced.
constexpr u64 kTuneWindow = 1024;
constexpr f64 kScanPerPopLimit = 4.0;
}  // namespace

CalendarQueue::CalendarQueue() { heads_.assign(kInitialBuckets, kNil); }

usize CalendarQueue::bucket_of(Time t) const noexcept {
  const f64 virtual_bucket = std::floor(t / bucket_width_);
  return static_cast<usize>(std::fmod(virtual_bucket, static_cast<f64>(heads_.size())));
}

void CalendarQueue::link_sorted(u32 slot) {
  // Lists are ascending in (time, seq), so the next event to fire is the
  // head (O(1) removal); a new node goes in front of the first later one.
  Node& node = nodes_[slot];
  u32* link = &heads_[bucket_of(node.time)];
  while (*link != kNil && before(nodes_[*link], node)) link = &nodes_[*link].next;
  node.next = *link;
  *link = slot;
}

void CalendarQueue::reposition(Time t) noexcept {
  cursor_time_ = t;
  const f64 year_len = bucket_width_ * static_cast<f64>(heads_.size());
  current_year_start_ = std::floor(t / year_len) * year_len;
  current_bucket_ = bucket_of(t);
}

void CalendarQueue::push(EventEntry entry) {
  assert(entry.time >= last_popped_ && "calendar queue does not support scheduling in the past");
  // The cursor may sit past this event's year (e.g. after a jump to a far
  // minimum that was then superseded): pull it back so the scan cannot
  // skip the new event.
  if (entry.time < cursor_time_) reposition(entry.time);
  u32 slot = free_;
  if (slot != kNil) {
    free_ = nodes_[slot].next;
  } else {
    slot = static_cast<u32>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& node = nodes_[slot];
  node.time = entry.time;
  node.seq = entry.seq;
  node.payload = entry.payload;
  link_sorted(slot);
  ++size_;
  if (size_ > 2 * heads_.size()) resize(heads_.size() * 2);
}

usize CalendarQueue::seek_min() {
  assert(size_ > 0 && "seek_min() on empty queue");
  const usize nb = heads_.size();
  for (;;) {
    const Time year_len = bucket_width_ * static_cast<f64>(nb);
    // Scan up to one full year starting at the cursor.
    for (usize k = 0; k < nb; ++k) {
      ++scan_steps_;
      const usize raw = current_bucket_ + k;
      const bool wrapped = raw >= nb;
      const usize b = raw % nb;
      const u32 head = heads_[b];
      const Time year_start = current_year_start_ + (wrapped ? year_len : 0.0);
      const Time bucket_top = year_start + bucket_width_ * static_cast<f64>(b + 1);
      if (head != kNil && nodes_[head].time < bucket_top) {
        if (wrapped) current_year_start_ += year_len;
        current_bucket_ = b;
        // Commit the cursor time too: a later push of an earlier event
        // must see a cursor it has to pull back, even when the found
        // minimum was only peeked and not removed.
        cursor_time_ = nodes_[head].time;
        return b;
      }
    }
    // Nothing due within a year: jump directly to the global minimum.
    scan_steps_ += nb;
    u32 min_slot = kNil;
    for (usize b = 0; b < nb; ++b) {
      const u32 head = heads_[b];
      if (head != kNil && (min_slot == kNil || before(nodes_[head], nodes_[min_slot]))) {
        min_slot = head;
      }
    }
    assert(min_slot != kNil);
    reposition(nodes_[min_slot].time);
    // Loop re-runs the scan; it will now find the minimum immediately.
  }
}

EventEntry CalendarQueue::pop() {
  assert(size_ > 0 && "pop() on empty queue");
  const usize b = seek_min();
  const u32 slot = heads_[b];
  Node& node = nodes_[slot];
  heads_[b] = node.next;
  node.next = free_;
  free_ = slot;
  EventEntry out;
  out.time = node.time;
  out.seq = node.seq;
  out.payload = node.payload;
  cursor_time_ = out.time;
  last_popped_ = out.time;
  --size_;
  ++pops_;
  if (size_ < heads_.size() / 2 && heads_.size() > kMinBuckets) {
    resize(heads_.size() / 2);
  } else if (pops_ - pops_at_tune_ >= kTuneWindow) {
    // Scan-cost monitor: when seek_min walked too many buckets per pop
    // over the last window, the width no longer matches the pending event
    // spacing — rebuild at the same bucket count with a fresh estimate.
    const u64 window_scans = scan_steps_ - scan_at_tune_;
    if (static_cast<f64>(window_scans) >
        kScanPerPopLimit * static_cast<f64>(pops_ - pops_at_tune_)) {
      ++retunes_;
      resize(heads_.size());
    }
    pops_at_tune_ = pops_;
    scan_at_tune_ = scan_steps_;
  }
  return out;
}

Time CalendarQueue::peek_time_below(Time bound) {
  if (size_ == 0) return kNoEventBelow;
  // seek_min commits the cursor to the minimum's bucket, which the
  // following pop re-uses; the minimum node stays linked, so this probe
  // cannot perturb pop order (push pulls the cursor back when an earlier
  // event arrives later).
  const Time t = nodes_[heads_[seek_min()]].time;
  return t < bound ? t : kNoEventBelow;
}

void CalendarQueue::resize(usize new_bucket_count) {
  // Gather the pending nodes and sort them by (time, seq); nodes stay
  // where they are.
  std::vector<u32> order;
  order.reserve(size_);
  for (const u32 head : heads_) {
    for (u32 slot = head; slot != kNil; slot = nodes_[slot].next) order.push_back(slot);
  }
  assert(order.size() == size_);
  std::sort(order.begin(), order.end(),
            [this](u32 a, u32 b) { return before(nodes_[a], nodes_[b]); });
  const auto time_at = [this, &order](usize i) { return nodes_[order[i]].time; };
  if (order.size() >= 2) {
    // Estimate the typical event spacing from adjacent gaps sampled
    // evenly across the whole pending set, and take their median: robust
    // both to a cluster of simultaneous events (zero gaps) and to a lone
    // far-future outlier (one huge gap), either of which would wreck a
    // mean-of-first-k estimate.
    const usize samples = std::min<usize>(order.size() - 1, kWidthSamples);
    const usize stride = (order.size() - 1) / samples;
    f64 gaps[kWidthSamples];
    for (usize s = 0; s < samples; ++s) {
      const usize i = s * stride;
      gaps[s] = time_at(i + 1) - time_at(i);
    }
    std::sort(gaps, gaps + samples);
    f64 gap = gaps[samples / 2];
    if (gap <= 0.0) {
      // Median gap is zero (mostly-simultaneous events): fall back to the
      // mean over the sampled span, then to the last known width.
      const f64 span = time_at((samples - 1) * stride + 1) - time_at(0);
      gap = span > 0.0 ? span / static_cast<f64>(samples) : bucket_width_ / 3.0;
    }
    bucket_width_ = 3.0 * gap;
  }
  heads_.assign(new_bucket_count, kNil);
  // Reset the cursor to the earliest pending event (or keep current epoch).
  reposition(order.empty() ? last_popped_ : time_at(0));
  // Re-link latest first: prepending in descending order leaves every
  // bucket list ascending without a walk.
  for (usize i = order.size(); i-- > 0;) {
    const u32 slot = order[i];
    u32& head = heads_[bucket_of(nodes_[slot].time)];
    nodes_[slot].next = head;
    head = slot;
  }
}

std::unique_ptr<EventQueue> make_event_queue(QueueKind kind) {
  switch (kind) {
    case QueueKind::kBinaryHeap:
      return std::make_unique<BinaryHeapQueue>();
    case QueueKind::kCalendar:
      return std::make_unique<CalendarQueue>();
    case QueueKind::kSortedList:
      return std::make_unique<SortedListQueue>();
  }
  return std::make_unique<BinaryHeapQueue>();
}

const char* queue_kind_name(QueueKind kind) noexcept {
  switch (kind) {
    case QueueKind::kBinaryHeap:
      return "binary-heap";
    case QueueKind::kCalendar:
      return "calendar";
    case QueueKind::kSortedList:
      return "sorted-list";
  }
  return "unknown";
}

QueueKind queue_kind_from_name(std::string_view name) {
  for (const QueueKind kind : kAllQueueKinds) {
    if (name == queue_kind_name(kind)) return kind;
  }
  throw std::invalid_argument("unknown queue kind: " + std::string(name));
}

}  // namespace mobichk::des
