#include "des/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "des/sorted_list_queue.hpp"

namespace mobichk::des {

namespace {
/// Cancelled entries tolerated in a structure beyond the live count before
/// a compaction pass reclaims them. Keeps stored entries <= 2*live + slack
/// so cancel-heavy runs cannot grow the queues without bound, while small
/// queues never thrash on compaction. Checked after every cancel and every
/// pop: a pop lowers the live count just as a cancel does.
constexpr usize kDeadSlack = 64;
}  // namespace

// ---------------------------------------------------------------------------
// BinaryHeapQueue
// ---------------------------------------------------------------------------

EventHandle BinaryHeapQueue::push(EventEntry entry) {
  const EventHandle handle = slots_.acquire();
  entry.slot = handle.slot;
  heap_.push_back(std::move(entry));
  sift_up(heap_.size() - 1);
  ++live_;
  assert(heap_.size() == live_ + dead_);
  return handle;
}

void BinaryHeapQueue::drop_cancelled_top() {
  while (!heap_.empty() && slots_.is_cancelled(heap_.front().slot)) {
    slots_.release(heap_.front().slot);
    --dead_;
    std::swap(heap_.front(), heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }
}

EventEntry BinaryHeapQueue::pop() {
  drop_cancelled_top();
  assert(!heap_.empty() && "pop() on empty queue");
  EventEntry out = std::move(heap_.front());
  std::swap(heap_.front(), heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  slots_.release(out.slot);
  --live_;
  assert(heap_.size() == live_ + dead_);
  if (dead_ > live_ + kDeadSlack) compact();
  return out;
}

Time BinaryHeapQueue::peek_time() {
  drop_cancelled_top();
  assert(!heap_.empty() && "peek_time() on empty queue");
  return heap_.front().time;
}

Time BinaryHeapQueue::peek_time_below(Time bound) {
  if (live_ == 0) return kNoEventBelow;
  // Dropping cancelled tops is a pure reclaim: it releases only tombstoned
  // slots, so live handles and the eventual pop order are untouched.
  drop_cancelled_top();
  const Time t = heap_.front().time;
  return t < bound ? t : kNoEventBelow;
}

bool BinaryHeapQueue::cancel(EventHandle handle) {
  // Lazy: mark the slot and skip the entry when it surfaces. Only a
  // still-pending generation may be cancelled; a fired, unknown or
  // double-cancelled handle must neither disturb live_ nor leak a
  // tombstone.
  if (!slots_.cancel(handle)) return false;
  --live_;
  ++dead_;
  if (dead_ > live_ + kDeadSlack) compact();
  return true;
}

void BinaryHeapQueue::compact() {
  // Reclaim every cancelled entry in one pass and rebuild the heap. Pop
  // order is unaffected: the heap property plus the (time, seq) comparator
  // determine it regardless of internal layout.
  ++compactions_;
  usize kept = 0;
  for (usize i = 0; i < heap_.size(); ++i) {
    if (slots_.is_cancelled(heap_[i].slot)) {
      slots_.release(heap_[i].slot);
      continue;
    }
    if (kept != i) heap_[kept] = std::move(heap_[i]);
    ++kept;
  }
  heap_.resize(kept);
  dead_ = 0;
  for (usize i = heap_.size() / 2; i-- > 0;) sift_down(i);
  assert(heap_.size() == live_);
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

EventHandle CalendarQueue::push(EventEntry entry) {
  assert(entry.time >= last_popped_ && "calendar queue does not support scheduling in the past");
  // The cursor may sit past this event's year (e.g. after a jump to a far
  // minimum that was then superseded): pull it back so the scan cannot
  // skip the new event.
  if (entry.time < cursor_time_) reposition(entry.time);
  const EventHandle handle = slots_.acquire();
  // Slots are handed out densely, so a fresh one is always the next node.
  assert(handle.slot <= nodes_.size());
  if (handle.slot == nodes_.size()) nodes_.emplace_back();
  Node& node = nodes_[handle.slot];
  node.time = entry.time;
  node.seq = entry.seq;
  node.payload = entry.payload;
  link_sorted(handle.slot);
  ++live_;
  if (live_ > 2 * heads_.size()) resize(heads_.size() * 2);
  return handle;
}

bool CalendarQueue::cancel(EventHandle handle) {
  // Only a still-pending generation may be cancelled: decrementing live_
  // for a fired or unknown handle made empty() report true while real
  // events were still bucketed, silently truncating the simulation.
  if (!slots_.cancel(handle)) return false;
  --live_;
  ++dead_;
  if (dead_ > live_ + kDeadSlack) compact();
  return true;
}

void CalendarQueue::purge_head(usize bucket) {
  u32& head = heads_[bucket];
  while (head != kNil && slots_.is_cancelled(head)) {
    const u32 slot = head;
    head = nodes_[slot].next;
    slots_.release(slot);
    --dead_;
  }
}

void CalendarQueue::compact() {
  // Unlink every cancelled node in place; lists stay sorted, so pop
  // order is unaffected.
  ++compactions_;
  for (u32& head : heads_) {
    u32* link = &head;
    while (*link != kNil) {
      const u32 slot = *link;
      if (slots_.is_cancelled(slot)) {
        *link = nodes_[slot].next;
        slots_.release(slot);
      } else {
        link = &nodes_[slot].next;
      }
    }
  }
  dead_ = 0;
}

usize CalendarQueue::seek_min() {
  assert(live_ > 0 && "seek_min() on empty queue");
  const usize nb = heads_.size();
  for (;;) {
    const Time year_len = bucket_width_ * static_cast<f64>(nb);
    // Scan up to one full year starting at the cursor.
    for (usize k = 0; k < nb; ++k) {
      ++scan_steps_;
      const usize raw = current_bucket_ + k;
      const bool wrapped = raw >= nb;
      const usize b = raw % nb;
      // Purge cancelled nodes at the head (the earliest events).
      purge_head(b);
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
      purge_head(b);
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
  assert(live_ > 0 && "pop() on empty queue");
  const usize b = seek_min();
  const u32 slot = heads_[b];
  const Node& node = nodes_[slot];
  heads_[b] = node.next;
  EventEntry out;
  out.time = node.time;
  out.seq = node.seq;
  out.slot = slot;
  out.payload = node.payload;
  cursor_time_ = out.time;
  last_popped_ = out.time;
  slots_.release(slot);
  --live_;
  ++pops_;
  if (dead_ > live_ + kDeadSlack) compact();
  if (live_ < heads_.size() / 2 && heads_.size() > kMinBuckets) {
    resize(heads_.size() / 2);
  } else if (pops_ - pops_at_tune_ >= kTuneWindow) {
    // Scan-cost monitor: when seek_min walked too many buckets per pop
    // over the last window, the width no longer matches the live event
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

Time CalendarQueue::peek_time() {
  assert(live_ > 0 && "peek_time() on empty queue");
  // seek_min commits the cursor to the minimum's bucket, which the
  // following pop re-uses; it never removes the entry, so a push of an
  // earlier event in between still pulls the cursor back.
  return nodes_[heads_[seek_min()]].time;
}

Time CalendarQueue::peek_time_below(Time bound) {
  if (live_ == 0) return kNoEventBelow;
  // seek_min only moves the cursor and purges tombstones; the minimum
  // node stays linked, so this probe cannot perturb pop order or
  // invalidate live handles (push pulls the cursor back when an earlier
  // event arrives later).
  const Time t = nodes_[heads_[seek_min()]].time;
  return t < bound ? t : kNoEventBelow;
}

void CalendarQueue::resize(usize new_bucket_count) {
  // Gather the live slots (releasing tombstones on the way) and sort them
  // by (time, seq); nodes stay where they are.
  std::vector<u32> order;
  order.reserve(live_);
  for (const u32 head : heads_) {
    for (u32 slot = head; slot != kNil;) {
      const u32 next = nodes_[slot].next;
      if (slots_.is_cancelled(slot)) {
        slots_.release(slot);
        --dead_;
      } else {
        order.push_back(slot);
      }
      slot = next;
    }
  }
  assert(dead_ == 0);
  assert(order.size() == live_);
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
