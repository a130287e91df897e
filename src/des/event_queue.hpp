// Pending-event set abstractions for the simulation kernel.
//
// Three interchangeable implementations are provided:
//  * BinaryHeapQueue  -- O(log n) push/pop, the robust default;
//  * CalendarQueue    -- Brown's calendar queue, amortized O(1) under
//                        stationary event-time distributions;
//  * SortedListQueue  -- an eager, obviously-correct sorted list used as
//                        the reference oracle by the determinism audit.
//
// All order events by (time, sequence number), so a simulation produces an
// identical trace whichever queue it runs on (verified by tests and by the
// determinism audit, sim/audit.hpp).
//
// Cancellation is handle-based: push() returns an EventHandle carrying a
// slot index and a generation stamp. The slot is released (and its
// generation bumped) the moment the entry physically leaves the structure,
// so a stale handle — already fired, already cancelled, never scheduled —
// fails the generation check in O(1) without any hash-set bookkeeping.
#pragma once

#include <cassert>
#include <limits>
#include <memory>
#include <string_view>
#include <type_traits>
#include <vector>

#include "des/event.hpp"
#include "des/types.hpp"

namespace mobichk::des {

/// Handle to a scheduled event: which slot the queue filed it under and
/// the slot's generation at push time. Cancelling with a stale generation
/// (the event fired, was cancelled, or the slot was since reused) is a
/// strict no-op. A default-constructed handle is invalid (generations
/// start at 1).
struct EventHandle {
  u32 slot = 0;
  u32 gen = 0;

  /// True if this handle ever referred to an event.
  bool valid() const noexcept { return gen != 0; }
};

/// A scheduled event as stored in / returned by a queue.
struct EventEntry {
  Time time = 0.0;
  u64 seq = 0;  ///< Global scheduling order; breaks time ties deterministically.
  u32 slot = 0; ///< Filled by the queue at push; cancellation bookkeeping.
  EventPayload payload;  ///< Inline typed payload (no per-event allocation).

  friend bool operator<(const EventEntry& a, const EventEntry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
};

// Every push, heap sift, bucket insert and pop copies entries: keep them
// small PODs so those moves stay plain memcpys.
static_assert(std::is_trivially_copyable_v<EventEntry>, "EventEntry must stay a POD");
static_assert(sizeof(EventEntry) <= 56, "EventEntry grew past 56 bytes");

/// Generation-stamped slot registry shared by the queue implementations.
///
/// One slot per physically stored entry; state transitions are
/// free -> pending (acquire), pending -> cancelled (cancel) and
/// {pending, cancelled} -> free with a generation bump (release, at
/// physical removal). Every operation is O(1) on a flat array.
class SlotTable {
 public:
  /// Claims a slot for a new entry and returns its handle.
  EventHandle acquire() {
    u32 slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<u32>(recs_.size());
      recs_.push_back(Rec{});
    }
    recs_[slot].state = State::kPending;
    return EventHandle{slot, recs_[slot].gen};
  }

  /// pending -> cancelled. False (and no state change) when the handle is
  /// stale: wrong generation, already cancelled, or already released.
  bool cancel(EventHandle h) noexcept {
    if (h.slot >= recs_.size()) return false;
    Rec& rec = recs_[h.slot];
    if (rec.gen != h.gen || rec.state != State::kPending) return false;
    rec.state = State::kCancelled;
    return true;
  }

  /// True when `slot` holds a cancelled (tombstoned) entry.
  bool is_cancelled(u32 slot) const noexcept {
    return recs_[slot].state == State::kCancelled;
  }

  /// Frees `slot` when its entry leaves the structure; the generation bump
  /// invalidates every outstanding handle to it.
  void release(u32 slot) noexcept {
    Rec& rec = recs_[slot];
    assert(rec.state != State::kFree && "releasing a free slot");
    rec.state = State::kFree;
    ++rec.gen;
    free_.push_back(slot);
  }

  /// Slots currently allocated (capacity high-water mark, for tests).
  usize capacity() const noexcept { return recs_.size(); }

 private:
  enum class State : u8 { kFree, kPending, kCancelled };
  struct Rec {
    u32 gen = 1;  ///< 0 is reserved for the invalid handle.
    State state = State::kFree;
  };

  std::vector<Rec> recs_;
  std::vector<u32> free_;
};

/// Sentinel returned by EventQueue::peek_time_below when no live event
/// lies below the probe bound (or the queue is empty).
inline constexpr Time kNoEventBelow = std::numeric_limits<Time>::infinity();

/// Abstract pending-event set ordered by (time, seq).
class EventQueue {
 public:
  virtual ~EventQueue() = default;

  /// Inserts an event (the queue assigns entry.slot). `seq` values must be
  /// unique across the queue's life. Returns the cancellation handle.
  virtual EventHandle push(EventEntry entry) = 0;

  /// Removes and returns the minimum live event. Pre: !empty().
  virtual EventEntry pop() = 0;

  /// Time of the minimum live event without removing it. Pre: !empty().
  virtual Time peek_time() = 0;

  /// Horizon probe for shard windows: the minimum live event time if it is
  /// strictly below `bound`, else kNoEventBelow. Unlike peek_time() this is
  /// safe on an empty queue, and it never pops-and-reinserts — outstanding
  /// EventHandles stay valid and pop order is undisturbed.
  virtual Time peek_time_below(Time bound) = 0;

  /// Cancels the event behind `handle`. Returns true when a live pending
  /// event was removed; a stale handle (already fired, already cancelled,
  /// or never scheduled) is a no-op returning false and must not disturb
  /// the live count.
  virtual bool cancel(EventHandle handle) = 0;

  /// True when no live (non-cancelled) events remain.
  virtual bool empty() const = 0;

  /// Number of live events.
  virtual usize size() const = 0;

  /// Physical entries held (live + cancelled-but-unreclaimed). The
  /// tombstone bound — stored() <= 2 * size() + slack — is part of the
  /// contract and verified by the cancel-churn tests.
  virtual usize stored() const = 0;

  /// Tombstone-compaction passes run so far (0 for queues that never
  /// compact, e.g. the eager sorted list). Pull-based observability:
  /// the kernel probe reads this after the run instead of hooking the
  /// compaction path.
  virtual u64 compactions() const noexcept { return 0; }

  /// Human-readable implementation name (for benches and logs).
  virtual const char* name() const noexcept = 0;
};

/// Which queue implementation a Simulator should use.
enum class QueueKind : u8 {
  kBinaryHeap,
  kCalendar,
  kSortedList,
};

/// All queue kinds, in a stable order (used by the determinism audit).
inline constexpr QueueKind kAllQueueKinds[] = {QueueKind::kBinaryHeap, QueueKind::kCalendar,
                                               QueueKind::kSortedList};

/// Stable display name for a queue kind (matches EventQueue::name()).
const char* queue_kind_name(QueueKind kind) noexcept;

/// Inverse of queue_kind_name; throws std::invalid_argument on an
/// unknown name (used when deserializing experiment options).
QueueKind queue_kind_from_name(std::string_view name);

/// Binary min-heap over (time, seq) with lazy, handle-based cancellation.
/// Cancelled entries stay in the heap until they surface (or until a
/// compaction pass); their count is bounded by the live count plus a
/// constant, so cancel-heavy runs cannot grow the structure without bound.
class BinaryHeapQueue final : public EventQueue {
 public:
  EventHandle push(EventEntry entry) override;
  EventEntry pop() override;
  Time peek_time() override;
  Time peek_time_below(Time bound) override;
  bool cancel(EventHandle handle) override;
  bool empty() const override { return live_ == 0; }
  usize size() const override { return live_; }
  usize stored() const override { return heap_.size(); }
  u64 compactions() const noexcept override { return compactions_; }
  const char* name() const noexcept override { return "binary-heap"; }

 private:
  void sift_up(usize i);
  void sift_down(usize i);
  void drop_cancelled_top();
  void compact();

  std::vector<EventEntry> heap_;
  SlotTable slots_;
  usize live_ = 0;  ///< Entries neither cancelled nor popped.
  usize dead_ = 0;  ///< Cancelled entries still physically in the heap.
  u64 compactions_ = 0;
};

/// Brown's calendar queue: an array of day-buckets covering a rotating
/// "year"; each bucket holds a sorted list of events. Resizes itself to
/// keep ~1 event per bucket. Cancellation is lazy and handle-based, with
/// the same dead-entry bound as the binary heap.
///
/// The queue self-tunes from the live event population: every resize
/// re-estimates the bucket width from an even sample of pending-event
/// gaps (robust to a dense near-future or a sparse far tail), and a
/// scan-cost monitor — buckets examined per pop over a sliding window —
/// triggers a re-tune when the current geometry makes seek_min walk too
/// far. Tuning only changes internal layout; pop order is fixed by the
/// (time, seq) comparator, so traces are identical at any geometry.
class CalendarQueue final : public EventQueue {
 public:
  CalendarQueue();

  EventHandle push(EventEntry entry) override;
  EventEntry pop() override;
  Time peek_time() override;
  Time peek_time_below(Time bound) override;
  bool cancel(EventHandle handle) override;
  bool empty() const override { return live_ == 0; }
  usize size() const override { return live_; }
  usize stored() const override { return live_ + dead_; }
  u64 compactions() const noexcept override { return compactions_; }
  const char* name() const noexcept override { return "calendar"; }

  // -- tuning observability (pull-based, read by probes and benches) ----
  usize bucket_count() const noexcept { return buckets_.size(); }
  f64 bucket_width() const noexcept { return bucket_width_; }
  /// Buckets examined across all seek_min scans (the queue's dominant
  /// cost; ~1 per pop when well tuned).
  u64 scan_steps() const noexcept { return scan_steps_; }
  /// Re-tunes forced by the scan-cost monitor (excludes ordinary
  /// grow/shrink resizes).
  u64 retunes() const noexcept { return retunes_; }

 private:
  usize bucket_of(Time t) const noexcept;
  void resize(usize new_bucket_count);
  void insert_sorted(std::vector<EventEntry>& bucket, EventEntry entry);
  /// Moves the search cursor (bucket + year) to cover time `t`.
  void reposition(Time t) noexcept;
  /// Advances the cursor to the bucket whose tail is the next live event
  /// and returns that bucket's index. Pre: live_ > 0.
  usize seek_min();
  /// Pops cancelled entries off a bucket's tail, releasing their slots.
  void purge_tail(std::vector<EventEntry>& bucket);
  void compact();

  std::vector<std::vector<EventEntry>> buckets_;
  SlotTable slots_;
  f64 bucket_width_ = 1.0;
  usize current_bucket_ = 0;  ///< Bucket the search cursor is on.
  Time current_year_start_ = 0.0;
  Time cursor_time_ = 0.0;    ///< Virtual time the cursor has reached.
  Time last_popped_ = 0.0;
  usize live_ = 0;  ///< Entries neither cancelled nor popped.
  usize dead_ = 0;  ///< Cancelled entries still bucketed.
  u64 compactions_ = 0;
  u64 scan_steps_ = 0;         ///< Buckets examined by seek_min, cumulative.
  u64 pops_ = 0;               ///< Events popped, cumulative.
  u64 pops_at_tune_ = 0;       ///< pops_ when the monitor last checked.
  u64 scan_at_tune_ = 0;       ///< scan_steps_ when the monitor last checked.
  u64 retunes_ = 0;            ///< Monitor-forced re-tunes.
};

/// Factory for the queue implementations.
std::unique_ptr<EventQueue> make_event_queue(QueueKind kind);

}  // namespace mobichk::des
