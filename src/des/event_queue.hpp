// Pending-event set abstractions for the simulation kernel.
//
// Three interchangeable implementations are provided:
//  * BinaryHeapQueue  -- O(log n) push/pop, the robust default;
//  * CalendarQueue    -- Brown's calendar queue, amortized O(1) under
//                        stationary event-time distributions;
//  * SortedListQueue  -- an obviously-correct sorted list used as the
//                        reference oracle by the determinism audit.
//
// All order events by (time, sequence number), so a simulation produces an
// identical trace whichever queue it runs on (verified by tests and by the
// determinism audit, sim/audit.hpp).
//
// A scheduled event is never withdrawn: the model voids a stale timer with
// an epoch guard when it fires (sim/mobility.hpp, sim/workload.hpp), so the
// queues have no cancel and every stored entry is pending.
#pragma once

#include <limits>
#include <memory>
#include <string_view>
#include <type_traits>
#include <vector>

#include "des/event.hpp"
#include "des/types.hpp"

namespace mobichk::des {

/// A scheduled event as stored in / returned by a queue.
struct EventEntry {
  Time time = 0.0;
  u64 seq = 0;  ///< Global scheduling order; breaks time ties deterministically.
  EventPayload payload;  ///< Inline typed payload (no per-event allocation).

  friend bool operator<(const EventEntry& a, const EventEntry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
};

// Every push, heap sift, node store and pop copies entries: keep them
// small PODs so those moves stay plain memcpys.
static_assert(std::is_trivially_copyable_v<EventEntry>, "EventEntry must stay a POD");
static_assert(sizeof(EventEntry) <= 48, "EventEntry grew past 48 bytes");

/// Sentinel returned by EventQueue::peek_time_below when no event lies
/// below the probe bound (or the queue is empty).
inline constexpr Time kNoEventBelow = std::numeric_limits<Time>::infinity();

/// Abstract pending-event set ordered by (time, seq).
class EventQueue {
 public:
  virtual ~EventQueue() = default;

  /// Inserts an event. `seq` values must be unique across the queue's life.
  virtual void push(EventEntry entry) = 0;

  /// Removes and returns the minimum event. Pre: !empty().
  virtual EventEntry pop() = 0;

  /// The minimum event time if it is strictly below `bound`, else
  /// kNoEventBelow; safe on an empty queue. It never pops-and-reinserts,
  /// so pop order is undisturbed. peek_time_below(kNoEventBelow) is the
  /// plain peek.
  virtual Time peek_time_below(Time bound) = 0;

  /// True when no events remain.
  virtual bool empty() const = 0;

  /// Number of pending events.
  virtual usize size() const = 0;

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

/// Binary min-heap over (time, seq).
class BinaryHeapQueue final : public EventQueue {
 public:
  void push(EventEntry entry) override;
  EventEntry pop() override;
  Time peek_time_below(Time bound) override;
  bool empty() const override { return heap_.empty(); }
  usize size() const override { return heap_.size(); }
  const char* name() const noexcept override { return "binary-heap"; }

  /// Bytes the heap array holds (capacity x entry size). Pull-based, for
  /// memory tests.
  usize held_bytes() const noexcept { return heap_.capacity() * sizeof(EventEntry); }

 private:
  void sift_up(usize i);
  void sift_down(usize i);

  std::vector<EventEntry> heap_;
};

/// Brown's calendar queue: an array of day-buckets covering a rotating
/// "year"; each bucket is an ascending singly-linked list of events.
/// Resizes itself to keep ~1 event per bucket.
///
/// Storage is one node pool: every pending entry lives exactly once, in a
/// node, and a bucket is just the u32 index of its earliest node (kNil
/// when empty). Popped nodes go on a free list threaded through the same
/// `next` links, and a push takes the most recently freed node before it
/// grows the pool. pop unlinks a head and a resize re-links nodes rather
/// than copying entries, so the queue holds O(pending high-water) nodes
/// plus 4 bytes per bucket whatever its bucket history — a bucket that
/// was once crowded keeps no capacity of its own.
///
/// The queue self-tunes from the pending event population: every resize
/// re-estimates the bucket width from an even sample of pending-event
/// gaps (robust to a dense near-future or a sparse far tail), and a
/// scan-cost monitor — buckets examined per pop over a sliding window —
/// triggers a re-tune when the current geometry makes seek_min walk too
/// far. Tuning only changes internal layout; pop order is fixed by the
/// (time, seq) comparator, so traces are identical at any geometry.
class CalendarQueue final : public EventQueue {
 public:
  CalendarQueue();

  void push(EventEntry entry) override;
  EventEntry pop() override;
  Time peek_time_below(Time bound) override;
  bool empty() const override { return size_ == 0; }
  usize size() const override { return size_; }
  const char* name() const noexcept override { return "calendar"; }

  /// Bytes the queue's arrays hold (capacities x element sizes).
  /// Pull-based, for memory tests.
  usize held_bytes() const noexcept {
    return nodes_.capacity() * sizeof(Node) + heads_.capacity() * sizeof(u32);
  }

  // -- tuning observability (pull-based, read by tests and benches) -----
  usize bucket_count() const noexcept { return heads_.size(); }
  f64 bucket_width() const noexcept { return bucket_width_; }
  /// Buckets examined across all seek_min scans (the queue's dominant
  /// cost; ~1 per pop when well tuned).
  u64 scan_steps() const noexcept { return scan_steps_; }
  /// Re-tunes forced by the scan-cost monitor (excludes ordinary
  /// grow/shrink resizes).
  u64 retunes() const noexcept { return retunes_; }

 private:
  /// End-of-list link and empty-bucket head.
  static constexpr u32 kNil = std::numeric_limits<u32>::max();

  /// A pooled entry: linked into its bucket's list while pending, into
  /// the free list once popped.
  struct Node {
    Time time = 0.0;
    u64 seq = 0;
    u32 next = kNil;  ///< Next (later) node in the same bucket, or next free node.
    EventPayload payload;
  };
  static_assert(sizeof(Node) <= 56, "a node grew past 56 bytes");

  /// (time, seq) order, as EventEntry::operator<.
  static bool before(const Node& a, const Node& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  usize bucket_of(Time t) const noexcept;
  void resize(usize new_bucket_count);
  /// Links node `slot` into its bucket's list, keeping the list ascending.
  void link_sorted(u32 slot);
  /// Moves the search cursor (bucket + year) to cover time `t`.
  void reposition(Time t) noexcept;
  /// Advances the cursor to the bucket whose head is the next event and
  /// returns that bucket's index. Pre: size_ > 0.
  usize seek_min();

  std::vector<Node> nodes_;  ///< The pool; pending nodes are bucket-linked.
  std::vector<u32> heads_;   ///< Per bucket: earliest node's index, or kNil.
  u32 free_ = kNil;          ///< Head of the free-node list.
  f64 bucket_width_ = 1.0;
  usize current_bucket_ = 0;  ///< Bucket the search cursor is on.
  Time current_year_start_ = 0.0;
  Time cursor_time_ = 0.0;    ///< Virtual time the cursor has reached.
  Time last_popped_ = 0.0;
  usize size_ = 0;             ///< Pending entries.
  u64 scan_steps_ = 0;         ///< Buckets examined by seek_min, cumulative.
  u64 pops_ = 0;               ///< Events popped, cumulative.
  u64 pops_at_tune_ = 0;       ///< pops_ when the monitor last checked.
  u64 scan_at_tune_ = 0;       ///< scan_steps_ when the monitor last checked.
  u64 retunes_ = 0;            ///< Monitor-forced re-tunes.
};

/// Factory for the queue implementations.
std::unique_ptr<EventQueue> make_event_queue(QueueKind kind);

}  // namespace mobichk::des
