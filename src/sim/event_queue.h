// A cancellable priority queue of timed events.
//
// Events are totally ordered by OrderKey = (fire time, rank, sequence): the
// rank is the global execution rank of the event that pushed them and the
// sequence breaks ties among pushes of one rank in push order.  For a single
// serial simulator the rank is monotone non-decreasing in the sequence
// number, so the order degenerates to the classic (time, FIFO) tie-break and
// is independent of heap internals.  The sharded engine
// (sharded_simulator.h) reproduces the same total order across N per-shard
// queues by pushing with *provisional* ranks during parallel windows and
// finalizing them to exact global ranks at each barrier — see
// src/sim/README.md for the argument.
//
// Layout: an indexed 4-ary min-heap of 32-byte POD entries over a slab of
// slots holding the callables in small-buffer inline storage (InlineEvent —
// no std::function, no per-event heap allocation).  Each slot carries a
// generation counter and its current heap position: EventIds pack
// (generation, slot), so a stale handle — the event already fired, was
// cancelled, or the slot was reused — fails the generation check and
// cancel() is a safe no-op, while a live handle cancels eagerly in O(log4 n)
// via the back-pointer.  No tombstones accumulate and there is no hash-set
// of live ids to maintain per push/pop.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/inline_event.h"
#include "sim/substrate_stats.h"
#include "sim/time.h"
#include "util/dary_heap.h"

namespace numfabric::sim {

/// Handle returned by `push`, usable with `cancel`.  Opaque; packs the
/// target slot and its generation at scheduling time.
using EventId = std::uint64_t;

/// Never returned by `push`; the conventional "no event pending" sentinel.
inline constexpr EventId kNoEvent = 0;

/// Rank fields at or above this base are provisional: they encode the
/// pushing event's local execution index on its shard (base + index) until
/// the next engine barrier finalizes them to exact global ranks.  Real ranks
/// stay far below the base, so a provisional key orders after every
/// finalized key at the same instant — exactly where the serial order puts
/// it, because the provisional push's pusher executed inside the current
/// window and therefore outranks every already-finalized pusher.
inline constexpr std::uint64_t kProvisionalRankBase = std::uint64_t{1} << 63;

/// Total execution order of events, compared lexicographically:
///   1. `at`   — fire time;
///   2. `rank` — global execution rank of the pushing event (0 for pushes
///      made before any event ran, i.e. during setup);
///   3. `seq`  — push order within one rank (FIFO tie-break).
struct OrderKey {
  TimeNs at = 0;
  std::uint64_t rank = 0;
  std::uint64_t seq = 0;

  friend bool operator<(const OrderKey& a, const OrderKey& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.seq < b.seq;
  }

  /// The infimum of all keys with fire time `at`: every event firing
  /// strictly before `at` orders below it, every event at `at` or later
  /// orders at or above it.  Used as an exclusive window bound.
  static OrderKey floor_of(TimeNs at) { return OrderKey{at, 0, 0}; }
};

class EventQueue {
 public:
  /// Schedules `action` at absolute time `at` with an explicit order key.
  /// Returns a handle that can be passed to `cancel` as long as the event
  /// has not fired.
  template <typename F>
  EventId push(TimeNs at, std::uint64_t rank, std::uint64_t seq, F&& action) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.action = InlineEvent(std::forward<F>(action));
    if (heap_.size() == heap_.capacity()) {
      ++substrate_stats().allocs_event_queue;
    }
    heap_.push_back(Entry{at, rank, seq, slot});
    sift_up(heap_.size() - 1);
    ++substrate_stats().events_scheduled;
    return make_id(slot, s.generation);
  }

  /// Schedules `action` at absolute time `at` with rank 0 and the queue's
  /// own sequence counter — the historical (time, FIFO) order for direct
  /// EventQueue users.
  template <typename F>
  EventId push(TimeNs at, F&& action) {
    return push(at, /*rank=*/0, take_seq(), std::forward<F>(action));
  }

  /// Consumes the next sequence number.  The Simulator draws one per push;
  /// cross-shard message posts draw one too, so a message carries the same
  /// (rank, seq) the equivalent local push would have had.
  std::uint64_t take_seq() { return next_seq_++; }

  /// Cancels a pending event.  Cancelling an already-fired (or already
  /// cancelled) event is a harmless no-op: the handle's generation no longer
  /// matches the slot's.
  void cancel(EventId id);

  /// Mutable pointer to a pending event's rank field, or nullptr if the
  /// handle is stale.  Used by the barrier finalization to rewrite
  /// provisional ranks in place: the caller guarantees the rewrite preserves
  /// the relative order of every pair of entries (global ranks are assigned
  /// monotone in local push order), so the heap property is untouched and no
  /// re-sift is needed.
  std::uint64_t* rank_of(EventId id) {
    const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
    const auto generation = static_cast<std::uint32_t>(id >> 32);
    if (slot >= slots_.size() || slots_[slot].generation != generation) {
      return nullptr;  // already fired or cancelled
    }
    return &heap_[slots_[slot].heap_pos].rank;
  }

  /// True if no runnable event remains.
  bool empty() const { return heap_.empty(); }

  /// Number of runnable events.
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest runnable event.  Precondition: !empty().
  TimeNs next_time() const {
    assert(!heap_.empty());
    return heap_.front().at;
  }

  /// Full order key of the earliest runnable event.  Precondition: !empty().
  OrderKey next_key() const {
    assert(!heap_.empty());
    const Entry& e = heap_.front();
    return OrderKey{e.at, e.rank, e.seq};
  }

  struct Fired {
    TimeNs at;
    std::uint64_t rank;
    std::uint64_t seq;
    InlineEvent action;
  };

  /// Pops and returns the earliest runnable event.  Precondition: !empty().
  Fired pop();

 private:
  struct Entry {
    TimeNs at;
    std::uint64_t rank;  // pusher's global execution rank (or provisional)
    std::uint64_t seq;   // push order within the rank; final tie-break
    std::uint32_t slot;  // index into slots_
  };
  struct Slot {
    InlineEvent action;
    std::uint32_t generation = 1;  // bumped on fire/cancel; never 0
    std::uint32_t heap_pos = 0;    // current index in heap_
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }

  // A functor type (not a function pointer) so the sift loops inline it.
  struct Before {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at < b.at;
      if (a.rank != b.rank) return a.rank < b.rank;
      return a.seq < b.seq;
    }
  };

  /// on_move hook for the heap primitives: keeps each slot's heap
  /// back-pointer in sync as entries change position.
  auto track_position() {
    return [this](const Entry& e, std::size_t pos) {
      slots_[e.slot].heap_pos = static_cast<std::uint32_t>(pos);
    };
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  /// Removes the entry at heap position `pos`, restoring the heap property.
  void remove_entry(std::size_t pos);

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace numfabric::sim
