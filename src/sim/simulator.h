// The discrete-event simulator facade: a clock plus an event queue.
//
// This replaces ns-3 used by the paper.  All network components hold a
// reference to one Simulator and drive themselves by scheduling callbacks.
// The schedule API is typed: any callable (lambda, std::function, function
// object) is stored directly in the event queue's inline small-buffer slots,
// so scheduling never heap-allocates for captures up to
// InlineEvent::kInlineBytes.
//
// Every push carries the OrderKey (fire time, rank of the pushing event,
// sequence) from event_queue.h.  A standalone Simulator assigns ranks
// inline: the global execution counter increments as each event fires, and
// pushes stamp the current value — monotone in push order, hence
// order-identical to the historical (time, FIFO) queue.
//
// A Simulator also serves as one logical process of the sharded parallel
// engine (sharded_simulator.h).  In that role the engine drives it through
// the hooks below: run_to_key() executes a bounded window, deferred-rank
// mode pushes with provisional ranks that the engine finalizes to exact
// global ranks at each barrier, and advance_to() keeps the shard clock in
// step.  None of this changes serial behavior — the deferred machinery is
// dead weight behind one branch unless the engine enables it.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace numfabric::sim {

/// The (rank, seq) half of an OrderKey, as one push would have consumed it.
struct PushKey {
  std::uint64_t rank;
  std::uint64_t seq;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  TimeNs now() const { return now_; }

  /// Schedules `action` to run `delay` from now.  Negative delays are an
  /// error (they would rewind the clock).
  template <typename F>
  EventId schedule_in(TimeNs delay, F&& action) {
    if (delay < 0) throw std::invalid_argument("Simulator: negative delay");
    return push(now_ + delay, std::forward<F>(action));
  }

  /// Schedules `action` at the absolute time `at` (must be >= now()).
  template <typename F>
  EventId schedule_at(TimeNs at, F&& action) {
    if (at < now_) throw std::invalid_argument("Simulator: schedule in the past");
    return push(at, std::forward<F>(action));
  }

  void cancel(EventId id) { queue_.cancel(id); }

  /// Runs events until the queue drains or `stop()` is called.
  void run();

  /// Runs events with time <= `until`, then sets the clock to `until`.
  void run_until(TimeNs until);

  /// Makes `run`/`run_until` return after the current event completes.
  void stop() { stopped_ = true; }

  /// Number of events executed so far (for perf reporting).
  std::uint64_t events_executed() const { return events_executed_; }

  bool pending() const { return !queue_.empty(); }

  // --- reserved keys (net::Link's lazy serialization finish) ---------------

  /// Consumes the key the next push would use, for an event that may be
  /// pushed later — or never — with schedule_reserved().  Inside a shard
  /// window the key carries a provisional rank; apply_ranks() rewrites
  /// `key` in place with the queue's provisional entries, so it stays exact
  /// however many windows later it is pushed.  `key` must stay at a fixed
  /// address until that rewrite (the next apply_ranks()).
  void reserve_push_key(PushKey& key) {
    key = consume_push_key();
    if (key.rank >= kProvisionalRankBase) reserved_.push_back(&key.rank);
  }

  /// Pushes `action` at `at` with a key from reserve_push_key().  Not a
  /// keyed push: keyed_pushes() counts cross-shard messages only.
  template <typename F>
  EventId schedule_reserved(TimeNs at, PushKey key, F&& action) {
    assert(!in_event() || !(OrderKey{at, key.rank, key.seq} < running_key()));
    return push(at, key, std::forward<F>(action));
  }

  /// True while an event runs anywhere in the engine: one of this
  /// simulator's, or — for a shard simulator — one of the global stream's.
  bool in_event() const {
    return in_event_ || (global_ != nullptr && global_->in_event_);
  }

  /// True if an event keyed (at, key) has not run yet in the serial order:
  /// it orders above the running event.  Between runs every event at or
  /// before now() has run, except after stop(): then the event that called
  /// stop() stands for the running one.
  bool is_ahead(TimeNs at, PushKey key) const {
    return running_key() < OrderKey{at, key.rank, key.seq};
  }

  // --- sharded-engine hooks (see sharded_simulator.h) ----------------------
  // Used only when this Simulator is one logical process (or the global
  // stream) of a ShardedSimulator.  Standalone users never need these.

  /// Schedules with an explicit order key — how merged cross-shard messages
  /// re-enter a shard queue carrying their serial-equivalent key.
  template <typename F>
  EventId schedule_keyed(TimeNs at, std::uint64_t rank, std::uint64_t seq,
                         F&& action) {
    assert(!ranks_pending_);
    ++keyed_pushes_;
    return queue_.push(at, rank, seq, std::forward<F>(action));
  }

  /// Ends a run at now(): unless an event stopped it, every event keyed at
  /// or before now() counts as run (see is_ahead).  run() and run_until()
  /// end this way; the engine ends each run of its global stream with it.
  void end_run() {
    if (!stopped_) running_ = OrderKey{now_, kLastKey, kLastKey};
  }

  /// Executes events in key order while key < `bound` (exclusive).
  void run_to_key(const OrderKey& bound);

  /// Pops and executes exactly one event (the global stream's barrier
  /// events run one at a time, interleaved with shard windows).
  /// Precondition: pending().
  void run_one();

  /// Advances the clock to `t` if it is ahead (never rewinds).
  void advance_to(TimeNs t) {
    if (t > now_) now_ = t;
  }

  /// Key of the earliest pending event; false when the queue is empty.
  bool peek_next_key(OrderKey& key) const {
    if (queue_.empty()) return false;
    key = queue_.next_key();
    return true;
  }

  /// Fire time of the earliest pending event.  Precondition: pending().
  TimeNs next_time() const { return queue_.next_time(); }

  bool stopped() const { return stopped_; }
  void clear_stopped() { stopped_ = false; }

  /// Points this simulator at a shared global execution-rank counter.  The
  /// engine installs one counter on every member simulator, so ranks are
  /// unique across the whole engine and monotone in serial execution order.
  void set_rank_counter(std::uint64_t* counter) { rank_counter_ = counter; }

  /// Points this simulator at the engine's shared sequence counter, used by
  /// every push made outside a shard window (setup, global-stream events,
  /// code running between runs).  All such pushes happen on the coordinator
  /// thread; drawing them from one counter orders a single rank's pushes
  /// across member queues exactly as one serial queue would have.
  void set_shared_seq(std::uint64_t* counter) { shared_seq_ = counter; }

  /// Points a shard simulator at the engine's global stream, whose running
  /// event is the engine's outside this shard's windows (in_event,
  /// is_ahead): a global event may send on a shard-owned link, and between
  /// runs the global stream's clock and stop state are the engine's.
  void set_global_stream(const Simulator* global) { global_ = global; }

  /// Deferred-rank mode (shard simulators only): events executed via
  /// run_to_key() push with provisional ranks encoding the pusher's local
  /// execution index, the window's executed keys are logged for the barrier
  /// merge, and finalize_window() rewrites the survivors with exact ranks.
  void set_deferred_ranks(bool deferred) { deferred_ranks_ = deferred; }

  /// Keys of the events executed since the last finalize, in local
  /// execution order.  Coordinator-only, workers quiesced.
  const std::vector<OrderKey>& window_log() const { return window_log_; }

  /// Local execution index of window_log()[0].
  std::uint64_t window_log_base() const { return log_base_; }

  /// Installs the global execution ranks for this window's events (parallel
  /// array to window_log(), assigned by the engine's barrier merge) and
  /// opens the next window.  Rewriting the surviving provisional pushes is
  /// left to apply_ranks().
  void finalize_window(std::vector<std::uint64_t>&& ranks);

  /// Rewrites every surviving provisional push of the last finalized window
  /// — queued events and reserved keys — to its exact rank, in place; a
  /// no-op when already done.  The rewrite maps provisional fields —
  /// monotone in local push order, and above every real rank — to ranks
  /// that are monotone in the same order and above every rank the queue
  /// held before the window, so no pair of queued entries swaps and the
  /// heap needs no re-sift.  A key pushed before the rewrite could fall
  /// between a provisional entry's old and new rank, so the engine calls
  /// this before any push or run_to_key() after a finalize_window() — on
  /// the shard's own thread as its next window opens, or on the coordinator
  /// before a global event or a return.
  void apply_ranks();

  /// Resolves a rank field recorded during the last finalized window (the
  /// router resolves message keys with this as it drains them).
  std::uint64_t resolve_rank(std::uint64_t rank_field) const {
    if (rank_field < kProvisionalRankBase) return rank_field;
    const std::uint64_t idx = rank_field - kProvisionalRankBase;
    assert(idx >= last_base_ && idx - last_base_ < last_ranks_.size());
    return last_ranks_[idx - last_base_];
  }

  /// Number of schedule_keyed() pushes (the per-shard merged-message
  /// counter in the perf table).
  std::uint64_t keyed_pushes() const { return keyed_pushes_; }

  /// Consumes the (rank, seq) pair the next schedule_in/schedule_at call
  /// would use.  Links posting cross-shard messages draw it so the message
  /// carries the same key an ordinary push would have consumed.
  PushKey consume_push_key() { return PushKey{push_rank(), push_seq()}; }

 private:
  static constexpr std::uint64_t kLastKey =
      std::numeric_limits<std::uint64_t>::max();

  template <typename F>
  EventId push(TimeNs at, F&& action) {
    return push(at, consume_push_key(), std::forward<F>(action));
  }
  template <typename F>
  EventId push(TimeNs at, PushKey key, F&& action) {
    assert(!ranks_pending_);
    const EventId id =
        queue_.push(at, key.rank, key.seq, std::forward<F>(action));
    if (key.rank >= kProvisionalRankBase) provisional_.push_back(id);
    return id;
  }

  /// The running event's key, engine-wide (see is_ahead).
  const OrderKey& running_key() const {
    return in_event_ || global_ == nullptr ? running_ : global_->running_;
  }

  /// Marks the simulator as running events for its lifetime.  Cleared on
  /// unwind too: pushes made after a throwing event (by the caller, between
  /// runs) must take between-run keys again.
  class EventScope {
   public:
    explicit EventScope(bool& flag) : flag_(flag) { flag_ = true; }
    ~EventScope() { flag_ = false; }
    EventScope(const EventScope&) = delete;
    EventScope& operator=(const EventScope&) = delete;

   private:
    bool& flag_;
  };

  /// A shard event is running: pushes take provisional ranks and the
  /// shard queue's own sequence.
  bool in_window_event() const { return in_event_ && deferred_ranks_; }
  std::uint64_t push_rank() const {
    return in_window_event() ? exec_rank_field_ : *rank_counter_;
  }
  std::uint64_t push_seq() {
    if (shared_seq_ != nullptr && !in_window_event()) return (*shared_seq_)++;
    return queue_.take_seq();
  }

  EventQueue queue_;
  TimeNs now_ = 0;
  bool stopped_ = false;
  std::uint64_t events_executed_ = 0;
  std::uint64_t own_rank_counter_ = 0;
  std::uint64_t* rank_counter_ = &own_rank_counter_;
  std::uint64_t* shared_seq_ = nullptr;
  std::uint64_t keyed_pushes_ = 0;
  // Running-event tracking (is_ahead): the key of the event running or last
  // run, or {now, max, max} after a run that was not stopped.
  bool in_event_ = false;
  OrderKey running_{};
  const Simulator* global_ = nullptr;  // engine's global stream (shards only)

  // Deferred-rank state (engine-driven shard simulators only).
  bool deferred_ranks_ = false;
  std::uint64_t exec_rank_field_ = 0;   // provisional rank while executing
  std::uint64_t local_exec_count_ = 0;  // events executed in deferred mode
  std::uint64_t log_base_ = 0;          // local index of window_log_[0]
  std::vector<OrderKey> window_log_;    // keys executed this window
  std::vector<EventId> provisional_;    // provisional pushes to rewrite
  std::vector<std::uint64_t*> reserved_;  // provisional reserved keys' ranks
  bool ranks_pending_ = false;          // provisional_ awaits apply_ranks()
  std::vector<std::uint64_t> last_ranks_;  // ranks of the last window
  std::uint64_t last_base_ = 0;            // local index of last_ranks_[0]
};

}  // namespace numfabric::sim
