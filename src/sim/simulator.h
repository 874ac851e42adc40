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
  /// to its exact rank, in place; a no-op when already done.  The rewrite
  /// maps provisional fields — monotone in local push order, and above every
  /// real rank — to ranks that are monotone in the same order and above
  /// every rank the queue held before the window, so no pair of queued
  /// entries swaps and the heap needs no re-sift.  A key pushed before the
  /// rewrite could fall between a provisional entry's old and new rank, so
  /// the engine calls this before any push or run_to_key() after a
  /// finalize_window() — on the shard's own thread as its next window
  /// opens, or on the coordinator before a global event or a return.
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
  template <typename F>
  EventId push(TimeNs at, F&& action) {
    assert(!ranks_pending_);
    const std::uint64_t rank = push_rank();
    const EventId id = queue_.push(at, rank, push_seq(), std::forward<F>(action));
    if (rank >= kProvisionalRankBase) provisional_.push_back(id);
    return id;
  }

  std::uint64_t push_rank() const {
    return in_shard_event_ ? exec_rank_field_ : *rank_counter_;
  }
  std::uint64_t push_seq() {
    if (shared_seq_ != nullptr && !in_shard_event_) return (*shared_seq_)++;
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

  // Deferred-rank state (engine-driven shard simulators only).
  bool deferred_ranks_ = false;
  bool in_shard_event_ = false;
  std::uint64_t exec_rank_field_ = 0;   // provisional rank while executing
  std::uint64_t local_exec_count_ = 0;  // events executed in deferred mode
  std::uint64_t log_base_ = 0;          // local index of window_log_[0]
  std::vector<OrderKey> window_log_;    // keys executed this window
  std::vector<EventId> provisional_;    // provisional pushes to rewrite
  bool ranks_pending_ = false;          // provisional_ awaits apply_ranks()
  std::vector<std::uint64_t> last_ranks_;  // ranks of the last window
  std::uint64_t last_base_ = 0;            // local index of last_ranks_[0]
};

}  // namespace numfabric::sim
