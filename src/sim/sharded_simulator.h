// Conservative parallel discrete-event engine: N shard Simulators plus one
// global stream, bit-identical to a single serial Simulator.  The caller's
// thread is the coordinator: it runs the global stream and shard 0, and
// N-1 worker threads run shards 1..N-1.
//
// Each shard is a logical process owning a disjoint slice of the network
// (one or more leaves with their hosts and edge links; see
// net/shard_plan.h).  Cross-shard interactions are timestamped messages
// that, by construction, arrive at least `lookahead` after the event that
// sent them (every cross-shard path crosses a core link, whose propagation
// delay lower-bounds the gap).  The engine runs barrier-synchronized
// windows:
//
//   1. stage   — barrier hooks take every cross-shard message posted in
//                the last window out of its channel (coordinator thread)
//                and report the earliest fire time among them;
//   2. bound   — let `base` be the earliest pending fire time anywhere
//                (staged messages, shards or global stream).  Any message
//                a future event can still produce fires at
//                >= base + lookahead, so every event with
//                key < floor_of(base + lookahead) is causally closed;
//   3. window  — every shard first pushes the messages staged for it into
//                its own queue (window hooks), then runs up to that bound,
//                all in parallel (shard 0 on the coordinator), and
//                quiesces.  The event at `base` always executes, so the
//                engine makes progress whenever lookahead > 0 (the classic
//                Chandy–Misra–Bryant argument; with every LP adjacent to
//                every other through the core, per-neighbor null messages
//                collapse to this one shared horizon).
//
// Global-stream events (control-plane ticks on the PeriodicTick grid, flow
// arrivals, experiment samplers) act as barriers of their own: when the
// global queue holds the minimal key, the window bound shrinks to it, the
// shards quiesce short of it, and the coordinator executes exactly that
// one event before opening the next window.
//
// Determinism: every event carries an OrderKey (fire, rank of the pushing
// event, seq) — see event_queue.h.  Shard events push with provisional
// ranks during windows; after each superstep the coordinator merges the
// per-shard logs of just-executed events in exact serial order and assigns
// global execution ranks from the engine-wide counter.  Each shard rewrites
// its surviving provisional pushes in place as its next window opens, and
// staged messages resolve theirs as they are pushed.  Global-stream events
// are ranked inline as they run.  The result is the same total order one
// serial queue realizes, so --shards=1 and --shards=N produce
// byte-identical output — see src/sim/README.md for the full argument.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/simulator.h"
#include "sim/substrate_stats.h"
#include "sim/time.h"

namespace numfabric::sim {

/// Per-shard progress counters for the perf table.  events / merged_msgs /
/// null_steps are deterministic; blocked_ns is wall time and is not.
/// A worker's blocked time is its wait for the next window; shard 0's is
/// the coordinator's wait, after its own window, for the workers to finish.
struct ShardPerf {
  std::uint64_t events = 0;       // events executed on this shard
  std::uint64_t merged_msgs = 0;  // cross-shard messages merged into it
  std::uint64_t null_steps = 0;   // windows that executed zero local events
  std::uint64_t blocked_ns = 0;   // wall time spent waiting at barriers
};

class ShardedSimulator {
 public:
  /// `shards` <= 1 is the passthrough mode: one serial Simulator, no
  /// threads, behavior identical to using that Simulator directly.
  /// Otherwise starts shards - 1 worker threads.
  explicit ShardedSimulator(int shards);
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;
  ~ShardedSimulator();

  bool sharded() const { return num_shards_ > 1; }
  int num_shards() const { return num_shards_; }

  /// The global stream: control-plane grid, flow arrivals, samplers.
  /// In passthrough mode this is the one and only simulator.
  Simulator& global() { return global_; }
  const Simulator& global() const { return global_; }

  /// Shard k's simulator.  Precondition: sharded() and 0 <= k < num_shards.
  Simulator& shard(int k) { return *shards_[static_cast<std::size_t>(k)]; }

  /// Minimum cross-shard delay; must be > 0 before the first run when
  /// sharded.  (net/shard_plan.h derives it from the core-link delay.)
  void set_lookahead(TimeNs lookahead) { lookahead_ = lookahead; }
  TimeNs lookahead() const { return lookahead_; }

  /// What a barrier hook returns when it staged nothing.
  static constexpr TimeNs kNever = std::numeric_limits<TimeNs>::max();

  /// Registers a hook run on the coordinator thread at every barrier, with
  /// all workers quiesced.  It returns the earliest fire time among the
  /// events it staged for the shards' next windows (kNever for none); the
  /// window bound counts them as pending.  The shard router stages its
  /// channels here; the fabric drains deferred cross-shard maintenance.
  void add_barrier_hook(std::function<TimeNs()> hook);

  /// Registers a hook run for shard k at the start of each window, on the
  /// thread that runs shard k and before any of its events: it pushes what
  /// the barrier hooks staged for k into k's queue.  The coordinator also
  /// runs it for every shard before a global event and before run/run_until
  /// return, so between runs every pending event sits in a queue.
  void add_window_hook(std::function<void(int)> hook);

  // --- serial-compatible facade -------------------------------------------

  TimeNs now() const { return global_.now(); }

  template <typename F>
  EventId schedule_in(TimeNs delay, F&& action) {
    return global_.schedule_in(delay, std::forward<F>(action));
  }

  template <typename F>
  EventId schedule_at(TimeNs at, F&& action) {
    return global_.schedule_at(at, std::forward<F>(action));
  }

  void cancel(EventId id) { global_.cancel(id); }

  /// Runs until every queue and channel drains, or stop() is called.
  /// If shard events throw, every shard finishes its window first, then
  /// the exception of the throwing event with the smallest key propagates
  /// (the one a serial run would have thrown).  The engine can then only be
  /// destroyed: a later run/run_until throws std::logic_error.
  void run();

  /// Runs events with time <= `until`, then sets every clock to `until`.
  /// Exceptions propagate as in run().
  void run_until(TimeNs until);

  /// Makes run/run_until return at the next barrier.  Callable from global
  /// events (samplers) and between runs; shard events must not call it.
  void stop();

  /// True while any queue holds a runnable event.
  bool pending() const;

  /// Total events executed across the global stream and all shards.
  std::uint64_t events_executed() const;

  /// Per-shard counters; empty in passthrough mode.
  const std::vector<ShardPerf>& shard_perf() const { return perf_; }

 private:
  void drive(TimeNs until, bool drain);
  /// Runs one parallel window: every shard executes events with
  /// key < `bound`, then advances its clock to at least `clock_to`.  The
  /// coordinator runs shard 0 while the workers run the rest.
  void superstep(const OrderKey& bound, TimeNs clock_to);
  /// Shard k's part of the current window: open_shard(k), then its events.
  /// An exception thrown by either is stored in workers_[k].error, not
  /// propagated.
  void run_window(int k);
  /// Readies shard k's queue for pushes and runs: rewrites its provisional
  /// ranks (Simulator::apply_ranks), then runs the window hooks for k.
  /// Shard k's thread does this as each window opens.
  void open_shard(int k);
  /// open_shard for every shard, on the coordinator: before a global event
  /// (it may push into shard queues) and before run/run_until return or
  /// rethrow.
  void settle_shards();
  /// Merges the per-shard logs of the window just executed in serial key
  /// order and installs the global execution ranks in every shard (see
  /// Simulator::finalize_window).  Coordinator thread, workers quiesced.
  void finalize_window();
  /// Rethrows the stored exception whose event ranked first, if any.
  void rethrow_shard_error();
  void worker_main(int k);
  void fold_worker_stats();

  /// One per shard.  Shard 0 runs on the coordinator, so its substrate
  /// counters land in the caller's TLS directly and its published/folded
  /// stay zero.
  struct WorkerState {
    SubstrateStats published;  // worker TLS totals, copied under mu_
    SubstrateStats folded;     // portion already folded into the caller TLS
    std::uint64_t blocked_ns = 0;
    std::exception_ptr error;      // what this shard's window threw
    std::uint64_t error_rank = 0;  // global rank of the throwing event
  };

  const int num_shards_;
  TimeNs lookahead_ = 0;
  Simulator global_;
  std::vector<std::unique_ptr<Simulator>> shards_;
  std::vector<std::function<TimeNs()>> barrier_hooks_;
  std::vector<std::function<void(int)>> window_hooks_;
  /// Global execution-rank counter shared by every member simulator: the
  /// global stream increments it inline as its events run; shard windows
  /// draw their ranks from it in the barrier merge.
  std::uint64_t rank_counter_ = 0;
  /// Shared sequence counter for coordinator-side pushes (setup, global
  /// events, code between runs) — see Simulator::set_shared_seq.
  std::uint64_t shared_seq_ = 0;
  bool stop_requested_ = false;
  bool failed_ = false;  // a shard event threw; the engine cannot resume
  std::vector<ShardPerf> perf_;
  std::vector<std::uint64_t> window_before_;  // scratch: events before window
  // finalize_window scratch, reused across barriers.
  std::vector<std::vector<std::uint64_t>> ranks_scratch_;
  std::vector<std::size_t> merge_pos_;
  std::vector<OrderKey> merge_head_;

  // Worker synchronization.  All shared control state lives under mu_; the
  // cv_work_/cv_done_ edges give the happens-before that publishes shard
  // simulator state between workers and the coordinator.
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;
  int done_ = 0;  // workers that finished the current window
  OrderKey bound_{};
  TimeNs clock_to_ = 0;
  bool quit_ = false;
  std::vector<WorkerState> workers_;
  std::vector<std::thread> threads_;
};

}  // namespace numfabric::sim
