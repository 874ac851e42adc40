#include "sim/sharded_simulator.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace numfabric::sim {
namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ShardedSimulator::ShardedSimulator(int shards)
    : num_shards_(std::max(1, shards)) {
  if (!sharded()) return;
  // One rank counter and one coordinator-side sequence counter across every
  // member simulator: single-threaded phases (setup, global events, code
  // between runs) get globally ordered keys, exactly the order one serial
  // queue would have assigned, and shard windows draw their ranks from the
  // same counter at each barrier merge.
  global_.set_rank_counter(&rank_counter_);
  global_.set_shared_seq(&shared_seq_);
  shards_.reserve(static_cast<std::size_t>(num_shards_));
  for (int k = 0; k < num_shards_; ++k) {
    auto sim = std::make_unique<Simulator>();
    sim->set_rank_counter(&rank_counter_);
    sim->set_shared_seq(&shared_seq_);
    sim->set_global_stream(&global_);
    sim->set_deferred_ranks(true);
    shards_.push_back(std::move(sim));
  }
  perf_.resize(static_cast<std::size_t>(num_shards_));
  window_before_.resize(static_cast<std::size_t>(num_shards_));
  ranks_scratch_.resize(static_cast<std::size_t>(num_shards_));
  merge_pos_.resize(static_cast<std::size_t>(num_shards_));
  merge_head_.resize(static_cast<std::size_t>(num_shards_));
  workers_.resize(static_cast<std::size_t>(num_shards_));
  // Shard 0 runs on the coordinator; shards 1..N-1 get a thread each.
  threads_.reserve(static_cast<std::size_t>(num_shards_ - 1));
  for (int k = 1; k < num_shards_; ++k) {
    threads_.emplace_back([this, k] { worker_main(k); });
  }
}

ShardedSimulator::~ShardedSimulator() {
  if (threads_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    quit_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ShardedSimulator::add_barrier_hook(std::function<TimeNs()> hook) {
  barrier_hooks_.push_back(std::move(hook));
}

void ShardedSimulator::add_window_hook(std::function<void(int)> hook) {
  window_hooks_.push_back(std::move(hook));
}

void ShardedSimulator::stop() {
  stop_requested_ = true;
  global_.stop();
}

bool ShardedSimulator::pending() const {
  if (global_.pending()) return true;
  for (const auto& shard : shards_) {
    if (shard->pending()) return true;
  }
  return false;
}

std::uint64_t ShardedSimulator::events_executed() const {
  std::uint64_t total = global_.events_executed();
  for (const auto& shard : shards_) total += shard->events_executed();
  return total;
}

void ShardedSimulator::run() {
  if (!sharded()) {
    global_.run();
    return;
  }
  drive(kNever, /*drain=*/true);
}

void ShardedSimulator::run_until(TimeNs until) {
  if (!sharded()) {
    global_.run_until(until);
    return;
  }
  drive(until, /*drain=*/false);
}

void ShardedSimulator::drive(TimeNs until, bool drain) {
  if (failed_) {
    throw std::logic_error(
        "ShardedSimulator: cannot run again after a shard event threw");
  }
  if (lookahead_ <= 0) {
    throw std::logic_error(
        "ShardedSimulator: set_lookahead(>0) required before running");
  }
  stop_requested_ = false;
  global_.clear_stopped();

  for (;;) {
    // Barrier: workers quiesced; stage every cross-shard message so the
    // horizon computed below is causally complete.
    TimeNs base = kNever;
    for (const auto& hook : barrier_hooks_) base = std::min(base, hook());
    if (stop_requested_ || global_.stopped()) break;

    OrderKey gkey{};
    const bool has_global = global_.peek_next_key(gkey);
    if (has_global) base = std::min(base, gkey.at);
    for (const auto& shard : shards_) {
      if (shard->pending()) base = std::min(base, shard->next_time());
    }
    if (base == kNever) break;               // everything drained
    if (!drain && base > until) break;       // nothing left at or before until

    // Conservative window (channels are staged): any message a still-pending
    // event can produce fires at >= base + lookahead, so every key below
    // that floor is safe.  The event at `base` is always inside the window:
    // progress is guaranteed for lookahead > 0.
    OrderKey bound = OrderKey::floor_of(base + lookahead_);
    TimeNs clock_to = 0;  // plain windows leave shard clocks on their events
    if (!drain) {
      const OrderKey after_until = OrderKey::floor_of(until + 1);
      if (after_until < bound) bound = after_until;
    }
    // A minimal-key global event is itself the barrier: run shards short of
    // it, advance their clocks to its instant (its callbacks may schedule
    // relative delays into shard queues), then execute exactly that event.
    const bool exec_global = has_global && gkey < bound;
    if (exec_global) {
      bound = gkey;
      clock_to = gkey.at;
    }

    superstep(bound, clock_to);
    // Rank this window's events before the global event runs: its rank (and
    // the keys of everything it pushes) must come after theirs.
    finalize_window();
    rethrow_shard_error();

    if (exec_global) {
      settle_shards();  // the event may push into shard queues
      global_.run_one();
    }
  }
  settle_shards();

  // Align clocks the way one serial simulator would have left them: every
  // clock on the run's last instant, every event at or before it counted as
  // run (Simulator::end_run), so a send between runs finds each link's
  // transmitter where a serial run leaves it.  After stop() the serial
  // contract leaves the clock on the stopping event (a global-stream
  // sampler), which global_.now() and every shard clock already are.
  if (!stop_requested_ && !global_.stopped()) {
    TimeNs last = until;
    if (drain) {
      last = global_.now();
      for (const auto& shard : shards_) last = std::max(last, shard->now());
    }
    global_.advance_to(last);
    for (auto& shard : shards_) shard->advance_to(last);
    global_.end_run();
  }
  fold_worker_stats();
}

void ShardedSimulator::superstep(const OrderKey& bound, TimeNs clock_to) {
  for (int k = 0; k < num_shards_; ++k) {
    window_before_[static_cast<std::size_t>(k)] =
        shards_[static_cast<std::size_t>(k)]->events_executed();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    bound_ = bound;
    clock_to_ = clock_to;
    done_ = 0;
    ++epoch_;
  }
  cv_work_.notify_all();
  run_window(0);
  const std::uint64_t wait_start = steady_ns();
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return done_ == num_shards_ - 1; });
  }
  workers_[0].blocked_ns += steady_ns() - wait_start;
  for (int k = 0; k < num_shards_; ++k) {
    const auto idx = static_cast<std::size_t>(k);
    if (shards_[idx]->events_executed() == window_before_[idx]) {
      ++perf_[idx].null_steps;
    }
  }
}

void ShardedSimulator::open_shard(int k) {
  shards_[static_cast<std::size_t>(k)]->apply_ranks();
  for (const auto& hook : window_hooks_) hook(k);
}

void ShardedSimulator::settle_shards() {
  for (int k = 0; k < num_shards_; ++k) open_shard(k);
}

void ShardedSimulator::run_window(int k) {
  // bound_ and clock_to_ stay fixed until every shard has finished the
  // window: the coordinator writes them, under mu_, only after done_ says so.
  Simulator& sim = *shards_[static_cast<std::size_t>(k)];
  try {
    open_shard(k);
    sim.run_to_key(bound_);
    sim.advance_to(clock_to_);
  } catch (...) {
    workers_[static_cast<std::size_t>(k)].error = std::current_exception();
  }
}

void ShardedSimulator::finalize_window() {
  // Each shard's window log lists the keys it executed, in local execution
  // order — which is serial order restricted to that shard.  A k-way merge
  // over the logs therefore visits the window's events in exact serial
  // order; each visit assigns the next global rank.  A logged key may still
  // be provisional (the event was pushed and consumed inside this window):
  // its pusher sits earlier in the same log — strictly smaller key, hence
  // already merged and ranked — so heads always resolve.
  const auto resolve_head = [&](int k) -> bool {
    auto& shard = *shards_[static_cast<std::size_t>(k)];
    const auto& log = shard.window_log();
    const std::size_t pos = merge_pos_[static_cast<std::size_t>(k)];
    if (pos == log.size()) return false;
    OrderKey key = log[pos];
    if (key.rank >= kProvisionalRankBase) {
      const std::uint64_t idx =
          key.rank - kProvisionalRankBase - shard.window_log_base();
      key.rank = ranks_scratch_[static_cast<std::size_t>(k)][idx];
    }
    merge_head_[static_cast<std::size_t>(k)] = key;
    return true;
  };

  std::size_t remaining = 0;
  for (int k = 0; k < num_shards_; ++k) {
    const auto idx = static_cast<std::size_t>(k);
    merge_pos_[idx] = 0;
    ranks_scratch_[idx].resize(shards_[idx]->window_log().size());
    remaining += shards_[idx]->window_log().size();
    resolve_head(k);
  }
  while (remaining > 0) {
    int best = -1;
    for (int k = 0; k < num_shards_; ++k) {
      const auto idx = static_cast<std::size_t>(k);
      if (merge_pos_[idx] == shards_[idx]->window_log().size()) continue;
      if (best < 0 ||
          merge_head_[idx] < merge_head_[static_cast<std::size_t>(best)]) {
        best = k;
      }
    }
    const auto bidx = static_cast<std::size_t>(best);
    ranks_scratch_[bidx][merge_pos_[bidx]++] = ++rank_counter_;
    resolve_head(best);
    --remaining;
  }
  for (int k = 0; k < num_shards_; ++k) {
    const auto idx = static_cast<std::size_t>(k);
    // A throwing event is the last one its shard logged; a throwing window
    // hook ran before any of them.
    if (workers_[idx].error) {
      workers_[idx].error_rank =
          ranks_scratch_[idx].empty() ? 0 : ranks_scratch_[idx].back();
    }
    // finalize_window swaps buffers, handing the old rank vector back into
    // the scratch slot so no allocation recurs at steady state.
    shards_[idx]->finalize_window(std::move(ranks_scratch_[idx]));
  }
}

void ShardedSimulator::rethrow_shard_error() {
  WorkerState* first = nullptr;
  for (WorkerState& w : workers_) {
    if (w.error && (first == nullptr || w.error_rank < first->error_rank)) {
      first = &w;
    }
  }
  if (first == nullptr) return;
  // Every shard has quiesced, so no worker runs while the caller unwinds
  // (and destroys what the shards' events touch).
  failed_ = true;
  settle_shards();
  fold_worker_stats();
  std::rethrow_exception(first->error);
}

void ShardedSimulator::worker_main(int k) {
  const auto idx = static_cast<std::size_t>(k);
  std::uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const std::uint64_t wait_start = steady_ns();
    cv_work_.wait(lock, [&] { return quit_ || epoch_ != seen_epoch; });
    workers_[idx].blocked_ns += steady_ns() - wait_start;
    if (quit_) return;
    seen_epoch = epoch_;
    lock.unlock();

    run_window(k);

    lock.lock();
    workers_[idx].published = substrate_stats();
    if (++done_ == num_shards_ - 1) cv_done_.notify_one();
  }
}

void ShardedSimulator::fold_worker_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  for (int k = 0; k < num_shards_; ++k) {
    const auto idx = static_cast<std::size_t>(k);
    WorkerState& w = workers_[idx];
    substrate_stats() += w.published - w.folded;
    w.folded = w.published;
    perf_[idx].blocked_ns = w.blocked_ns;
    // Read once the run has settled: settle_shards() merges the messages
    // posted in the last window after that window's superstep.
    perf_[idx].events = shards_[idx]->events_executed();
    perf_[idx].merged_msgs = shards_[idx]->keyed_pushes();
  }
}

}  // namespace numfabric::sim
