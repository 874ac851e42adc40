#include "sim/simulator.h"

namespace numfabric::sim {

void Simulator::run() {
  stopped_ = false;
  {
    const EventScope scope(in_event_);
    while (!queue_.empty() && !stopped_) {
      EventQueue::Fired fired = queue_.pop();
      now_ = fired.at;
      running_ = OrderKey{fired.at, fired.rank, fired.seq};
      ++*rank_counter_;
      ++events_executed_;
      fired.action();
    }
  }
  end_run();
}

void Simulator::run_until(TimeNs until) {
  stopped_ = false;
  {
    const EventScope scope(in_event_);
    while (!queue_.empty() && !stopped_ && queue_.next_time() <= until) {
      EventQueue::Fired fired = queue_.pop();
      now_ = fired.at;
      running_ = OrderKey{fired.at, fired.rank, fired.seq};
      ++*rank_counter_;
      ++events_executed_;
      fired.action();
    }
  }
  if (!stopped_ && now_ < until) now_ = until;
  end_run();
}

void Simulator::run_to_key(const OrderKey& bound) {
  assert(!ranks_pending_);
  const EventScope scope(in_event_);
  while (!queue_.empty() && queue_.next_key() < bound) {
    EventQueue::Fired fired = queue_.pop();
    now_ = fired.at;
    running_ = OrderKey{fired.at, fired.rank, fired.seq};
    ++events_executed_;
    if (deferred_ranks_) {
      // The event's rank is assigned at the next barrier merge; until then
      // its pushes carry a provisional rank encoding its local index.
      window_log_.push_back(running_);
      exec_rank_field_ = kProvisionalRankBase + local_exec_count_++;
    } else {
      ++*rank_counter_;
    }
    fired.action();
  }
}

void Simulator::run_one() {
  EventQueue::Fired fired = queue_.pop();
  now_ = fired.at;
  running_ = OrderKey{fired.at, fired.rank, fired.seq};
  ++*rank_counter_;
  ++events_executed_;
  const EventScope scope(in_event_);
  fired.action();
}

void Simulator::finalize_window(std::vector<std::uint64_t>&& ranks) {
  assert(ranks.size() == window_log_.size());
  assert(!ranks_pending_);  // applied as this window opened
  last_ranks_.swap(ranks);  // the old buffer goes back to the caller's slot
  last_base_ = log_base_;
  ranks_pending_ = true;
  window_log_.clear();
  log_base_ = local_exec_count_;
}

void Simulator::apply_ranks() {
  if (!ranks_pending_) return;
  for (const EventId id : provisional_) {
    std::uint64_t* rank = queue_.rank_of(id);
    if (rank != nullptr && *rank >= kProvisionalRankBase) {
      *rank = resolve_rank(*rank);
    }
  }
  provisional_.clear();
  // Reserved keys, pushed or not: a slot reserved several times in the
  // window is listed once per reservation, and its first visit rewrites it.
  for (std::uint64_t* rank : reserved_) {
    if (*rank >= kProvisionalRankBase) *rank = resolve_rank(*rank);
  }
  reserved_.clear();
  ranks_pending_ = false;
}

}  // namespace numfabric::sim
