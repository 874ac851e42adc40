#include "sim/simulator.h"

namespace numfabric::sim {

void Simulator::run() {
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    EventQueue::Fired fired = queue_.pop();
    now_ = fired.at;
    ++*rank_counter_;
    ++events_executed_;
    fired.action();
  }
}

void Simulator::run_until(TimeNs until) {
  stopped_ = false;
  while (!queue_.empty() && !stopped_ && queue_.next_time() <= until) {
    EventQueue::Fired fired = queue_.pop();
    now_ = fired.at;
    ++*rank_counter_;
    ++events_executed_;
    fired.action();
  }
  if (!stopped_ && now_ < until) now_ = until;
}

void Simulator::run_to_key(const OrderKey& bound) {
  assert(!ranks_pending_);
  while (!queue_.empty() && queue_.next_key() < bound) {
    EventQueue::Fired fired = queue_.pop();
    now_ = fired.at;
    ++events_executed_;
    if (deferred_ranks_) {
      // The event's rank is assigned at the next barrier merge; until then
      // its pushes carry a provisional rank encoding its local index.
      window_log_.push_back(OrderKey{fired.at, fired.rank, fired.seq});
      exec_rank_field_ = kProvisionalRankBase + local_exec_count_++;
      // Cleared on unwind too: pushes made after a throwing event (by the
      // caller, between runs) must take shared keys again.
      struct InShardEvent {
        bool& flag;
        explicit InShardEvent(bool& f) : flag(f) { flag = true; }
        ~InShardEvent() { flag = false; }
      } in_event(in_shard_event_);
      fired.action();
    } else {
      ++*rank_counter_;
      fired.action();
    }
  }
}

void Simulator::run_one() {
  EventQueue::Fired fired = queue_.pop();
  now_ = fired.at;
  ++*rank_counter_;
  ++events_executed_;
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
  ranks_pending_ = false;
}

}  // namespace numfabric::sim
