#include "sim/event_queue.h"

#include <utility>

namespace numfabric::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if (slots_.size() == slots_.capacity()) {
    ++substrate_stats().allocs_event_queue;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.action.reset();
  if (++s.generation == 0) s.generation = 1;  // keep handles != kNoEvent
  if (free_slots_.size() == free_slots_.capacity()) {
    ++substrate_stats().allocs_event_queue;
  }
  free_slots_.push_back(slot);
}

void EventQueue::sift_up(std::size_t pos) {
  util::dary_sift_up(heap_, pos, Before{}, track_position());
}

void EventQueue::sift_down(std::size_t pos) {
  util::dary_sift_down(heap_, pos, Before{}, track_position());
}

void EventQueue::remove_entry(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos == last) {
    heap_.pop_back();
    return;
  }
  heap_[pos] = heap_[last];
  slots_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
  heap_.pop_back();
  // The migrated element may violate the property in either direction.
  sift_down(pos);
  sift_up(pos);
}

void EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size() || slots_[slot].generation != generation) {
    return;  // already fired, already cancelled, or never scheduled
  }
  remove_entry(slots_[slot].heap_pos);
  release_slot(slot);
  ++substrate_stats().events_cancelled;
}

EventQueue::Fired EventQueue::pop() {
  assert(!heap_.empty());
  const Entry root = heap_.front();
  Fired fired{root.at, root.rank, root.seq, std::move(slots_[root.slot].action)};
  util::dary_pop_root(heap_, Before{}, track_position());
  release_slot(root.slot);
  ++substrate_stats().events_fired;
  return fired;
}

}  // namespace numfabric::sim
