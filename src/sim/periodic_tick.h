// One synchronized periodic event on the global grid of interval multiples.
//
// The paper's control plane (Fig. 3, §5) assumes PTP-grade clock sync: every
// switch recomputes prices at the same instants t = k * T.  PeriodicTick is
// that grid as a reusable primitive: arm() schedules the first fire at the
// next multiple of `interval` strictly after now, and after each callback the
// tick re-arms itself for the following multiple.  One PeriodicTick can drive
// an arbitrary amount of per-interval work (see transport::ControlPlane), so
// the event queue carries one control event per interval regardless of how
// many links the fabric has.
//
// Ordering contract: the next fire is pushed AFTER the callback returns, so
// relative to other events at the same grid timestamp the tick keeps the
// FIFO position its reschedule earned on the previous tick.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>

#include "sim/simulator.h"

namespace numfabric::sim {

class PeriodicTick {
 public:
  PeriodicTick() = default;
  PeriodicTick(const PeriodicTick&) = delete;
  PeriodicTick& operator=(const PeriodicTick&) = delete;

  /// Cancels the pending fire (the owner outliving its Simulator is an error
  /// on the owner's side; everything in this codebase declares the Simulator
  /// first).
  ~PeriodicTick() { cancel(); }

  /// Starts ticking: `callback` first runs at the smallest grid point
  /// k * interval strictly after sim.now(), then every interval.  Re-arming
  /// an armed tick cancels the pending fire first — the grid restarts from
  /// the new interval.  Throws std::invalid_argument on interval <= 0.
  void arm(Simulator& sim, TimeNs interval, std::function<void()> callback) {
    if (interval <= 0) {
      throw std::invalid_argument("PeriodicTick: interval must be > 0");
    }
    cancel();
    sim_ = &sim;
    interval_ = interval;
    callback_ = std::move(callback);
    armed_ = true;
    schedule_next();
  }

  /// Stops ticking.  Safe to call when idle and from inside the callback;
  /// the tick can be re-armed afterwards.
  void cancel() {
    if (sim_ != nullptr && pending_ != kNoEvent) sim_->cancel(pending_);
    pending_ = kNoEvent;
    armed_ = false;
  }

  bool armed() const { return armed_; }
  TimeNs interval() const { return interval_; }

  /// Number of times the callback has run since construction.
  std::uint64_t ticks() const { return ticks_; }

 private:
  void fire() {
    pending_ = kNoEvent;
    ++ticks_;
    // Run from a local so an in-callback arm() (which overwrites callback_)
    // cannot destroy the callable while it is executing.
    std::function<void()> active = std::move(callback_);
    active();
    if (!callback_) callback_ = std::move(active);  // no re-arm: restore
    // The callback may have cancelled (armed_ dropped: stay stopped) or
    // re-armed (a fresh event is already pending); only the plain case
    // reschedules.
    if (armed_ && pending_ == kNoEvent) schedule_next();
  }

  void schedule_next() {
    const TimeNs next = (sim_->now() / interval_ + 1) * interval_;
    pending_ = sim_->schedule_at(next, [this] { fire(); });
  }

  Simulator* sim_ = nullptr;
  TimeNs interval_ = 0;
  std::function<void()> callback_;
  EventId pending_ = kNoEvent;
  bool armed_ = false;
  std::uint64_t ticks_ = 0;
};

}  // namespace numfabric::sim
