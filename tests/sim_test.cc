// Unit tests for the discrete-event core.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace numfabric::sim {
namespace {

TEST(TimeTest, NamedConstructors) {
  EXPECT_EQ(micros(1), 1'000);
  EXPECT_EQ(millis(1), 1'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2)), 2.0);
  EXPECT_DOUBLE_EQ(to_micros(micros(7)), 7.0);
}

TEST(TimeTest, TransmissionTimeExact) {
  // 1500 B at 10 Gbps = 1.2 us; at 40 Gbps = 300 ns.
  EXPECT_EQ(transmission_time(1500, 10e9), 1200);
  EXPECT_EQ(transmission_time(1500, 40e9), 300);
  EXPECT_EQ(transmission_time(40, 10e9), 32);
}

TEST(TimeTest, TransmissionTimeThatOverflowsTheClockThrows) {
  // 1500 B at 1e-6 b/s is 1.2e22 ns, past TimeNs's ~9.2e18.
  EXPECT_THROW(transmission_time(1500, 1e-6), std::overflow_error);
  EXPECT_THROW(transmission_time(1500, std::nan("")), std::overflow_error);
  EXPECT_EQ(transmission_time(1500, 1.0), 12'000'000'000'000);
  EXPECT_FALSE(valid_rate_bps(0.0));
  EXPECT_FALSE(valid_rate_bps(HUGE_VAL));
  EXPECT_FALSE(valid_rate_bps(std::nan("")));
  EXPECT_TRUE(valid_rate_bps(1e-6));
}

TEST(EventQueueTest, OrdersByTime) {
  EventQueue queue;
  std::vector<int> order;
  queue.push(30, [&] { order.push_back(3); });
  queue.push(10, [&] { order.push_back(1); });
  queue.push(20, [&] { order.push_back(2); });
  while (!queue.empty()) queue.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoTieBreakAtSameTime) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.push(42, [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) queue.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue queue;
  bool ran = false;
  const EventId id = queue.push(5, [&] { ran = true; });
  queue.push(6, [] {});
  queue.cancel(id);
  EXPECT_EQ(queue.size(), 1u);
  while (!queue.empty()) queue.pop().action();
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelFiredEventIsNoop) {
  EventQueue queue;
  const EventId id = queue.push(1, [] {});
  queue.pop().action();
  queue.cancel(id);  // must not corrupt accounting
  EXPECT_TRUE(queue.empty());
  queue.push(2, [] {});
  EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueueTest, CancelHeadThenNextTime) {
  EventQueue queue;
  const EventId id = queue.push(1, [] {});
  queue.push(9, [] {});
  queue.cancel(id);
  EXPECT_EQ(queue.next_time(), 9);
}

TEST(EventQueueTest, CancelOfCancelledIsNoop) {
  EventQueue queue;
  bool survivor_ran = false;
  const EventId id = queue.push(5, [] {});
  queue.push(6, [&] { survivor_ran = true; });
  queue.cancel(id);
  queue.cancel(id);  // double cancel: generation no longer matches
  EXPECT_EQ(queue.size(), 1u);
  while (!queue.empty()) queue.pop().action();
  EXPECT_TRUE(survivor_ran);
}

TEST(EventQueueTest, StaleHandleDoesNotCancelSlotReuse) {
  // After an event fires (or is cancelled) its slot is recycled for the next
  // push.  The old handle carries the old generation, so cancelling it must
  // not kill the slot's new occupant.
  EventQueue queue;
  const EventId stale = queue.push(1, [] {});
  queue.pop().action();  // fires; slot 0 returns to the free list
  bool second_ran = false;
  const EventId fresh = queue.push(2, [&] { second_ran = true; });
  EXPECT_NE(stale, fresh);
  queue.cancel(stale);  // must be a no-op
  EXPECT_EQ(queue.size(), 1u);
  queue.pop().action();
  EXPECT_TRUE(second_ran);
}

TEST(EventQueueTest, HandlesAreNeverTheNoEventSentinel) {
  EventQueue queue;
  for (int i = 0; i < 100; ++i) {
    const EventId id = queue.push(i, [] {});
    EXPECT_NE(id, kNoEvent);
    if (i % 3 == 0) queue.cancel(id);
  }
  while (!queue.empty()) queue.pop().action();
}

TEST(EventQueueTest, LargeCapturesSpillButStillRun) {
  // Captures beyond the inline buffer fall back to one heap allocation and
  // must behave identically.
  EventQueue queue;
  struct Big {
    std::uint64_t payload[16];
  };
  Big big{};
  big.payload[7] = 42;
  std::uint64_t seen = 0;
  queue.push(1, [big, &seen] { seen = big.payload[7]; });
  queue.pop().action();
  EXPECT_EQ(seen, 42u);
}

// Randomized push/cancel/pop stress, cross-checked against a naive reference
// queue (linear scan for the (time, push-order) minimum).
TEST(EventQueueTest, RandomizedStressMatchesNaiveReference) {
  struct RefEvent {
    TimeNs at;
    std::uint64_t order;
    int tag;
    bool alive;
  };
  EventQueue queue;
  std::vector<RefEvent> reference;
  std::vector<EventId> handles;
  std::vector<int> fired;
  std::vector<int> expected;
  Rng rng(1234);
  std::uint64_t order = 0;
  int next_tag = 0;

  for (int step = 0; step < 20'000; ++step) {
    const double dice = rng.uniform();
    if (dice < 0.5) {
      const auto at = static_cast<TimeNs>(rng.uniform_int(0, 1000));
      const int tag = next_tag++;
      handles.push_back(queue.push(at, [tag, &fired] { fired.push_back(tag); }));
      reference.push_back({at, order++, tag, true});
    } else if (dice < 0.75 && !reference.empty()) {
      // Cancel a random event — possibly one already popped or cancelled, to
      // exercise the stale-handle path.
      const std::size_t i = rng.index(reference.size());
      queue.cancel(handles[i]);
      reference[i].alive = false;
    } else if (!queue.empty()) {
      // Pop from the real queue; the reference picks its (time, order) min.
      std::size_t best = reference.size();
      for (std::size_t i = 0; i < reference.size(); ++i) {
        if (!reference[i].alive) continue;
        if (best == reference.size() || reference[i].at < reference[best].at ||
            (reference[i].at == reference[best].at &&
             reference[i].order < reference[best].order)) {
          best = i;
        }
      }
      ASSERT_NE(best, reference.size());
      EXPECT_EQ(queue.next_time(), reference[best].at);
      queue.pop().action();
      expected.push_back(reference[best].tag);
      reference[best].alive = false;
    }
    ASSERT_EQ(queue.size(), static_cast<std::size_t>(std::count_if(
                                reference.begin(), reference.end(),
                                [](const RefEvent& e) { return e.alive; })));
  }
  while (!queue.empty()) {
    std::size_t best = reference.size();
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (!reference[i].alive) continue;
      if (best == reference.size() || reference[i].at < reference[best].at ||
          (reference[i].at == reference[best].at &&
           reference[i].order < reference[best].order)) {
        best = i;
      }
    }
    queue.pop().action();
    expected.push_back(reference[best].tag);
    reference[best].alive = false;
  }
  EXPECT_EQ(fired, expected);
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  TimeNs seen = -1;
  sim.schedule_in(100, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndSetsClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(50, [&] { ++fired; });
  sim.schedule_in(150, [&] { ++fired; });
  sim.run_until(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 100);
  sim.run_until(200);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, NestedSchedulingDuringRun) {
  Simulator sim;
  std::vector<TimeNs> times;
  sim.schedule_in(10, [&] {
    times.push_back(sim.now());
    sim.schedule_in(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<TimeNs>{10, 15}));
}

TEST(SimulatorTest, StopAbortsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(1, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_in(2, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.pending());
}

TEST(SimulatorTest, RejectsNegativeDelayAndPastSchedule) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_in(-1, [] {}), std::invalid_argument);
  sim.schedule_in(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), std::invalid_argument);
}

TEST(SimulatorTest, CancelTimer) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_in(10, [&] { ran = true; });
  sim.schedule_in(5, [&] { sim.cancel(id); });
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(7);
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(3);
  const auto perm = rng.permutation(100);
  std::vector<bool> seen(100, false);
  for (std::size_t v : perm) {
    ASSERT_LT(v, 100u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(RngTest, IndexBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(7), 7u);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

}  // namespace
}  // namespace numfabric::sim
