// sim::PeriodicTick: grid alignment from arbitrary start times, cancel and
// re-arm semantics, and same-timestamp FIFO interaction with the Simulator's
// event ordering — the contract transport::ControlPlane's determinism rests
// on.
#include <gtest/gtest.h>

#include <vector>

#include "sim/periodic_tick.h"
#include "sim/simulator.h"

namespace numfabric::sim {
namespace {

TEST(PeriodicTickTest, FiresOnTheGridFromTimeZero) {
  Simulator sim;
  PeriodicTick tick;
  std::vector<TimeNs> fired;
  tick.arm(sim, micros(30), [&] { fired.push_back(sim.now()); });
  sim.run_until(micros(100));
  EXPECT_EQ(fired, (std::vector<TimeNs>{micros(30), micros(60), micros(90)}));
  EXPECT_EQ(tick.ticks(), 3u);
  EXPECT_TRUE(tick.armed());
}

TEST(PeriodicTickTest, ArmingOffGridAlignsToTheNextMultiple) {
  Simulator sim;
  PeriodicTick tick;
  std::vector<TimeNs> fired;
  // Arm at t = 7 us: the first fire must land on the *global* grid (30 us),
  // not 7 + 30 — the paper's PTP-synchronized updates.
  sim.schedule_at(micros(7), [&] {
    tick.arm(sim, micros(30), [&] { fired.push_back(sim.now()); });
  });
  sim.run_until(micros(70));
  EXPECT_EQ(fired, (std::vector<TimeNs>{micros(30), micros(60)}));
}

TEST(PeriodicTickTest, ArmingExactlyOnGridFiresOneIntervalLater) {
  Simulator sim;
  PeriodicTick tick;
  std::vector<TimeNs> fired;
  sim.schedule_at(micros(30), [&] {
    tick.arm(sim, micros(30), [&] { fired.push_back(sim.now()); });
  });
  sim.run_until(micros(95));
  // Strictly after now: an arm at t = 30 us first fires at 60 us.
  EXPECT_EQ(fired, (std::vector<TimeNs>{micros(60), micros(90)}));
}

TEST(PeriodicTickTest, CancelStopsFutureFires) {
  Simulator sim;
  PeriodicTick tick;
  int fires = 0;
  tick.arm(sim, micros(10), [&] { ++fires; });
  sim.schedule_at(micros(25), [&] { tick.cancel(); });
  sim.run_until(micros(100));
  EXPECT_EQ(fires, 2);  // 10 us and 20 us only
  EXPECT_FALSE(tick.armed());
}

TEST(PeriodicTickTest, CancelFromInsideTheCallbackSticks) {
  Simulator sim;
  PeriodicTick tick;
  int fires = 0;
  tick.arm(sim, micros(10), [&] {
    if (++fires == 2) tick.cancel();
  });
  sim.run_until(micros(100));
  EXPECT_EQ(fires, 2);
  EXPECT_FALSE(tick.armed());
}

TEST(PeriodicTickTest, ReArmRestartsTheGridWithTheNewInterval) {
  Simulator sim;
  PeriodicTick tick;
  std::vector<TimeNs> fired;
  tick.arm(sim, micros(30), [&] { fired.push_back(sim.now()); });
  sim.schedule_at(micros(35), [&] {
    tick.arm(sim, micros(50), [&] { fired.push_back(sim.now()); });
  });
  sim.run_until(micros(160));
  // 30 us from the first arm; then the 50 us grid: 50, 100, 150.
  EXPECT_EQ(fired, (std::vector<TimeNs>{micros(30), micros(50), micros(100),
                                        micros(150)}));
  EXPECT_EQ(tick.interval(), micros(50));
}

TEST(PeriodicTickTest, ReArmFromInsideTheCallbackTakesOver) {
  Simulator sim;
  PeriodicTick tick;
  std::vector<TimeNs> fired;
  std::function<void()> on_fire = [&] {
    fired.push_back(sim.now());
    if (fired.size() == 1) tick.arm(sim, micros(40), on_fire);
  };
  tick.arm(sim, micros(30), on_fire);
  sim.run_until(micros(130));
  // 30 us, then the 40 us grid from t = 30: 40, 80, 120.
  EXPECT_EQ(fired, (std::vector<TimeNs>{micros(30), micros(40), micros(80),
                                        micros(120)}));
}

TEST(PeriodicTickTest, KeepsFifoPositionAmongSameTimestampEvents) {
  // Events at the tick's grid time scheduled BEFORE the tick was armed run
  // before it; events scheduled after run after it.  On subsequent grid
  // points the tick's position is set by its reschedule (pushed during the
  // previous fire).
  Simulator sim;
  PeriodicTick tick;
  std::vector<int> order;
  sim.schedule_at(micros(30), [&] { order.push_back(1); });
  tick.arm(sim, micros(30), [&] { order.push_back(2); });
  sim.schedule_at(micros(30), [&] { order.push_back(3); });
  // At 60 us: the tick re-armed itself during the 30 us fire, so an event
  // scheduled at run time t = 45 us lands after it.
  sim.schedule_at(micros(45), [&] {
    sim.schedule_at(micros(60), [&] { order.push_back(4); });
  });
  sim.run_until(micros(70));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 2, 4}));
}

TEST(PeriodicTickTest, InCallbackReArmKeepsTheExecutingCallableAlive) {
  // Re-arming replaces the stored callback while the old one is still on
  // the stack; the old callable's owning captures must stay valid for the
  // rest of its invocation (regression: use-after-free under ASan).
  Simulator sim;
  PeriodicTick tick;
  std::vector<int> seen;
  tick.arm(sim, micros(10), [&, payload = std::vector<int>{41}]() mutable {
    tick.arm(sim, micros(20), [&] { seen.push_back(99); });
    payload[0] += 1;  // owning capture touched AFTER the re-arm
    seen.push_back(payload[0]);
  });
  sim.run_until(micros(50));
  EXPECT_EQ(seen, (std::vector<int>{42, 99, 99}));
}

TEST(PeriodicTickTest, GridSurvivesRepeatedRunUntilBoundaries) {
  // run_until sets the clock to `until` between ticks (the sharded engine
  // and every experiment loop pause this way); the grid must not drift no
  // matter where the pauses land — on-grid, off-grid, or mid-interval.
  Simulator sim;
  PeriodicTick tick;
  std::vector<TimeNs> fired;
  tick.arm(sim, micros(30), [&] { fired.push_back(sim.now()); });
  sim.run_until(micros(45));   // fires 30, clock parks off-grid at 45
  sim.run_until(micros(60));   // fires 60, clock parks exactly on-grid
  sim.run_until(micros(71));   // no fire, clock parks mid-interval
  sim.run_until(micros(200));  // 90..180 in one leg
  EXPECT_EQ(fired,
            (std::vector<TimeNs>{micros(30), micros(60), micros(90),
                                 micros(120), micros(150), micros(180)}));
  EXPECT_EQ(tick.ticks(), 6u);
  EXPECT_TRUE(tick.armed());
}

TEST(PeriodicTickTest, ReArmAfterOffGridPauseAlignsToTheGlobalGrid) {
  // Cancel, pause with run_until at an off-grid time, then re-arm between
  // runs: the first fire lands on the next *global* multiple of the
  // interval, not pause-time + interval.
  Simulator sim;
  PeriodicTick tick;
  std::vector<TimeNs> fired;
  tick.arm(sim, micros(30), [&] { fired.push_back(sim.now()); });
  sim.run_until(micros(40));  // fires 30
  tick.cancel();
  sim.run_until(micros(47));  // clock sits at 47 us, nothing pending
  tick.arm(sim, micros(30), [&] { fired.push_back(sim.now()); });
  sim.run_until(micros(130));
  EXPECT_EQ(fired, (std::vector<TimeNs>{micros(30), micros(60), micros(90),
                                        micros(120)}));
}

TEST(PeriodicTickTest, RejectsNonPositiveInterval) {
  Simulator sim;
  PeriodicTick tick;
  EXPECT_THROW(tick.arm(sim, 0, [] {}), std::invalid_argument);
  EXPECT_THROW(tick.arm(sim, -5, [] {}), std::invalid_argument);
}

TEST(PeriodicTickTest, CancelWhenIdleIsANoOp) {
  Simulator sim;
  PeriodicTick tick;
  tick.cancel();  // never armed
  EXPECT_FALSE(tick.armed());
  EXPECT_EQ(tick.ticks(), 0u);
}

}  // namespace
}  // namespace numfabric::sim
