// Tests for the DES kernel: event ordering, cancellation, horizons,
// timers and periodic processes.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "des/scheduler.hpp"
#include "des/simulation.hpp"
#include "des/timer.hpp"
#include "util/rng.hpp"

namespace probemon::des {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(3.0, [&] { order.push_back(3); });
  sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.schedule_at(2.0, [&] { order.push_back(2); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 3.0);
}

TEST(Scheduler, SameTimeEventsFireFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    sched.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sched.run_all();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, PropertyRandomScheduleFiresSorted) {
  // Property: however events are inserted (including from inside other
  // events), execution times are non-decreasing.
  util::Rng rng(12345);
  Scheduler sched;
  std::vector<double> fired;
  std::function<void()> spawn = [&] {
    fired.push_back(sched.now());
    if (fired.size() < 2000) {
      sched.schedule_after(rng.uniform(0.0, 10.0),
                           [&] { spawn(); });
      if (rng.bernoulli(0.5)) {
        sched.schedule_after(rng.uniform(0.0, 5.0), [&] { spawn(); });
      }
    }
  };
  sched.schedule_at(0.0, spawn);
  sched.run_until(1e9);
  ASSERT_GE(fired.size(), 2000u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1], fired[i]);
  }
}

TEST(Scheduler, SchedulingInThePastThrows) {
  Scheduler sched;
  sched.schedule_at(5.0, [] {});
  sched.run_all();
  EXPECT_EQ(sched.now(), 5.0);
  EXPECT_THROW(sched.schedule_at(4.0, [] {}), std::logic_error);
  EXPECT_THROW(sched.schedule_after(-1.0, [] {}), std::logic_error);
}

TEST(Scheduler, NonFiniteTimeThrows) {
  Scheduler sched;
  EXPECT_THROW(sched.schedule_at(kTimeInfinity, [] {}), std::logic_error);
  EXPECT_THROW(sched.schedule_at(std::nan(""), [] {}), std::logic_error);
}

TEST(Scheduler, EmptyCallbackThrows) {
  Scheduler sched;
  EXPECT_THROW(sched.schedule_at(1.0, Scheduler::Callback{}),
               std::logic_error);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  const EventId id = sched.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sched.pending(id));
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.pending(id));
  EXPECT_FALSE(sched.cancel(id));  // second cancel is a no-op
  sched.run_all();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelAfterFireReturnsFalse) {
  Scheduler sched;
  const EventId id = sched.schedule_at(1.0, [] {});
  sched.run_all();
  EXPECT_FALSE(sched.cancel(id));
}

TEST(Scheduler, RunUntilStopsAtHorizonAndAdvancesClock) {
  Scheduler sched;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sched.schedule_at(static_cast<double>(i), [&] { ++count; });
  }
  sched.run_until(5.5);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sched.now(), 5.5);
  sched.run_until(100.0);
  EXPECT_EQ(count, 10);
}

TEST(Scheduler, RunUntilHonorsEventsScheduledDuringRun) {
  Scheduler sched;
  std::vector<double> fired;
  sched.schedule_at(1.0, [&] {
    fired.push_back(sched.now());
    sched.schedule_after(1.0, [&] { fired.push_back(sched.now()); });
  });
  sched.run_until(3.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
}

TEST(Scheduler, NextTimeSkipsCancelled) {
  Scheduler sched;
  const EventId a = sched.schedule_at(1.0, [] {});
  sched.schedule_at(2.0, [] {});
  sched.cancel(a);
  EXPECT_EQ(sched.next_time(), 2.0);
}

TEST(Scheduler, PendingCountTracksLiveEvents) {
  Scheduler sched;
  const EventId a = sched.schedule_at(1.0, [] {});
  sched.schedule_at(2.0, [] {});
  EXPECT_EQ(sched.pending_count(), 2u);
  sched.cancel(a);
  EXPECT_EQ(sched.pending_count(), 1u);
  sched.run_all();
  EXPECT_EQ(sched.pending_count(), 0u);
  EXPECT_TRUE(sched.empty());
}

TEST(Scheduler, RunAllCapThrowsOnRunaway) {
  Scheduler sched;
  std::function<void()> loop = [&] { sched.schedule_after(1.0, loop); };
  sched.schedule_at(0.0, loop);
  EXPECT_THROW(sched.run_all(1000), std::runtime_error);
}

// --- timer-wheel kernel ----------------------------------------------------

TEST(Scheduler, ConfigValidationThrows) {
  SchedulerConfig bad;
  bad.tick_bits = 31;
  EXPECT_THROW(Scheduler{bad}, std::invalid_argument);
  bad.tick_bits = -1;
  EXPECT_THROW(Scheduler{bad}, std::invalid_argument);
  bad = SchedulerConfig{};
  bad.wheel_bits = 5;
  EXPECT_THROW(Scheduler{bad}, std::invalid_argument);
  bad.wheel_bits = 23;
  EXPECT_THROW(Scheduler{bad}, std::invalid_argument);
}

TEST(Scheduler, BackendAccessorReportsConfig) {
  Scheduler wheel;
  EXPECT_EQ(wheel.backend(), SchedulerBackend::kWheel);
  SchedulerConfig config;
  config.backend = SchedulerBackend::kHeap;
  Scheduler heap(config);
  EXPECT_EQ(heap.backend(), SchedulerBackend::kHeap);
}

TEST(Scheduler, EventScheduledExactlyAtHorizonDuringRunFires) {
  // The horizon is INCLUSIVE even for events created mid-run: an event
  // at t=1 that schedules a follow-up at exactly t=2 must see that
  // follow-up fire inside run_until(2.0).
  Scheduler sched;
  std::vector<double> fired;
  sched.schedule_at(1.0, [&] {
    fired.push_back(sched.now());
    sched.schedule_at(2.0, [&] { fired.push_back(sched.now()); });
  });
  const std::uint64_t n = sched.run_until(2.0);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(sched.now(), 2.0);
  EXPECT_TRUE(sched.empty());
}

TEST(Scheduler, RunUntilAdvancesClockPastEmptyQueue) {
  Scheduler sched;
  EXPECT_EQ(sched.run_until(7.0), 0u);
  EXPECT_EQ(sched.now(), 7.0);
  // Infinite horizon with an empty queue must leave the clock finite.
  EXPECT_EQ(sched.run_until(kTimeInfinity), 0u);
  EXPECT_EQ(sched.now(), 7.0);
}

TEST(Scheduler, QueueHighWaterUnderHeavyCancelChurn) {
  // Regression: the high-water mark counts *live* events. A cancel-heavy
  // workload (arm/disarm timeouts, the protocol's steady state) must not
  // inflate it with reclaimed slots, and the slot pool must plateau
  // instead of growing per wave.
  Scheduler sched;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(
        sched.schedule_at(1.0 + i * 1e-3, [] {}));
  }
  EXPECT_EQ(sched.queue_high_water(), 1000u);
  for (int i = 0; i < 900; ++i) EXPECT_TRUE(sched.cancel(ids[size_t(i)]));
  EXPECT_EQ(sched.pending_count(), 100u);
  const std::size_t slots_after_first_wave = sched.pool_slots();

  // Ten more churn waves, each smaller than the peak: high water frozen,
  // pool recycled in place.
  for (int wave = 0; wave < 10; ++wave) {
    std::vector<EventId> wave_ids;
    for (int i = 0; i < 500; ++i) {
      wave_ids.push_back(sched.schedule_at(2.0 + i * 1e-3, [] {}));
    }
    for (EventId id : wave_ids) EXPECT_TRUE(sched.cancel(id));
  }
  EXPECT_EQ(sched.queue_high_water(), 1000u);
  EXPECT_EQ(sched.pool_slots(), slots_after_first_wave);
  EXPECT_EQ(sched.pending_count(), 100u);

  sched.run_all();
  EXPECT_EQ(sched.executed_count(), 100u);
  EXPECT_EQ(sched.queue_high_water(), 1000u);
  EXPECT_EQ(sched.pool_in_use(), 0u);
}

TEST(Scheduler, CancelSameTimeEventFromEarlierSibling) {
  // Exercises cancellation inside the currently-executing tick (the
  // sorted-run bucket): an event cancels a same-time later sibling.
  Scheduler sched;
  std::vector<int> order;
  EventId doomed;
  sched.schedule_at(1.0, [&] {
    order.push_back(0);
    EXPECT_TRUE(sched.cancel(doomed));
  });
  doomed = sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.schedule_at(1.0, [&] { order.push_back(2); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(Scheduler, ZeroDelaySelfScheduleStaysFifoWithinInstant) {
  // Events scheduled *into* the executing instant (zero-delay sends) go
  // through the late-arrival path and must still fire after already-
  // queued same-time events, in scheduling order.
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(1.0, [&] {
    order.push_back(0);
    sched.schedule_after(0.0, [&] { order.push_back(3); });
    sched.schedule_after(0.0, [&] { order.push_back(4); });
  });
  sched.schedule_at(1.0, [&] { order.push_back(1); });
  sched.schedule_at(1.0, [&] { order.push_back(2); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sched.now(), 1.0);
}

TEST(Scheduler, FarFutureEventsPromoteFromOverflowInOrder) {
  // Default wheel span is 2^15 ticks * 2^-8 s = 128 s; times beyond it
  // wait in the overflow heap and must promote as the window slides.
  Scheduler sched;
  std::vector<double> fired;
  for (double t : {1000.0, 5.0, 500.0, 200.0, 127.9, 128.1}) {
    sched.schedule_at(t, [&] { fired.push_back(sched.now()); });
  }
  sched.run_all();
  EXPECT_EQ(fired,
            (std::vector<double>{5.0, 127.9, 128.1, 200.0, 500.0, 1000.0}));
}

TEST(Scheduler, WindowJumpOverEmptyWheelThenNearEvents) {
  // A long silent gap forces the wheel window to jump straight to the
  // overflow root; events scheduled from there (short delays) must land
  // back in the wheel and fire correctly.
  Scheduler sched;
  std::vector<double> fired;
  sched.schedule_at(0.5, [&] { fired.push_back(sched.now()); });
  sched.schedule_at(300.0, [&] {
    fired.push_back(sched.now());
    sched.schedule_after(0.25, [&] { fired.push_back(sched.now()); });
    sched.schedule_after(10.0, [&] { fired.push_back(sched.now()); });
  });
  sched.schedule_at(700.0, [&] { fired.push_back(sched.now()); });
  sched.run_all();
  EXPECT_EQ(fired,
            (std::vector<double>{0.5, 300.0, 300.25, 310.0, 700.0}));
}

// Ordering-equivalence harness: run the same randomized schedule/cancel
// workload on a given scheduler and record the exact (time, seq) trace.
struct TraceEntry {
  Time time;
  std::uint64_t seq;
  bool operator==(const TraceEntry&) const = default;
};

std::vector<TraceEntry> run_trace_workload(const SchedulerConfig& config,
                                           std::uint64_t seed) {
  Scheduler sched(config);
  std::vector<TraceEntry> trace;
  sched.set_execution_probe(
      [&trace](Time t, std::uint64_t seq) { trace.push_back({t, seq}); });

  util::Rng rng(seed);
  std::vector<EventId> cancellable;
  std::uint64_t spawned = 0;
  std::function<void()> spawn = [&] {
    if (spawned >= 6000) return;
    // Mixed horizons: same-instant ties, wheel-resident short delays,
    // and far-future overflow residents, plus cancel churn.
    const double roll = rng.uniform(0.0, 1.0);
    double delay;
    if (roll < 0.15) {
      delay = 0.0;
    } else if (roll < 0.85) {
      delay = rng.uniform(0.0, 12.0);
    } else {
      delay = rng.uniform(100.0, 400.0);
    }
    ++spawned;
    const EventId id = sched.schedule_after(delay, [&] { spawn(); });
    if (rng.bernoulli(0.3)) {
      cancellable.push_back(id);
    }
    // Branch (supercritically, so cancel churn can't extinguish the
    // population before the spawn cap).
    if (rng.bernoulli(0.6)) {
      ++spawned;
      sched.schedule_after(rng.uniform(0.0, 8.0), [&] { spawn(); });
    }
    if (cancellable.size() > 8 && rng.bernoulli(0.4)) {
      const auto pick =
          rng.uniform_u64(0, cancellable.size() - 1);
      sched.cancel(cancellable[pick]);
      cancellable.erase(cancellable.begin() + static_cast<long>(pick));
    }
  };
  for (int i = 0; i < 8; ++i) sched.schedule_at(0.0, [&] { spawn(); });
  sched.run_all();
  return trace;
}

TEST(Scheduler, WheelTraceBitIdenticalToHeapReference) {
  // The tentpole's correctness bar: the timer wheel must reproduce the
  // reference heap's execution order *exactly* — same (time, seq) pairs,
  // same positions — under randomized schedule/cancel workloads.
  for (std::uint64_t seed : {7u, 99u, 2026u}) {
    SchedulerConfig wheel_config;  // defaults = wheel backend
    SchedulerConfig heap_config;
    heap_config.backend = SchedulerBackend::kHeap;
    const auto wheel = run_trace_workload(wheel_config, seed);
    const auto heap = run_trace_workload(heap_config, seed);
    ASSERT_GT(wheel.size(), 1000u);
    ASSERT_EQ(wheel.size(), heap.size()) << "seed=" << seed;
    EXPECT_TRUE(wheel == heap) << "seed=" << seed;
  }
}

TEST(Scheduler, CoarseWheelGeometryPreservesOrdering) {
  // A deliberately tiny, coarse wheel (64 slots, 1 s ticks) forces many
  // events per tick and constant window slides — ordering must survive.
  SchedulerConfig coarse;
  coarse.tick_bits = 0;
  coarse.wheel_bits = 6;
  SchedulerConfig heap_config;
  heap_config.backend = SchedulerBackend::kHeap;
  const auto coarse_trace = run_trace_workload(coarse, 31415);
  const auto heap_trace = run_trace_workload(heap_config, 31415);
  ASSERT_EQ(coarse_trace.size(), heap_trace.size());
  EXPECT_TRUE(coarse_trace == heap_trace);
}

// --- two-level (coarse) wheel ----------------------------------------------

TEST(Scheduler, ResidencySplitsAcrossWheelLevels) {
  // Shrunken geometry so all three levels are easy to hit: 1 s ticks,
  // 64-slot fine wheel (64 s span), coarse_tick_bits resolving to
  // min(13, wheel_bits-1) = 5 (32 s coarse slots), 64 coarse slots
  // => coarse span 2048 s.
  SchedulerConfig config;
  config.tick_bits = 0;
  config.wheel_bits = 6;
  config.coarse_bits = 6;
  Scheduler sched(config);
  sched.schedule_at(10.0, [] {});    // fine window [0, 64)
  sched.schedule_at(100.0, [] {});   // coarse window [64, 2048)
  sched.schedule_at(3000.0, [] {});  // beyond the coarse span
  EXPECT_EQ(sched.fine_resident(), 1u);
  EXPECT_EQ(sched.coarse_resident(), 1u);
  EXPECT_EQ(sched.overflow_resident(), 1u);

  // Running past the coarse event cascades it into the fine wheel and
  // fires it. The far event remains pending; where it parks meanwhile
  // (overflow, a wheel level, or the pre-drained execution bucket) is an
  // implementation detail — an idle scheduler may slide its window all
  // the way to the next event.
  sched.run_until(150.0);
  EXPECT_EQ(sched.executed_count(), 2u);
  EXPECT_EQ(sched.pending_count(), 1u);
  EXPECT_EQ(sched.next_time(), 3000.0);

  sched.run_all();
  EXPECT_EQ(sched.executed_count(), 3u);
  EXPECT_EQ(sched.now(), 3000.0);
}

TEST(Scheduler, LevelBoundaryTimersFireInOrder) {
  // Timers straddling the fine/coarse boundary (128 s at defaults) and
  // the coarse/overflow boundary (4096 * 32 s = 131072 s) must fire in
  // exact time order across the cascades.
  Scheduler sched;
  // Initial placement sanity at t = 0: two fine, two coarse, two overflow.
  std::vector<double> fired;
  for (double t : {127.99, 131080.0, 128.0, 131072.0, 0.5, 131071.5}) {
    sched.schedule_at(t, [&] { fired.push_back(sched.now()); });
  }
  EXPECT_EQ(sched.fine_resident(), 2u);
  EXPECT_EQ(sched.coarse_resident(), 2u);
  EXPECT_EQ(sched.overflow_resident(), 2u);
  sched.run_all();
  EXPECT_EQ(fired, (std::vector<double>{0.5, 127.99, 128.0, 131071.5,
                                        131072.0, 131080.0}));
}

TEST(Scheduler, CancelThenCascadeChurn) {
  // Cancel-heavy churn on coarse-resident timers: cancellation must
  // unlink O(1) from the coarse slot lists, and the survivors must
  // still cascade down and fire in order.
  Scheduler sched;
  std::vector<double> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i) {
    const double t = 200.0 + i;  // all coarse-resident at t=0
    ids.push_back(sched.schedule_at(t, [&] { fired.push_back(sched.now()); }));
  }
  EXPECT_EQ(sched.coarse_resident(), 500u);
  for (int i = 0; i < 500; i += 2) EXPECT_TRUE(sched.cancel(ids[size_t(i)]));
  EXPECT_EQ(sched.coarse_resident(), 250u);
  sched.run_all();
  ASSERT_EQ(fired.size(), 250u);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], 200.0 + 2 * i + 1);
  }
  // Cancelling after the cascade+fire is a clean no-op.
  for (EventId id : ids) EXPECT_FALSE(sched.cancel(id));
}

// Long-haul variant of the trace workload: delays up to days, so events
// traverse overflow -> coarse -> fine across many cascades, with cancel
// churn hitting every level.
std::vector<TraceEntry> run_longhaul_workload(const SchedulerConfig& config,
                                              std::uint64_t seed) {
  Scheduler sched(config);
  std::vector<TraceEntry> trace;
  sched.set_execution_probe(
      [&trace](Time t, std::uint64_t seq) { trace.push_back({t, seq}); });

  util::Rng rng(seed);
  std::vector<EventId> cancellable;
  std::uint64_t spawned = 0;
  std::function<void()> spawn = [&] {
    if (spawned >= 3000) return;
    const double roll = rng.uniform(0.0, 1.0);
    double delay;
    if (roll < 0.2) {
      delay = rng.uniform(0.0, 10.0);       // fine wheel
    } else if (roll < 0.55) {
      delay = rng.uniform(100.0, 2000.0);   // coarse wheel
    } else if (roll < 0.9) {
      delay = rng.uniform(2000.0, 120000.0);  // deep coarse
    } else {
      delay = rng.uniform(140000.0, 400000.0);  // beyond the coarse span
    }
    ++spawned;
    const EventId id = sched.schedule_after(delay, [&] { spawn(); });
    if (rng.bernoulli(0.3)) cancellable.push_back(id);
    if (rng.bernoulli(0.55)) {
      ++spawned;
      sched.schedule_after(rng.uniform(0.0, 5000.0), [&] { spawn(); });
    }
    if (cancellable.size() > 8 && rng.bernoulli(0.4)) {
      const auto pick = rng.uniform_u64(0, cancellable.size() - 1);
      sched.cancel(cancellable[pick]);
      cancellable.erase(cancellable.begin() + static_cast<long>(pick));
    }
  };
  for (int i = 0; i < 8; ++i) sched.schedule_at(0.0, [&] { spawn(); });
  sched.run_all();
  return trace;
}

TEST(Scheduler, MultiHourTraceBitIdenticalToHeapReference) {
  // The hierarchical wheel's correctness bar at horizons far beyond the
  // 128 s fine span AND beyond the ~36 h coarse span: the (time, seq)
  // trace must match the reference heap exactly.
  for (std::uint64_t seed : {11u, 4242u}) {
    SchedulerConfig wheel_config;  // defaults: two-level wheel
    SchedulerConfig heap_config;
    heap_config.backend = SchedulerBackend::kHeap;
    const auto wheel = run_longhaul_workload(wheel_config, seed);
    const auto heap = run_longhaul_workload(heap_config, seed);
    ASSERT_GT(wheel.size(), 1000u) << "seed=" << seed;
    ASSERT_EQ(wheel.size(), heap.size()) << "seed=" << seed;
    EXPECT_TRUE(wheel == heap) << "seed=" << seed;
  }
}

TEST(Scheduler, CoarseDisabledMatchesTwoLevelTrace) {
  // coarse_bits = 0 reverts to the pre-hierarchical layout (fine wheel +
  // overflow heap only); both layouts must produce the same trace.
  SchedulerConfig flat;
  flat.coarse_bits = 0;
  const auto flat_trace = run_longhaul_workload(flat, 777);
  const auto two_level = run_longhaul_workload(SchedulerConfig{}, 777);
  ASSERT_EQ(flat_trace.size(), two_level.size());
  EXPECT_TRUE(flat_trace == two_level);
}

TEST(Scheduler, CoarseConfigValidationThrows) {
  SchedulerConfig bad;
  bad.coarse_tick_bits = 15;  // must stay strictly below wheel_bits
  EXPECT_THROW(Scheduler{bad}, std::invalid_argument);
  bad = SchedulerConfig{};
  bad.coarse_bits = 25;
  EXPECT_THROW(Scheduler{bad}, std::invalid_argument);
}

// --- slot heads behind the occupancy bitmaps --------------------------------
//
// A wheel slot's head is meaningful only while its occupancy bit is set.
// The edge cases: a slot emptied by cancelling its only event, by
// cancelling its head and its tail, and then refilled.

std::vector<TraceEntry> slot_edge_trace(const SchedulerConfig& config,
                                        bool coarse_level) {
  // Fine level: 1 s is tick 256, and three 0.5 ms steps stay inside it.
  // Coarse level: 200 s lies past the 128 s fine span, in the 32 s coarse
  // slot [192, 224); three 1 s steps stay inside it. At both levels 40
  // steps land in a later slot.
  const Time base = coarse_level ? 200.0 : 1.0;
  const Time step = coarse_level ? 1.0 : 0.0005;
  Scheduler sched(config);
  std::vector<TraceEntry> trace;
  sched.set_execution_probe(
      [&trace](Time t, std::uint64_t seq) { trace.push_back({t, seq}); });
  const bool wheel = config.backend == SchedulerBackend::kWheel;
  auto resident = [&] {
    return coarse_level ? sched.coarse_resident() : sched.fine_resident();
  };
  auto noop = [] {};
  // A later slot stays occupied throughout, so every next_time() below
  // scans the bitmap, and an emptied slot whose bit were left set would
  // be found first.
  const Time later = base + 40 * step;
  sched.schedule_at(later, noop);

  // The only event of a slot.
  const EventId only = sched.schedule_at(base, noop);
  if (wheel) {
    EXPECT_EQ(resident(), 2u);
  }
  EXPECT_TRUE(sched.cancel(only));
  if (wheel) {
    EXPECT_EQ(resident(), 1u);
  }
  EXPECT_EQ(sched.next_time(), later);

  // Three events in the slot; the list is LIFO, so the newest is the
  // head and the oldest the tail.
  const EventId tail = sched.schedule_at(base + step, noop);
  const EventId middle = sched.schedule_at(base + 2 * step, noop);
  const EventId head = sched.schedule_at(base + 3 * step, noop);
  EXPECT_TRUE(sched.cancel(head));
  EXPECT_EQ(sched.next_time(), base + step);
  EXPECT_TRUE(sched.cancel(tail));
  if (wheel) {
    EXPECT_EQ(resident(), 2u);
  }
  EXPECT_EQ(sched.next_time(), base + 2 * step);
  EXPECT_TRUE(sched.cancel(middle));
  if (wheel) {
    EXPECT_EQ(resident(), 1u);
  }
  EXPECT_EQ(sched.next_time(), later);
  for (EventId id : {only, tail, middle, head}) {
    EXPECT_FALSE(sched.pending(id));
    EXPECT_FALSE(sched.cancel(id));
  }

  // Re-insert into the emptied slot, out of time order.
  sched.schedule_at(base + 3 * step, noop);
  sched.schedule_at(base + step, noop);
  sched.schedule_at(base + 2 * step, noop);
  sched.schedule_at(base + 2 * step, noop);  // same-time tie
  if (wheel) {
    EXPECT_EQ(resident(), 5u);
  }
  EXPECT_EQ(sched.next_time(), base + step);
  sched.run_all();
  EXPECT_EQ(sched.pending_count(), 0u);
  return trace;
}

TEST(Scheduler, FineSlotEmptiedByCancelThenRefilledMatchesHeap) {
  SchedulerConfig heap_config;
  heap_config.backend = SchedulerBackend::kHeap;
  const auto wheel = slot_edge_trace(SchedulerConfig{}, false);
  const auto heap = slot_edge_trace(heap_config, false);
  ASSERT_EQ(wheel.size(), 5u);
  EXPECT_TRUE(wheel == heap);
}

TEST(Scheduler, CoarseSlotEmptiedByCancelThenRefilledMatchesHeap) {
  SchedulerConfig heap_config;
  heap_config.backend = SchedulerBackend::kHeap;
  const auto wheel = slot_edge_trace(SchedulerConfig{}, true);
  const auto heap = slot_edge_trace(heap_config, true);
  ASSERT_EQ(wheel.size(), 5u);
  EXPECT_TRUE(wheel == heap);
}

TEST(Scheduler, ForeignHandleBeyondHandedOutSlotsIsRejected) {
  // An EventId from another scheduler whose index this scheduler never
  // handed out (though it lies inside the allocated slab) must be
  // neither pending nor cancellable, and must not disturb own events.
  Scheduler other;
  EventId foreign;
  for (int i = 0; i < 10; ++i) foreign = other.schedule_at(1.0 + i, [] {});
  Scheduler sched;
  int fired = 0;
  const EventId own = sched.schedule_at(2.0, [&] { ++fired; });
  ASSERT_LT(sched.pool_in_use(), 10u);
  ASSERT_GE(sched.pool_slots(), 10u);
  EXPECT_TRUE(other.pending(foreign));
  EXPECT_FALSE(sched.pending(foreign));
  EXPECT_FALSE(sched.cancel(foreign));
  EXPECT_TRUE(sched.pending(own));
  sched.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(other.cancel(foreign));

  // A scheduler that has handed out nothing rejects it too.
  Scheduler idle;
  EXPECT_FALSE(idle.pending(foreign));
  EXPECT_FALSE(idle.cancel(foreign));
}

TEST(Scheduler, SteadyStateProbePathDoesNotAllocate) {
  // The allocation-free claim, asserted: after warmup, a self-
  // rescheduling probe-like workload must neither grow the event-slot
  // pool nor spill a single callback to the heap.
  Scheduler sched;
  std::uint64_t fired = 0;
  std::function<void()> tick;  // the std::function itself lives outside
  tick = [&] {
    ++fired;
    sched.schedule_after(0.021, [&] { tick(); });
  };
  for (int i = 0; i < 32; ++i) {
    sched.schedule_after(0.001 * i, [&] { tick(); });
  }
  sched.run_until(10.0);  // warmup: pool reaches steady state
  const std::size_t slots = sched.pool_slots();
  const std::uint64_t spills = util::inline_function_heap_allocations();
  const std::uint64_t warm_fired = fired;
  sched.run_until(100.0);
  EXPECT_GT(fired, warm_fired + 100000u);
  EXPECT_EQ(sched.pool_slots(), slots);
  EXPECT_EQ(util::inline_function_heap_allocations(), spills);
}

TEST(Timer, FiresOnceAfterDelay) {
  Scheduler sched;
  int fired = 0;
  Timer timer(sched, [&] { ++fired; });
  timer.arm(2.0);
  EXPECT_TRUE(timer.armed());
  sched.run_until(10.0);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.armed());
}

TEST(Timer, DisarmCancels) {
  Scheduler sched;
  int fired = 0;
  Timer timer(sched, [&] { ++fired; });
  timer.arm(2.0);
  timer.disarm();
  sched.run_until(10.0);
  EXPECT_EQ(fired, 0);
}

TEST(Timer, RearmSupersedesPreviousDeadline) {
  Scheduler sched;
  std::vector<double> fire_times;
  Timer timer(sched, [&] { fire_times.push_back(sched.now()); });
  timer.arm(2.0);
  timer.arm(5.0);  // re-arm before expiry
  sched.run_until(10.0);
  EXPECT_EQ(fire_times, std::vector<double>{5.0});
}

TEST(Timer, CallbackMayRearm) {
  Scheduler sched;
  int fired = 0;
  Timer* self = nullptr;
  Timer timer(sched, [&] {
    if (++fired < 3) self->arm(1.0);
  });
  self = &timer;
  timer.arm(1.0);
  sched.run_until(10.0);
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, PeriodicFiresAtPeriodUntilStopped) {
  Simulation sim(1);
  std::vector<double> at;
  auto periodic = sim.every(1.0, [&](double t) { at.push_back(t); });
  sim.run_until(3.5);
  periodic->stop();
  sim.run_until(10.0);
  EXPECT_EQ(at, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Simulation, PeriodicRespectsUntil) {
  Simulation sim(1);
  int count = 0;
  auto periodic = sim.every(1.0, [&](double) { ++count; }, 2.5);
  sim.run_until(10.0);
  EXPECT_EQ(count, 2);
  (void)periodic;
}

TEST(Simulation, PeriodicDestructionStopsFiring) {
  Simulation sim(1);
  int count = 0;
  {
    auto periodic = sim.every(1.0, [&](double) { ++count; });
    sim.run_until(2.5);
  }
  sim.run_until(10.0);
  EXPECT_EQ(count, 2);
}

TEST(Simulation, ForkRngIsStableAcrossCalls) {
  Simulation sim(7);
  auto a = sim.fork_rng("x");
  auto b = sim.fork_rng("x");
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

}  // namespace
}  // namespace probemon::des
