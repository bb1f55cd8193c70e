// Tests for the discrete-event engine, coroutine tasks and sync
// primitives — the deterministic substrate everything else builds on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/ring_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/thread_pool.hpp"

namespace prdma::sim {
namespace {

using namespace prdma::sim::literals;

// ---------------------------------------------------------------- Simulator

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, SameTimestampRunsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    sim.schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  std::vector<int> expect(50);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

TEST(Simulator, NestedSchedulingAdvancesTime) {
  Simulator sim;
  SimTime seen = 0;
  sim.schedule(10, [&] {
    sim.schedule(15, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 25u);
}

TEST(Simulator, SchedulingInThePastClampsToNow) {
  Simulator sim;
  SimTime seen = UINT64_MAX;
  sim.schedule(10, [&] {
    sim.schedule_at(3, [&] { seen = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(seen, 10u);
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int ran = 0;
  sim.schedule(10, [&] { ++ran; });
  sim.schedule(20, [&] { ++ran; });
  sim.schedule(21, [&] { ++ran; });
  sim.run_until(20);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.now(), 20u);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500u);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int ran = 0;
  sim.schedule(1, [&] {
    ++ran;
    sim.stop();
  });
  sim.schedule(2, [&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.stopped());
  sim.clear_stop();
  sim.run();
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  Rng rng(42);
  SimTime last = 0;
  bool monotonic = true;
  for (int i = 0; i < 20000; ++i) {
    sim.schedule(rng.uniform(0, 1'000'000), [&] {
      if (sim.now() < last) monotonic = false;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(sim.events_executed(), 20000u);
}

TEST(Simulator, SameTimestampFifoStressAcrossCollidingTimes) {
  // Heavy duplicate-timestamp load: 200 events on each of 64 distinct
  // times, scheduled round-robin so collisions interleave in the heap.
  // Within a timestamp, execution order must equal scheduling order —
  // the (time, seq) contract — regardless of heap arity or slot reuse.
  Simulator sim;
  std::vector<std::vector<int>> per_time(64);
  for (int round = 0; round < 200; ++round) {
    for (int t = 0; t < 64; ++t) {
      sim.schedule_at(static_cast<SimTime>(t * 10), [&per_time, t, round] {
        per_time[static_cast<std::size_t>(t)].push_back(round);
      });
    }
  }
  sim.run();
  for (const auto& order : per_time) {
    ASSERT_EQ(order.size(), 200u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  }
  EXPECT_EQ(sim.events_executed(), 200u * 64u);
}

TEST(Simulator, SteadyStateSchedulingIsAllocationFree) {
  // Warm up to the high-water mark, then keep a self-rescheduling ring
  // running: the slab free-list and heap capacity must absorb all
  // further churn with zero growth of either counter.
  Simulator sim;
  std::uint64_t remaining = 50'000;
  struct Ballast {  // big enough to defeat any std::function-style SSO
    unsigned char bytes[64] = {};
  };
  const Ballast ballast;
  std::function<void()> pump = [&] {
    if (remaining == 0) return;
    --remaining;
    sim.schedule((remaining % 13) + 1, [&sim, &pump, ballast] { pump(); });
  };
  for (int i = 0; i < 100; ++i) pump();
  for (int i = 0; i < 5'000; ++i) sim.step();  // warm-up window
  const std::uint64_t pool0 = sim.pool_allocations();
  const std::uint64_t heap0 = inline_fn_heap_allocs();
  sim.run();
  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(sim.pool_allocations(), pool0) << "slab or heap vector grew";
  EXPECT_EQ(inline_fn_heap_allocs(), heap0) << "a capture fell back to heap";
}

TEST(Simulator, SlabRecyclesSlotsAcrossEventWaves) {
  Simulator sim;
  for (int wave = 0; wave < 10; ++wave) {
    for (int i = 0; i < 100; ++i) sim.schedule(i, [] {});
    sim.run();
  }
  // Ten waves of 100 concurrent events each: the slab never needs more
  // than one wave's worth of slots (rounded up to the chunk size).
  EXPECT_LE(sim.slab_slots(), 256u);
  EXPECT_EQ(sim.events_executed(), 1000u);
}

// ------------------------------------------------------- cancellable events

TEST(SimCancel, CancelledEventNeverRunsAndIsNotCounted) {
  Simulator sim;
  std::vector<int> ran;
  sim.schedule(10, [&] { ran.push_back(1); });
  const EventHandle h = sim.schedule(20, [&] { ran.push_back(2); });
  sim.schedule(30, [&] { ran.push_back(3); });
  EXPECT_EQ(sim.pending(), 3u);
  sim.cancel(h);
  EXPECT_EQ(sim.pending(), 2u);
  sim.run();
  EXPECT_EQ(ran, (std::vector<int>{1, 3}));
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(SimCancel, CancellingTheTopExposesTheNextLiveEvent) {
  Simulator sim;
  const EventHandle a = sim.schedule(10, [] {});
  const EventHandle b = sim.schedule(15, [] {});
  sim.schedule(20, [] {});
  EXPECT_EQ(sim.next_event_time(), 10u);
  sim.cancel(a);
  EXPECT_EQ(sim.next_event_time(), 15u);
  sim.cancel(b);
  EXPECT_EQ(sim.next_event_time(), 20u);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(SimCancel, RunEndsAtTheLastLiveEvent) {
  // A far-future timer cancelled before it fires must not drag run()
  // (or run_until's drain check) out to its timestamp.
  Simulator sim;
  const EventHandle timer = sim.schedule(1'000'000, [] {});
  sim.schedule(10, [&] { sim.cancel(timer); });
  sim.run();
  EXPECT_EQ(sim.now(), 10u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimCancel, CancelFromInsideARunningCallback) {
  Simulator sim;
  std::vector<int> ran;
  EventHandle self;
  EventHandle later;
  self = sim.schedule(5, [&] {
    ran.push_back(1);
    sim.cancel(self);   // its own handle is stale while it runs
    sim.cancel(later);  // withdraws a pending event
    sim.schedule(1, [&] { ran.push_back(3); });
  });
  later = sim.schedule(6, [&] { ran.push_back(2); });
  sim.run();
  EXPECT_EQ(ran, (std::vector<int>{1, 3}));
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(SimCancel, StaleHandleIsIgnoredAfterItsSlotIsReused) {
  Simulator sim;
  int ran = 0;
  const EventHandle old_run = sim.schedule(1, [&] { ++ran; });
  sim.run();
  const EventHandle next = sim.schedule(1, [&] { ran += 10; });
  ASSERT_EQ(next.slot, old_run.slot) << "the free-list must recycle the slot";
  sim.cancel(old_run);  // already ran: must not hit the slot's new owner
  EXPECT_EQ(sim.pending(), 1u);
  const EventHandle old_cancel = next;
  sim.cancel(next);
  const EventHandle reused = sim.schedule(1, [&] { ran += 100; });
  ASSERT_EQ(reused.slot, old_cancel.slot);
  sim.cancel(old_cancel);  // already cancelled: ignored as well
  sim.cancel(EventHandle{});  // names no event
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(ran, 101);
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(SimCancel, TimerChurnIsAllocationFree) {
  // The RC retransmit pattern: every event arms a far-future timer and
  // withdraws the previous one. Dead entries pile up behind the live
  // window until compaction; after warm-up neither the slab nor the
  // heap vector may grow again.
  Simulator sim;
  std::uint64_t remaining = 60'000;
  EventHandle timer;
  std::function<void()> tick = [&] {
    if (remaining == 0) return;
    --remaining;
    sim.cancel(timer);
    timer = sim.schedule(1'000'000, [] {});
    sim.schedule((remaining % 7) + 1, [&tick] { tick(); });
  };
  for (int i = 0; i < 64; ++i) tick();
  for (int i = 0; i < 10'000; ++i) sim.step();  // warm-up window
  const std::uint64_t pool0 = sim.pool_allocations();
  const std::uint64_t heap0 = inline_fn_heap_allocs();
  sim.run();
  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(sim.pool_allocations(), pool0) << "slab or heap vector grew";
  EXPECT_EQ(inline_fn_heap_allocs(), heap0);
  EXPECT_EQ(sim.pending(), 0u);
}

/// Differential check: runs a Simulator and a reference ordered map
/// keyed by (time, seq) through the same seeded mix of schedule,
/// cancel and step — from outside and from inside running callbacks —
/// and compares execution order, events_executed(), pending() and
/// next_event_time() after every operation.
class CancelDiff {
 public:
  struct Mix {
    SimTime max_delay;  ///< small values force same-timestamp ties
    double cancel_p;    ///< chance an operation is a cancel
    double nested_p;    ///< chance a callback schedules/cancels
    double plain_p;     ///< chance a schedule drops its handle
  };

  CancelDiff(std::uint64_t seed, Mix mix) : rng_(seed), mix_(mix) {}

  void run(int ops) {
    for (int i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
      const double r = rng_.uniform01();
      if (r < mix_.cancel_p) {
        rng_.bernoulli(0.3) ? cancel_top() : cancel_random();
      } else if (r < mix_.cancel_p + 0.35) {
        schedule();
      } else {
        step();
      }
      check();
    }
    while (!ref_.empty() && !::testing::Test::HasFailure()) {
      step();
      check();
    }
    EXPECT_FALSE(sim_.step());
  }

  [[nodiscard]] std::uint64_t cancels() const { return cancels_; }

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;
    bool operator<(const Key& o) const {
      return time != o.time ? time < o.time : seq < o.seq;
    }
  };
  struct Ref {
    int id;
    std::size_t handle;  ///< index into handles_, or kPlain (dropped)
  };
  static constexpr std::size_t kPlain = SIZE_MAX;

  void schedule() {
    const SimTime delay = rng_.uniform(0, mix_.max_delay);
    const Key key{sim_.now() + delay, next_seq_++};
    const int id = next_id_++;
    auto fn = [this, id] { on_run(id); };
    if (rng_.bernoulli(mix_.plain_p)) {
      sim_.schedule(delay, fn);
      ref_.emplace(key, Ref{id, kPlain});
    } else {
      handles_.emplace_back(sim_.schedule(delay, fn), key);
      ref_.emplace(key, Ref{id, handles_.size() - 1});
    }
  }

  /// Any handle ever issued: pending, already run, already cancelled,
  /// or one whose slot now belongs to a newer event.
  void cancel_random() {
    if (handles_.empty()) return;
    const auto i = static_cast<std::size_t>(rng_.uniform(0, handles_.size() - 1));
    sim_.cancel(handles_[i].first);
    cancels_ += ref_.erase(handles_[i].second);
  }

  void cancel_top() {
    if (ref_.empty() || ref_.begin()->second.handle == kPlain) return;
    sim_.cancel(handles_[ref_.begin()->second.handle].first);
    ref_.erase(ref_.begin());
    ++cancels_;
  }

  void step() {
    if (ref_.empty()) {
      EXPECT_FALSE(sim_.step());
      return;
    }
    const auto top = ref_.begin();
    expected_ = top->second.id;
    const SimTime t = top->first.time;
    ref_.erase(top);
    ++executed_;
    ASSERT_TRUE(sim_.step());
    EXPECT_EQ(sim_.now(), t);
    EXPECT_EQ(ran_, expected_);
  }

  void on_run(int id) {
    ran_ = id;
    EXPECT_EQ(id, expected_) << "execution order diverged from (time, seq)";
    if (!rng_.bernoulli(mix_.nested_p)) return;
    // Mid-callback: the reference already popped this event, so both
    // sides see the same pending set.
    rng_.bernoulli(mix_.cancel_p) ? cancel_random() : schedule();
    if (rng_.bernoulli(0.5)) schedule();
  }

  void check() {
    EXPECT_EQ(sim_.events_executed(), executed_);
    ASSERT_EQ(sim_.pending(), ref_.size());
    if (!ref_.empty()) {
      EXPECT_EQ(sim_.next_event_time(), ref_.begin()->first.time);
    }
  }

  Simulator sim_;
  Rng rng_;
  Mix mix_;
  std::map<Key, Ref> ref_;
  std::vector<std::pair<EventHandle, Key>> handles_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancels_ = 0;
  int next_id_ = 0;
  int expected_ = -1;
  int ran_ = -1;
};

TEST(SimCancel, RandomMixesMatchTheReferenceQueue) {
  const CancelDiff::Mix mixes[] = {
      {1'000'000, 0.05, 0.2, 0.3},  // sparse cancels, wide spread
      {4, 0.20, 0.5, 0.2},          // dense same-timestamp ties
      {100'000, 0.45, 0.6, 0.1},    // cancel-heavy: forces compaction
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const CancelDiff::Mix& mix : mixes) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " max_delay " +
                   std::to_string(mix.max_delay));
      CancelDiff diff(seed, mix);
      diff.run(4'000);
      EXPECT_GT(diff.cancels(), 0u);
    }
  }
}

TEST(SimCancel, MassCancellationKeepsOrderThroughCompaction) {
  // 4 000 timers, then three of every four withdrawn: dead entries
  // outnumber live ones many times over, so the heap compacts; the
  // survivors must still pop in exact (time, seq) order.
  Simulator sim;
  Rng rng(99);
  std::vector<EventHandle> handles;
  std::vector<std::pair<SimTime, int>> expect;
  std::vector<std::pair<SimTime, int>> got;
  for (int i = 0; i < 4'000; ++i) {
    const SimTime d = rng.uniform(1, 500);
    handles.push_back(sim.schedule(
        d, [&got, &sim, i] { got.emplace_back(sim.now(), i); }));
    if (i % 4 == 3) expect.emplace_back(d, i);
  }
  for (int i = 0; i < 4'000; ++i) {
    if (i % 4 != 3) sim.cancel(handles[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(sim.pending(), 1'000u);
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  sim.run();
  EXPECT_EQ(got, expect);
  EXPECT_EQ(sim.events_executed(), 1'000u);
}

// ------------------------------------------------------ keyed scheduling

/// One seeded event workload, run either with schedule() at every call
/// point or with `deferred` events routed through a private (time, seq)
/// queue: reserve() where schedule() was called, and schedule_keyed()
/// only for keys that reach the queue's head (the workload::ClientPool
/// scheme). Both modes draw the RNG identically, so their execution
/// traces must match event for event.
class KeyedRun {
 public:
  KeyedRun(bool keyed, std::uint64_t seed, SimTime max_delay)
      : keyed_(keyed), rng_(seed), max_delay_(max_delay) {}

  std::vector<std::pair<SimTime, int>> run(int initial, int budget) {
    budget_ = budget;
    for (int i = 0; i < initial; ++i) add();
    sim_.run();
    EXPECT_TRUE(queue_.empty());
    return trace_;
  }

  [[nodiscard]] const Simulator& sim() const { return sim_; }
  [[nodiscard]] std::size_t max_pending() const { return max_pending_; }

 private:
  struct Entry {
    int id;
    bool armed;
  };
  using Key = std::pair<SimTime, std::uint64_t>;

  void add() {
    const SimTime delay = rng_.uniform(0, max_delay_);
    const bool deferred = rng_.bernoulli(0.7);
    const int id = next_id_++;
    if (!deferred || !keyed_) {
      sim_.schedule(delay, [this, id] { fire(id); });
      return;
    }
    const EventKey k = sim_.reserve(delay);
    queue_.emplace(Key{k.time, k.seq}, Entry{id, false});
    arm_head();
  }

  void arm_head() {
    auto head = queue_.begin();
    if (head->second.armed) return;
    head->second.armed = true;
    const EventKey k{head->first.first, head->first.second};
    sim_.schedule_keyed(k, [this, k] {
      const auto top = queue_.begin();
      ASSERT_EQ(top->first, (Key{k.time, k.seq})) << "armed key is not the head";
      const int id = top->second.id;
      queue_.erase(top);
      if (!queue_.empty()) arm_head();
      fire(id);
    });
  }

  void fire(int id) {
    trace_.emplace_back(sim_.now(), id);
    max_pending_ = std::max(max_pending_, sim_.pending());
    const int spawn = static_cast<int>(rng_.uniform(0, 2));
    for (int i = 0; i < spawn && budget_ > 0; ++i, --budget_) add();
  }

  bool keyed_;
  Rng rng_;
  SimTime max_delay_;
  Simulator sim_;
  std::map<Key, Entry> queue_;
  std::vector<std::pair<SimTime, int>> trace_;
  std::size_t max_pending_ = 0;
  int next_id_ = 0;
  int budget_ = 0;
};

TEST(SimKeyed, ReserveThenArmPopsExactlyLikeSchedule) {
  // Wide delays and dense same-timestamp ties (max_delay 0 and 3).
  for (const SimTime max_delay : {SimTime{0}, SimTime{3}, SimTime{50'000}}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " max_delay " +
                   std::to_string(max_delay));
      KeyedRun plain(false, seed, max_delay);
      KeyedRun keyed(true, seed, max_delay);
      const auto want = plain.run(500, 5'000);
      const auto got = keyed.run(500, 5'000);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(got, want);
      EXPECT_EQ(keyed.sim().events_executed(), plain.sim().events_executed());
      EXPECT_EQ(keyed.sim().now(), plain.sim().now());
      EXPECT_LT(keyed.max_pending(), plain.max_pending())
          << "unarmed keys must stay out of the simulator";
    }
  }
}

TEST(SimKeyed, ReserveConsumesTheSequenceScheduleWould) {
  // A reserved key ties with an event scheduled later for the same
  // time and still runs first: its seq was drawn at reserve().
  Simulator sim;
  std::vector<int> order;
  const EventKey k = sim.reserve(10);
  EXPECT_EQ(k.time, 10u);
  sim.schedule(10, [&] { order.push_back(2); });
  sim.schedule(5, [&] { order.push_back(1); });
  sim.schedule_keyed(k, [&] { order.push_back(0); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

TEST(SimKeyed, HeadsThatKeepUndercuttingEachArmOnce) {
  // Every new key orders before the armed head, so each becomes the
  // head and is armed while the older heads stay armed: the regression
  // shape of the arm-once rule. Nothing is cancelled or re-armed, and
  // every key runs exactly once, in key order.
  Simulator sim;
  std::vector<SimTime> ran;
  for (SimTime d = 100; d > 0; d -= 10) {
    const EventKey k = sim.reserve(d);
    sim.schedule_keyed(k, [&sim, &ran] { ran.push_back(sim.now()); });
  }
  EXPECT_EQ(sim.pending(), 10u);
  sim.run();
  EXPECT_EQ(ran, (std::vector<SimTime>{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}));
  EXPECT_EQ(sim.events_executed(), 10u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimKeyed, CancelledKeyIsReplacedByAFreshReserve) {
  // The sanctioned way to withdraw a keyed event: cancel it and arm a
  // fresh key. The dead entry stays behind the live earlier event
  // until it surfaces and is dropped.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(5, [&] { order.push_back(1); });
  const EventKey k = sim.reserve(10);
  const EventHandle h = sim.schedule_keyed(k, [&] { order.push_back(-1); });
  sim.cancel(h);
  sim.schedule_keyed(sim.reserve(10), [&] { order.push_back(2); });
  EXPECT_EQ(sim.pending(), 2u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.events_executed(), 2u);
}

#if !defined(NDEBUG) && GTEST_HAS_DEATH_TEST
TEST(SimKeyedDeathTest, ReArmingACancelledKeyAsserts) {
  // With the dead entry still queued behind a live event, arming the
  // same key again would make the dead entry look live.
  Simulator sim;
  sim.schedule(5, [] {});
  const EventKey k = sim.reserve(10);
  sim.cancel(sim.schedule_keyed(k, [] {}));
  EXPECT_DEATH(sim.schedule_keyed(k, [] {}), "arm-once");
}
#endif

// -------------------------------------------------------- InlineFunction

TEST(InlineFunction, SmallCaptureStaysInlineWithoutAllocating) {
  const std::uint64_t heap0 = inline_fn_heap_allocs();
  int hits = 0;
  unsigned char payload[kEventInlineBytes - 16] = {};
  InlineTask task([&hits, payload] { hits += 1 + payload[0]; });
  EXPECT_TRUE(task.is_inline());
  EXPECT_EQ(inline_fn_heap_allocs(), heap0);
  task();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunction, OversizedCaptureFallsBackToHeapAndStillRuns) {
  const std::uint64_t heap0 = inline_fn_heap_allocs();
  int hits = 0;
  unsigned char payload[kEventInlineBytes + 64] = {};
  InlineTask task([&hits, payload] { hits += 1 + payload[0]; });
  EXPECT_FALSE(task.is_inline());
  EXPECT_EQ(inline_fn_heap_allocs(), heap0 + 1);
  task();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunction, MoveTransfersTheCallable) {
  int hits = 0;
  InlineTask a([&hits] { ++hits; });
  InlineTask b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  InlineTask c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, MoveOnlyCapturesWork) {
  // std::function rejects move-only captures; the engine's tasks and
  // the pool's jobs rely on them (packaged_task, unique_ptr).
  auto value = std::make_unique<int>(41);
  InlineFunction<int(), 64> fn([v = std::move(value)] { return *v + 1; });
  EXPECT_EQ(fn(), 42);
}

TEST(InlineFunction, DestroysTheCaptureExactlyOnce) {
  const auto token = std::make_shared<int>(7);
  EXPECT_EQ(token.use_count(), 1);
  {
    InlineTask task([token] {});
    EXPECT_EQ(token.use_count(), 2);
    InlineTask moved(std::move(task));
    EXPECT_EQ(token.use_count(), 2) << "relocate must not duplicate";
    moved.reset();
    EXPECT_EQ(token.use_count(), 1);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineFunction, ConsumeInvokesAndLeavesEmpty) {
  const auto token = std::make_shared<int>(0);
  InlineTask task([token] { ++*token; });
  EXPECT_EQ(token.use_count(), 2);
  task.consume();
  EXPECT_EQ(*token, 1);
  EXPECT_FALSE(static_cast<bool>(task));
  EXPECT_EQ(token.use_count(), 1) << "consume must destroy the capture";
}

TEST(InlineFunction, EmplaceReplacesTheHeldCallable) {
  const auto old_token = std::make_shared<int>(0);
  InlineTask task([old_token] {});
  EXPECT_EQ(old_token.use_count(), 2);
  int hits = 0;
  task.emplace([&hits] { ++hits; });
  EXPECT_EQ(old_token.use_count(), 1) << "emplace must destroy the old";
  task();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunction, PassesArgumentsThrough) {
  InlineFunction<int(int, int), 32> add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(20, 22), 42);
}

// ---------------------------------------------------------------- Tasks

TEST(Task, DelayAdvancesSimTime) {
  Simulator sim;
  SimTime when = 0;
  spawn([](Simulator& s, SimTime& out) -> Task<> {
    co_await delay(s, 100_us);
    out = s.now();
  }(sim, when));
  sim.run();
  EXPECT_EQ(when, 100_us);
}

TEST(Task, NestedAwaitPropagatesValues) {
  Simulator sim;
  int result = 0;

  auto inner = [](Simulator& s) -> Task<int> {
    co_await delay(s, 10);
    co_return 21;
  };
  auto outer = [&inner](Simulator& s, int& out) -> Task<> {
    const int a = co_await inner(s);
    const int b = co_await inner(s);
    out = a + b;
  };
  spawn(outer(sim, result));
  sim.run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(sim.now(), 20u);
}

TEST(Task, ExceptionPropagatesToAwaiter) {
  Simulator sim;
  bool caught = false;

  auto thrower = [](Simulator& s) -> Task<int> {
    co_await delay(s, 5);
    throw std::runtime_error("boom");
  };
  auto catcher = [&thrower](Simulator& s, bool& flag) -> Task<> {
    try {
      (void)co_await thrower(s);
    } catch (const std::runtime_error&) {
      flag = true;
    }
  };
  spawn(catcher(sim, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Task, ImmediatelyReadyTaskCompletesWithoutDelay) {
  Simulator sim;
  std::string out;
  auto instant = []() -> Task<std::string> { co_return "done"; };
  auto runner = [&instant](std::string& o) -> Task<> {
    o = co_await instant();
  };
  spawn(runner(out));
  sim.run();
  EXPECT_EQ(out, "done");
  EXPECT_EQ(sim.now(), 0u);
}

TEST(Task, ManyConcurrentTasksInterleaveDeterministically) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    spawn([](Simulator& s, std::vector<int>& ord, int id) -> Task<> {
      co_await delay(s, static_cast<SimTime>(100 - id * 10));
      ord.push_back(id);
    }(sim, order, i));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}));
}

TEST(Task, MoveOnlyResultTypesWork) {
  Simulator sim;
  std::unique_ptr<int> got;
  auto maker = []() -> Task<std::unique_ptr<int>> {
    co_return std::make_unique<int>(7);
  };
  auto runner = [&maker](std::unique_ptr<int>& out) -> Task<> {
    out = co_await maker();
  };
  spawn(runner(got));
  sim.run();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, 7);
}

// ---------------------------------------------------------------- Event

TEST(Event, WaitersResumeOnSet) {
  Simulator sim;
  Event ev(sim);
  std::vector<int> resumed;  // in resume order
  for (int i = 0; i < 3; ++i) {
    spawn([](Event& e, std::vector<int>& out, int id) -> Task<> {
      const bool ok = co_await e.wait();
      if (ok) out.push_back(id);
    }(ev, resumed, i));
  }
  sim.schedule(50, [&] {
    EXPECT_EQ(ev.waiter_count(), 3u);
    ev.set();
    EXPECT_EQ(ev.waiter_count(), 0u);
  });
  sim.run();
  EXPECT_EQ(resumed, (std::vector<int>{0, 1, 2})) << "arrival order";
  EXPECT_TRUE(ev.is_set());
}

TEST(Event, WaitOnSetEventIsImmediate) {
  Simulator sim;
  Event ev(sim);
  ev.set();
  bool ok = false;
  spawn([](Event& e, bool& o) -> Task<> { o = co_await e.wait(); }(ev, ok));
  sim.run();
  EXPECT_TRUE(ok);
}

TEST(Event, AbortWakesWaitersWithFalse) {
  Simulator sim;
  Event ev(sim);
  int aborted = 0;
  spawn([](Event& e, int& n) -> Task<> {
    // A named local: see recovery_loop in check/explorer.cpp.
    const bool fired = co_await e.wait();
    if (!fired) ++n;
  }(ev, aborted));
  sim.schedule(10, [&] { ev.abort(); });
  sim.run();
  EXPECT_EQ(aborted, 1);
  EXPECT_FALSE(ev.is_set());
}

TEST(Event, ResetReArms) {
  Simulator sim;
  Event ev(sim);
  ev.set();
  ev.reset();
  EXPECT_FALSE(ev.is_set());
  bool ok = false;
  spawn([](Event& e, bool& o) -> Task<> { o = co_await e.wait(); }(ev, ok));
  sim.schedule(5, [&] { ev.set(); });
  sim.run();
  EXPECT_TRUE(ok);
}

// ---------------------------------------------------------------- Channel

TEST(Channel, DeliversInFifoOrder) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  spawn([](Channel<int>& c, std::vector<int>& out) -> Task<> {
    for (;;) {
      auto v = co_await c.recv();
      if (!v) break;
      out.push_back(*v);
    }
  }(ch, got));
  sim.schedule(1, [&] {
    ch.send(1);
    ch.send(2);
    ch.send(3);
  });
  sim.schedule(2, [&] { ch.close(); });
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Channel, RecvBeforeSendSuspends) {
  Simulator sim;
  Channel<int> ch(sim);
  SimTime when = 0;
  int got = 0;
  spawn([](Simulator& s, Channel<int>& c, SimTime& w, int& g) -> Task<> {
    auto v = co_await c.recv();
    w = s.now();
    g = v.value_or(-1);
  }(sim, ch, when, got));
  sim.schedule(77, [&] { ch.send(9); });
  sim.run();
  EXPECT_EQ(got, 9);
  EXPECT_EQ(when, 77u);
}

TEST(Channel, MultipleWaitersServedFifo) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<std::pair<int, int>> got;  // (waiter, value)
  for (int w = 0; w < 3; ++w) {
    spawn([](Channel<int>& c, std::vector<std::pair<int, int>>& out,
             int waiter) -> Task<> {
      auto v = co_await c.recv();
      if (v) out.emplace_back(waiter, *v);
    }(ch, got, w));
  }
  sim.schedule(1, [&] {
    ch.send(10);
    ch.send(20);
    ch.send(30);
  });
  sim.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], std::make_pair(0, 10));
  EXPECT_EQ(got[1], std::make_pair(1, 20));
  EXPECT_EQ(got[2], std::make_pair(2, 30));
}

TEST(Channel, CloseWakesPendingWaiterWithNullopt) {
  Simulator sim;
  Channel<int> ch(sim);
  bool got_nullopt = false;
  spawn([](Channel<int>& c, bool& flag) -> Task<> {
    auto v = co_await c.recv();
    flag = !v.has_value();
  }(ch, got_nullopt));
  sim.schedule(10, [&] { ch.close(); });
  sim.run();
  EXPECT_TRUE(got_nullopt);
}

TEST(Channel, SendToClosedChannelIsDropped) {
  Simulator sim;
  Channel<int> ch(sim);
  ch.close();
  ch.send(5);
  EXPECT_EQ(ch.size(), 0u);
}

TEST(Channel, ResetDropsQueueAndReopens) {
  Simulator sim;
  Channel<int> ch(sim);
  ch.send(1);
  ch.send(2);
  ch.reset();
  EXPECT_EQ(ch.size(), 0u);
  EXPECT_FALSE(ch.closed());
  ch.send(3);
  EXPECT_EQ(ch.size(), 1u);
}

TEST(Channel, TryRecvDoesNotBlock) {
  Simulator sim;
  Channel<int> ch(sim);
  EXPECT_FALSE(ch.try_recv().has_value());
  ch.send(4);
  auto v = ch.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 4);
}

TEST(Channel, InterleavedSendCloseResetWakeParkedReceiversInArrivalOrder) {
  // Receivers re-park after every wake-up, so the waiter queue keeps
  // rotating: send() must serve its head, reset() and close() must
  // wake all of it in arrival order.
  Simulator sim;
  Channel<int> ch(sim);
  struct Wake {
    int receiver;
    int value;  // -1 for nullopt
    SimTime at;
    bool operator==(const Wake&) const = default;
  };
  std::vector<Wake> log;
  const auto receiver = [](Simulator& s, Channel<int>& c, std::vector<Wake>& out,
                           int id, SimTime start, int recvs) -> Task<> {
    co_await delay(s, start);
    for (int k = 0; k < recvs; ++k) {
      const std::optional<int> v = co_await c.recv();
      out.push_back({id, v.value_or(-1), s.now()});
    }
  };
  spawn(receiver(sim, ch, log, 0, 0, 3));
  spawn(receiver(sim, ch, log, 1, 0, 3));
  spawn(receiver(sim, ch, log, 2, 0, 3));
  spawn(receiver(sim, ch, log, 3, 15, 2));
  sim.schedule(10, [&] {
    ch.send(1);  // queue R0 R1 R2 -> R0 gets 1
    ch.send(2);  // -> R1 gets 2; R0, R1 re-park behind R2
  });
  sim.schedule(20, [&] { ch.reset(); });  // queue R2 R0 R1 R3
  sim.schedule(30, [&] { ch.send(3); });  // -> R2; queue R0 R1 R3 R2
  sim.schedule(40, [&] {
    ch.close();
    ch.send(4);  // dropped
  });
  sim.run();
  const std::vector<Wake> want = {
      {0, 1, 10},  {1, 2, 10},  {2, -1, 20}, {0, -1, 20},
      {1, -1, 20}, {3, -1, 20}, {2, 3, 30},  {0, -1, 40},
      {1, -1, 40}, {3, -1, 40}, {2, -1, 40}};
  ASSERT_EQ(log.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(log[i], want[i]) << "wake " << i << ": receiver "
                               << log[i].receiver << " value " << log[i].value
                               << " at " << log[i].at;
  }
  EXPECT_EQ(ch.size(), 0u);
}

// ---------------------------------------------------------------- Semaphore

/// RAII guard pairing a Semaphore acquire with its release.
class SemaphoreGuard {
 public:
  explicit SemaphoreGuard(Semaphore& s) noexcept : sem_(s) {}
  SemaphoreGuard(const SemaphoreGuard&) = delete;
  SemaphoreGuard& operator=(const SemaphoreGuard&) = delete;
  ~SemaphoreGuard() { sem_.release(); }

 private:
  Semaphore& sem_;
};

TEST(Semaphore, LimitsConcurrency) {
  Simulator sim;
  Semaphore sem(sim, 2);
  int active = 0;
  int peak = 0;
  for (int i = 0; i < 6; ++i) {
    spawn([](Simulator& s, Semaphore& sm, int& act, int& pk) -> Task<> {
      co_await sm.acquire();
      SemaphoreGuard guard(sm);
      ++act;
      pk = std::max(pk, act);
      co_await delay(s, 100);
      --act;
    }(sim, sem, active, peak));
  }
  sim.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(active, 0);
  EXPECT_EQ(sem.available(), 2u);
}

TEST(Semaphore, ReleaseWithoutWaitersIncrementsCount) {
  Simulator sim;
  Semaphore sem(sim, 0);
  sem.release(3);
  EXPECT_EQ(sem.available(), 3u);
}

// ---------------------------------------------------------------- WaitGroup

TEST(WaitGroup, WaitsForAllTasks) {
  Simulator sim;
  WaitGroup wg(sim);
  SimTime done_at = 0;
  wg.add(3);
  for (int i = 1; i <= 3; ++i) {
    spawn([](Simulator& s, WaitGroup& w, int id) -> Task<> {
      co_await delay(s, static_cast<SimTime>(id * 100));
      w.done();
    }(sim, wg, i));
  }
  spawn([](Simulator& s, WaitGroup& w, SimTime& at) -> Task<> {
    co_await w.wait();
    at = s.now();
  }(sim, wg, done_at));
  sim.run();
  EXPECT_EQ(done_at, 300u);
}

TEST(WaitGroup, WaitWithNothingOutstandingResolves) {
  Simulator sim;
  WaitGroup wg(sim);
  bool resolved = false;
  spawn([](WaitGroup& w, bool& f) -> Task<> {
    co_await w.wait();
    f = true;
  }(wg, resolved));
  sim.run();
  EXPECT_TRUE(resolved);
}

// ---------------------------------------------------------------- Rng

TEST(Rng, SameSeedSameSequence) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsIndependentButDeterministic) {
  Rng a(7);
  Rng b(7);
  Rng fa = a.fork();
  Rng fb = b.fork();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fa.next_u64(), fb.next_u64());
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(5);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 2.5);
}

TEST(Rng, LognormalJitterMedianNearOne) {
  Rng rng(13);
  std::vector<double> v;
  for (int i = 0; i < 10001; ++i) v.push_back(rng.lognormal_jitter(0.3));
  std::nth_element(v.begin(), v.begin() + 5000, v.end());
  EXPECT_NEAR(v[5000], 1.0, 0.05);
  EXPECT_EQ(rng.lognormal_jitter(0.0), 1.0);
}

// ---------------------------------------------------------------- Zipfian

class ZipfianTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfianTest, StaysInRangeAndIsSkewed) {
  const double theta = GetParam();
  const std::uint64_t n = 1000;
  ZipfianGenerator zipf(n, theta);
  Rng rng(17);
  std::vector<std::uint64_t> counts(n, 0);
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) {
    const auto k = zipf.next(rng);
    ASSERT_LT(k, n);
    ++counts[k];
  }
  // Head (top 1% of keys) must take a disproportionate share.
  std::uint64_t head = 0;
  for (std::size_t i = 0; i < n / 100; ++i) head += counts[i];
  const double head_share = static_cast<double>(head) / draws;
  EXPECT_GT(head_share, 0.15) << "theta=" << theta;
  // Rank 0 should be the most popular key (within sampling noise).
  const auto most = std::max_element(counts.begin(), counts.end());
  EXPECT_LE(std::distance(counts.begin(), most), 3);
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfianTest, ::testing::Values(0.7, 0.9, 0.99));

TEST(Zipfian, MemoisedGeneratorsDrawLikeADirectComputation) {
  // The generator as it computed everything per instance and per draw:
  // the O(n) zeta sum in the constructor, 0.5^theta in next().
  struct Direct {
    std::uint64_t n;
    double theta, zetan, alpha, eta;
    static double zeta(std::uint64_t n, double theta) {
      double sum = 0.0;
      for (std::uint64_t i = 1; i <= n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
      }
      return sum;
    }
    Direct(std::uint64_t n_, double theta_) : n(n_), theta(theta_) {
      zetan = zeta(n, theta);
      alpha = 1.0 / (1.0 - theta);
      eta = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
            (1.0 - zeta(2, theta) / zetan);
    }
    std::uint64_t next(Rng& rng) const {
      const double u = rng.uniform01();
      const double uz = u * zetan;
      if (uz < 1.0) return 0;
      if (uz < 1.0 + std::pow(0.5, theta)) return 1;
      const auto v = static_cast<std::uint64_t>(
          static_cast<double>(n) * std::pow(eta * u - eta + 1.0, alpha));
      return v >= n ? n - 1 : v;
    }
  };
  // Generators built concurrently, as sweep jobs build them, and the
  // memo hit by the second round, must all draw the direct sequence.
  for (int round = 0; round < 2; ++round) {
    for (const auto& [n, theta] : {std::pair<std::uint64_t, double>{1, 0.5},
                                  {2, 0.99}, {1000, 0.7}, {50'000, 0.99}}) {
      std::vector<std::optional<ZipfianGenerator>> gens(4);
      std::vector<std::thread> builders;
      for (auto& g : gens) {
        builders.emplace_back([&g, n = n, theta = theta] { g.emplace(n, theta); });
      }
      for (auto& t : builders) t.join();
      const Direct ref(n, theta);
      for (const auto& g : gens) {
        Rng a(n + 7);
        Rng b(n + 7);
        for (int i = 0; i < 2000; ++i) {
          ASSERT_EQ(g->next(a), ref.next(b)) << "n=" << n << " draw " << i;
        }
      }
    }
  }
}

TEST(LatestGenerator, PrefersNewestKeys) {
  LatestGenerator latest(100);
  Rng rng(23);
  int newest_hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (latest.next(rng) >= 90) ++newest_hits;
  }
  EXPECT_GT(newest_hits, 5000);
  latest.grow();
  EXPECT_EQ(latest.size(), 101u);
  for (int i = 0; i < 100; ++i) EXPECT_LT(latest.next(rng), 101u);
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, SubmitReturnsResults) {
  ThreadPool pool(2);
  auto f1 = pool.submit([] { return 7; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 7);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&](std::size_t i) { hits[i]. fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [](std::size_t i) {
                          if (i == 3) throw std::runtime_error("bad");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, SubmitAcceptsMoveOnlyCallables) {
  ThreadPool pool(2);
  auto p = std::make_unique<int>(9);
  auto f = pool.submit([p = std::move(p)] { return *p * 2; });
  EXPECT_EQ(f.get(), 18);
}

TEST(ThreadPool, ParallelForPropagatesLowestIndexException) {
  // Two cells throw; which one a worker reaches first is a race, but
  // the caller must always observe the LOWEST failing index so error
  // reports don't depend on thread scheduling.
  ThreadPool pool(4);
  for (int round = 0; round < 25; ++round) {
    try {
      pool.parallel_for(64, [](std::size_t i) {
        if (i == 11 || i == 47) {
          throw std::runtime_error("cell " + std::to_string(i));
        }
      });
      FAIL() << "parallel_for must rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "cell 11");
    }
  }
}

TEST(ThreadPool, ParallelForRunsEveryCellDespiteAnException) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(32);
  EXPECT_THROW(pool.parallel_for(32,
                                 [&](std::size_t i) {
                                   hits[i].fetch_add(1);
                                   if (i == 5) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// -------------------------------------------------------------- FrameArena

TEST(FrameArena, SizeClassesAre64ByteBlocksUpTo1KiB) {
  // The class covers the frame plus the 16-byte owner header.
  EXPECT_EQ(FrameArena::class_of(1), 0u);
  EXPECT_EQ(FrameArena::class_of(48), 0u);
  EXPECT_EQ(FrameArena::class_of(49), 1u);
  EXPECT_EQ(FrameArena::class_of(112), 1u);
  EXPECT_EQ(FrameArena::class_of(1008), FrameArena::kClasses - 1);
  EXPECT_EQ(FrameArena::class_of(1009), FrameArena::kClasses);
}

TEST(FrameArena, FreedBlocksAreReusedBeforeAnyNewChunk) {
  ShardFrames shard;
  const detail::RunningShardScope scope(&shard);
  void* a = detail::allocate_frame(100);
  void* b = detail::allocate_frame(100);
  EXPECT_EQ(FrameArena::owner_of(a), &shard.arena);
  EXPECT_EQ(shard.arena.blocks_in_use(), 2u);
  EXPECT_EQ(shard.arena.chunk_count(), 1u);
  EXPECT_EQ(shard.arena.chunk_bytes(), FrameArena::kFirstChunkBytes);
  detail::free_frame(a);
  EXPECT_EQ(detail::allocate_frame(90), a) << "same class, recycled block";
  detail::free_frame(a);
  detail::free_frame(b);
  EXPECT_EQ(shard.arena.blocks_in_use(), 0u);
  EXPECT_EQ(shard.arena.chunk_count(), 1u);
}

TEST(FrameArena, ChunksStartSmallAndDoubleUpToTheCap) {
  ShardFrames shard;
  const detail::RunningShardScope scope(&shard);
  // 64-byte class: 64 blocks per first chunk.
  std::vector<void*> frames;
  std::uint64_t expected = 0;
  std::size_t chunk = FrameArena::kFirstChunkBytes;
  for (int c = 0; c < 7; ++c) {
    for (std::size_t i = 0; i < chunk / FrameArena::kClassBytes; ++i) {
      frames.push_back(detail::allocate_frame(40));
    }
    expected += chunk;
    EXPECT_EQ(shard.arena.chunk_bytes(), expected) << "chunk " << c;
    chunk = std::min(2 * chunk, FrameArena::kMaxChunkBytes);
  }
  EXPECT_EQ(shard.arena.chunk_count(), 7u);
  for (void* f : frames) detail::free_frame(f);
  EXPECT_EQ(shard.arena.blocks_in_use(), 0u);
}

TEST(FrameArena, LargeFramesAndFramesOutsideARunUseTheGlobalHeap) {
  ShardFrames shard;
  void* setup = detail::allocate_frame(100);  // no running shard
  EXPECT_EQ(FrameArena::owner_of(setup), nullptr);
  {
    const detail::RunningShardScope scope(&shard);
    void* big = detail::allocate_frame(FrameArena::kMaxBlockBytes);
    EXPECT_EQ(FrameArena::owner_of(big), nullptr);
    detail::free_frame(big);
    detail::free_frame(setup);  // a global frame freed inside a run
  }
  EXPECT_EQ(shard.arena.chunk_count(), 0u);
  EXPECT_EQ(shard.arena.blocks_in_use(), 0u);
}

TEST(FrameArena, CoroutineFramesComeFromTheRunningSimulator) {
  Simulator sim;
  int done = 0;
  spawn([](Simulator& s, int& d) -> Task<> {
    const auto leaf = [](Simulator& s2) -> Task<int> {
      co_await delay(s2, 5);
      co_return 1;
    };
    for (int i = 0; i < 50; ++i) d += co_await leaf(s);
  }(sim, done));
  sim.run();
  EXPECT_EQ(done, 50);
  EXPECT_EQ(sim.frames().arena.chunk_count(), 1u)
      << "one leaf frame at a time: one chunk of its class";
  EXPECT_EQ(sim.frames().arena.blocks_in_use(), 0u);
  EXPECT_EQ(sim.frames().roots.size(), 0u) << "the root completed";
}

TEST(FrameArenaCrossShard, FreeOnAForeignWorkerIsParkedThenDrained) {
  // A frame created on shard A and freed while shard B runs on another
  // thread must not touch A's free lists: it is parked, and A applies
  // it at its next drain (the epoch barrier in a partitioned run).
  ShardFrames a;
  ShardFrames b;
  std::vector<void*> frames;
  {
    const detail::RunningShardScope scope(&a);
    for (int i = 0; i < 40; ++i) frames.push_back(detail::allocate_frame(200));
  }
  const std::size_t chunks = a.arena.chunk_count();
  std::thread foreign([&] {
    const detail::RunningShardScope scope(&b);
    for (void* f : frames) detail::free_frame(f);
  });
  foreign.join();
  EXPECT_EQ(a.arena.blocks_in_use(), 40u) << "parked, not yet returned";
  EXPECT_EQ(a.arena.remote_frees(), 0u);
  EXPECT_EQ(b.arena.chunk_count(), 0u);
  a.arena.drain_remote_frees();
  EXPECT_EQ(a.arena.remote_frees(), 40u);
  EXPECT_EQ(a.arena.blocks_in_use(), 0u);
  const detail::RunningShardScope scope(&a);
  for (int i = 0; i < 40; ++i) frames[i] = detail::allocate_frame(200);
  EXPECT_EQ(a.arena.chunk_count(), chunks) << "drained blocks are reused";
  for (void* f : frames) detail::free_frame(f);
}

// ------------------------------------------------------------ RootRegistry

struct DtorCounter {
  int* n;
  explicit DtorCounter(int& c) : n(&c) {}
  DtorCounter(const DtorCounter&) = delete;
  DtorCounter& operator=(const DtorCounter&) = delete;
  ~DtorCounter() { ++*n; }
};

TEST(DetachedRoots, ParkedRootsAndTheirTaskChainsAreDestroyedAtTeardown) {
  int destroyed = 0;
  {
    Simulator sim;
    Event never(sim);
    const auto child = [](Event& ev, int& d) -> Task<> {
      const DtorCounter guard(d);
      (void)co_await ev.wait();
    };
    for (int i = 0; i < 3; ++i) {
      spawn([](Event& ev, int& d, auto make_child) -> Task<> {
        const DtorCounter guard(d);
        co_await make_child(ev, d);
      }(never, destroyed, child));
    }
    sim.run();
    EXPECT_EQ(sim.frames().roots.size(), 3u);
    EXPECT_EQ(destroyed, 0);
    EXPECT_EQ(sim.destroy_parked_roots(), 3u);
    EXPECT_EQ(destroyed, 6) << "every root and the child it awaited";
    EXPECT_EQ(sim.frames().roots.size(), 0u);
    spawn([](Event& ev, int& d) -> Task<> {
      const DtorCounter guard(d);
      (void)co_await ev.wait();
    }(never, destroyed));
  }
  EXPECT_EQ(destroyed, 7) << "the simulator's destructor destroys the rest";
}

TEST(DetachedRoots, CompletedRootsLeaveTheRegistry) {
  Simulator sim;
  int ran = 0;
  for (int i = 0; i < 4; ++i) {
    spawn([](Simulator& s, int& r) -> Task<> {
      co_await delay(s, 10);
      ++r;
    }(sim, ran));
  }
  EXPECT_EQ(sim.frames().roots.size(), 4u);
  sim.run();
  EXPECT_EQ(ran, 4);
  EXPECT_EQ(sim.frames().roots.size(), 0u);
}

// --------------------------------------------------------------- RingQueue

TEST(RingQueue, BehavesLikeADequeAcrossGrowthAndWraparound) {
  std::mt19937_64 gen(3);
  RingQueue<std::string> ring;
  std::deque<std::string> ref;
  EXPECT_EQ(ring.capacity(), 0u) << "no storage before the first push";
  for (int step = 0; step < 20000; ++step) {
    const auto op = gen() % 100;
    if (op < 52) {
      std::string v(1 + gen() % 40, static_cast<char>('a' + step % 26));
      ring.push_back(v);
      ref.push_back(v);
    } else if (op < 99) {
      if (!ref.empty()) {
        ASSERT_EQ(ring.front(), ref.front()) << "step " << step;
        ring.pop_front();
        ref.pop_front();
      }
    } else {
      ring.clear();
      ref.clear();
    }
    ASSERT_EQ(ring.size(), ref.size()) << "step " << step;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ring[i], ref[i]) << "step " << step << " index " << i;
    }
  }
}

TEST(RingQueue, SteadyPushPopKeepsItsStorage) {
  RingQueue<int> ring;
  for (int i = 0; i < 5; ++i) ring.push_back(i);
  const std::size_t cap = ring.capacity();
  EXPECT_EQ(cap, 8u);
  for (int i = 5; i < 10000; ++i) {
    ring.push_back(i);
    EXPECT_EQ(ring.front(), i - 5);
    ring.pop_front();
  }
  EXPECT_EQ(ring.capacity(), cap) << "a steady queue never regrows";
}

// ------------------------------------------------------------- format_time

TEST(FormatTime, AdaptiveUnits) {
  EXPECT_EQ(format_time(500), "500ns");
  EXPECT_EQ(format_time(1500), "1.50us");
  EXPECT_EQ(format_time(2'500'000), "2.50ms");
  EXPECT_EQ(format_time(3'000'000'000ull), "3.000s");
}

TEST(TransferTime, NeverFreeForNonZeroBytes) {
  EXPECT_EQ(transfer_time(0, 1e9), 0u);
  EXPECT_GE(transfer_time(1, 100e9), 1u);
  EXPECT_EQ(transfer_time(1000, 1e9), 1000u);  // 1 GB/s -> 1 ns/B
}

}  // namespace
}  // namespace prdma::sim

// ===================================================================
// End-to-end determinism: the engine's contract is that identical
// seeds give bit-identical runs. Hold it through the FULL stack — all
// thirteen RPC systems, through the crash/recovery harness and the
// micro-benchmark — so any hidden nondeterminism (iteration order,
// uninitialised state, wall-clock leakage) fails loudly here instead
// of surfacing as an unreproducible crash schedule.
// ===================================================================

#include "bench_util/micro.hpp"
#include "fault/experiment.hpp"

namespace prdma::sim {
namespace {

TEST(Determinism, FailureRunsAreBitIdenticalForEverySystem) {
  for (const auto& info : rpcs::all_systems()) {
    fault::FailureRunConfig cfg;
    cfg.ops = 160;
    cfg.crashes = 1;
    cfg.window = 4;
    cfg.value_size = 1024;
    cfg.seed = 7;
    cfg.heavy_processing = false;
    const auto a = fault::run_with_failures(info.system, cfg);
    const auto b = fault::run_with_failures(info.system, cfg);
    EXPECT_EQ(a.total, b.total) << info.name;
    EXPECT_EQ(a.ops_completed, b.ops_completed) << info.name;
    EXPECT_EQ(a.resends, b.resends) << info.name;
    EXPECT_EQ(a.replayed, b.replayed) << info.name;
    EXPECT_EQ(a.crashes, b.crashes) << info.name;
    EXPECT_EQ(a.oracle_violations, b.oracle_violations) << info.name;
  }
}

TEST(Determinism, MicroBenchIsBitIdenticalForEverySystem) {
  for (const auto& info : rpcs::all_systems()) {
    bench::MicroConfig cfg;
    cfg.objects = 512;
    cfg.object_size = 1024;
    cfg.ops = 300;
    cfg.seed = 11;
    const auto a = bench::run_micro(info.system, cfg);
    const auto b = bench::run_micro(info.system, cfg);
    EXPECT_EQ(a.duration, b.duration) << info.name;
    EXPECT_EQ(a.ops_completed, b.ops_completed) << info.name;
    EXPECT_EQ(a.kops, b.kops) << info.name;
    EXPECT_EQ(a.latency.mean(), b.latency.mean()) << info.name;
    EXPECT_EQ(a.latency.p99(), b.latency.p99()) << info.name;
    EXPECT_EQ(a.server.ops_processed, b.server.ops_processed) << info.name;
    EXPECT_EQ(a.server.critical_sw_ns, b.server.critical_sw_ns) << info.name;
  }
}

}  // namespace
}  // namespace prdma::sim
