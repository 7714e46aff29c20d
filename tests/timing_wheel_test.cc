// Timing-wheel scheduler suite: FIFO stability within a tick, overflow-heap
// promotion, cancellation (same-tick, higher wheel levels, overflow, fired
// and stale ids), zero-delay self-reschedule, and a seeded randomized
// differential test, with cancellations, against a reference (when, seq)
// heap reproducing the old priority-queue semantics event-for-event.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/sim/event_loop.h"

namespace dcc {
namespace {

TEST(TimingWheel, SameTickFifoStability) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    loop.ScheduleAt(Microseconds(50), "tw.same", [&order, i]() {
      order.push_back(i);
    });
  }
  const size_t executed = loop.Run();
  EXPECT_EQ(executed, 100u);
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[i], i) << "same-tick events must run in schedule order";
  }
  EXPECT_EQ(loop.now(), Microseconds(50));
}

TEST(TimingWheel, InterleavedTimesRunInTimeThenScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(Microseconds(30), "tw", [&]() { order.push_back(3); });
  loop.ScheduleAt(Microseconds(10), "tw", [&]() { order.push_back(1); });
  loop.ScheduleAt(Microseconds(30), "tw", [&]() { order.push_back(4); });
  loop.ScheduleAt(Microseconds(20), "tw", [&]() { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(TimingWheel, OverflowHeapPromotion) {
  // Anything beyond the wheel span (~67 simulated seconds) parks in the
  // overflow heap and must still fire at the exact requested time, ordered
  // against nearer events.
  EventLoop loop;
  std::vector<int> order;
  std::vector<Time> at;
  loop.ScheduleAt(Seconds(100), "tw.far", [&]() {
    order.push_back(2);
    at.push_back(loop.now());
  });
  loop.ScheduleAt(Seconds(200), "tw.farther", [&]() {
    order.push_back(3);
    at.push_back(loop.now());
  });
  loop.ScheduleAt(Seconds(1), "tw.near", [&]() {
    order.push_back(1);
    at.push_back(loop.now());
    // Scheduled once the cursor has advanced: still lands before the
    // overflow events.
    loop.ScheduleAt(Seconds(99), "tw.mid", [&]() {
      order.push_back(10);
      at.push_back(loop.now());
    });
  });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 10, 2, 3}));
  EXPECT_EQ(at, (std::vector<Time>{Seconds(1), Seconds(99), Seconds(100),
                                   Seconds(200)}));
}

TEST(TimingWheel, CancelBeforeFireSkipsWithoutExecuting) {
  EventLoop loop;
  int fired = 0;
  const TimerId id =
      loop.ScheduleAfter(Microseconds(10), "tw.cancel", [&]() { ++fired; });
  loop.ScheduleAfter(Microseconds(20), "tw.after", [&]() { ++fired; });
  loop.Cancel(id);
  EXPECT_EQ(loop.pending(), 2u) << "a tombstone leaves when its time drains";
  const size_t executed = loop.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(executed, 1u) << "cancelled events must not count as executed";
  EXPECT_EQ(loop.cancelled_skipped(), 1u);
  EXPECT_EQ(loop.pending(), 0u);
  loop.Cancel(id);  // Idempotent.
  EXPECT_EQ(loop.cancelled_skipped(), 1u);
}

TEST(TimingWheel, CancelFromHandlerAtSameTimestamp) {
  EventLoop loop;
  std::vector<int> order;
  TimerId later;
  TimerId own;
  own = loop.ScheduleAt(Microseconds(10), "tw.first", [&]() {
    order.push_back(1);
    loop.Cancel(later);  // Same tick, still pending behind us.
    loop.Cancel(own);    // Already running: cancels nothing.
    const TimerId child =
        loop.ScheduleAfter(0, "tw.child", [&]() { order.push_back(9); });
    loop.ScheduleAfter(0, "tw.sibling", [&]() { order.push_back(4); });
    loop.Cancel(child);
  });
  later = loop.ScheduleAt(Microseconds(10), "tw.second",
                          [&]() { order.push_back(2); });
  loop.ScheduleAt(Microseconds(10), "tw.third", [&]() { order.push_back(3); });
  const size_t executed = loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(executed, 3u);
  EXPECT_EQ(loop.cancelled_skipped(), 2u);
}

TEST(TimingWheel, CancelInHigherLevelsAndOverflow) {
  EventLoop loop;
  std::vector<int> order;
  const TimerId level1 = loop.ScheduleAt(Microseconds(5000), "tw.l1",
                                         [&]() { order.push_back(91); });
  const TimerId level3 =
      loop.ScheduleAt(Seconds(30), "tw.l3", [&]() { order.push_back(93); });
  const TimerId overflow =
      loop.ScheduleAt(Seconds(100), "tw.far", [&]() { order.push_back(94); });
  // Cancelled only after the cursor has cascaded it down a level.
  TimerId cascaded;
  cascaded = loop.ScheduleAt(Seconds(2) + Microseconds(7), "tw.l2",
                             [&]() { order.push_back(92); });
  loop.ScheduleAt(Seconds(2), "tw.canceller", [&]() {
    order.push_back(2);
    loop.Cancel(cascaded);
  });
  loop.ScheduleAt(Microseconds(1), "tw.near", [&]() {
    order.push_back(1);
    loop.Cancel(level1);
    loop.Cancel(level3);
    loop.Cancel(overflow);
  });
  loop.ScheduleAt(Seconds(150), "tw.last", [&]() { order.push_back(3); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.cancelled_skipped(), 4u);
  EXPECT_EQ(loop.now(), Seconds(150));
}

TEST(TimingWheel, FiredAndStaleIdsCancelNothing) {
  EventLoop loop;
  int first = 0;
  int second = 0;
  const TimerId fired =
      loop.ScheduleAt(Microseconds(10), "tw.a", [&]() { ++first; });
  loop.Run(Microseconds(20));
  ASSERT_EQ(first, 1);
  // The fired event's cancellation slot is recycled by the next schedule;
  // its old id must not reach the new occupant.
  loop.ScheduleAt(Microseconds(30), "tw.b", [&]() { ++second; });
  loop.Cancel(fired);
  loop.Cancel(TimerId{});
  loop.Cancel(TimerId{12345, 999});  // Names no slot at all.
  loop.Run();
  EXPECT_EQ(second, 1);
  EXPECT_EQ(loop.cancelled_skipped(), 0u);
}

TEST(TimingWheel, ZeroDelaySelfReschedule) {
  EventLoop loop;
  int runs = 0;
  std::function<void()> step = [&]() {
    ++runs;
    if (runs < 1000) {
      loop.ScheduleAfter(0, "tw.zero", step);
    }
  };
  loop.ScheduleAfter(0, "tw.zero", step);
  const size_t executed = loop.Run();
  EXPECT_EQ(runs, 1000);
  EXPECT_EQ(executed, 1000u);
  // Old priority-queue semantics: a zero-delay event runs at the current
  // virtual time, so the chain never advances the clock.
  EXPECT_EQ(loop.now(), 0u);
}

// Reference model of the old scheduler: a binary heap ordered by (when,
// seq) with seq assigned in schedule order, where a cancelled event stays in
// the heap as a tombstone and is dropped when popped. The differential test
// drives the real loop and this model through an identical seeded workload
// (including reschedules and cancellations from inside handlers) and
// requires the same execution sequence and tombstone count.
struct RefEvent {
  Time when = 0;
  uint64_t seq = 0;
  uint64_t id = 0;
  bool operator>(const RefEvent& other) const {
    return when != other.when ? when > other.when : seq > other.seq;
  }
};

// Deterministic per-event workload: how many children an event spawns and
// at which delays, drawn from the shared seeded stream so the real and
// reference runs agree without sharing state.
std::vector<Duration> ChildDelays(Rng& rng) {
  std::vector<Duration> delays;
  // 0..3: supercritical even with cancellations, so runs reach the cap.
  const int children = static_cast<int>(rng.NextBelow(4));
  for (int i = 0; i < children; ++i) {
    // Mix of same-tick (0), near, frame-crossing and overflow distances.
    switch (rng.NextBelow(5)) {
      case 0: delays.push_back(0); break;
      case 1: delays.push_back(Microseconds(1 + rng.NextBelow(200))); break;
      case 2: delays.push_back(Microseconds(1 + rng.NextBelow(300000))); break;
      case 3: delays.push_back(Seconds(1 + rng.NextBelow(60))); break;
      default: delays.push_back(Seconds(70 + rng.NextBelow(100))); break;
    }
  }
  return delays;
}

// Which event (by id, 1..last_id) a handler cancels, or 0 for none. Recent
// ids are favoured so same-tick and still-pending events are hit often;
// the rest land anywhere, including on fired, already-cancelled and
// running events (whose cancellation must be a no-op).
uint64_t CancelTarget(uint64_t last_id, Rng& rng) {
  switch (rng.NextBelow(4)) {
    case 0: return 0;
    case 1: return last_id - rng.NextBelow(std::min<uint64_t>(last_id, 4));
    default: return 1 + rng.NextBelow(last_id);
  }
}

TEST(TimingWheel, SeededDifferentialAgainstReferenceHeap) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    // --- real run ---------------------------------------------------------
    std::vector<uint64_t> real_order;
    uint64_t real_cancelled = 0;
    {
      EventLoop loop;
      Rng rng(seed);
      std::vector<TimerId> ids(1);  // ids[event id]; index 0 unused.
      std::function<void(uint64_t)> body = [&](uint64_t id) {
        real_order.push_back(id);
        if (real_order.size() >= 5000) {
          return;  // Bound the run; the reference applies the same cap.
        }
        for (Duration d : ChildDelays(rng)) {
          const uint64_t child = ids.size();
          ids.push_back(
              loop.ScheduleAfter(d, "tw.diff", [&, child]() { body(child); }));
        }
        if (const uint64_t target = CancelTarget(ids.size() - 1, rng);
            target != 0) {
          loop.Cancel(ids[target]);
        }
      };
      for (int i = 0; i < 64; ++i) {
        const uint64_t id = ids.size();
        ids.push_back(loop.ScheduleAfter(Microseconds(i * 37 % 500), "tw.diff",
                                         [&, id]() { body(id); }));
      }
      loop.Run();
      real_cancelled = loop.cancelled_skipped();
    }

    // --- reference run ----------------------------------------------------
    std::vector<uint64_t> ref_order;
    uint64_t ref_cancelled = 0;
    {
      enum class State { kPending, kFired, kCancelled };
      std::priority_queue<RefEvent, std::vector<RefEvent>, std::greater<>> heap;
      std::vector<State> state(1);  // state[event id]; index 0 unused.
      Rng rng(seed);
      uint64_t next_seq = 0;
      Time now = 0;
      for (int i = 0; i < 64; ++i) {
        heap.push(RefEvent{Microseconds(i * 37 % 500), next_seq++, state.size()});
        state.push_back(State::kPending);
      }
      while (!heap.empty()) {
        const RefEvent event = heap.top();
        heap.pop();
        if (state[event.id] == State::kCancelled) {
          ++ref_cancelled;
          continue;
        }
        state[event.id] = State::kFired;
        now = event.when;
        ref_order.push_back(event.id);
        if (ref_order.size() >= 5000) {
          continue;  // Keep draining, stop spawning — mirrors the real run.
        }
        for (Duration d : ChildDelays(rng)) {
          heap.push(RefEvent{now + d, next_seq++, state.size()});
          state.push_back(State::kPending);
        }
        if (const uint64_t target = CancelTarget(state.size() - 1, rng);
            target != 0 && state[target] == State::kPending) {
          state[target] = State::kCancelled;
        }
      }
    }

    ASSERT_EQ(real_order.size(), ref_order.size()) << "seed " << seed;
    for (size_t i = 0; i < real_order.size(); ++i) {
      ASSERT_EQ(real_order[i], ref_order[i])
          << "execution order diverged at event " << i << " (seed " << seed
          << ")";
    }
    EXPECT_EQ(real_cancelled, ref_cancelled) << "seed " << seed;
    EXPECT_GT(ref_cancelled, 100u) << "seed " << seed
                                   << ": the workload must exercise Cancel";
  }
}

TEST(TimingWheel, PendingAndWatermarkTracking) {
  EventLoop loop;
  for (int i = 0; i < 10; ++i) {
    loop.ScheduleAfter(Microseconds(i), "tw.depth", []() {});
  }
  EXPECT_EQ(loop.pending(), 10u);
  EXPECT_GE(loop.max_pending(), 10u);
  loop.Run();
  EXPECT_EQ(loop.pending(), 0u);
}

}  // namespace
}  // namespace dcc
