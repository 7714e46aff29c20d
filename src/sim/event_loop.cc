#include "src/sim/event_loop.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/telemetry/profiler.h"

namespace dcc {
namespace {

// Events scheduled through the category-less overloads. A real category at
// the call site is always better; this keeps unlabeled callers visible in
// the profile instead of silently unattributed.
constexpr char kUncategorized[] = "event.uncategorized";

// The loop currently registered as the thread's log clock (last one wins);
// tracked so destruction clears only its own registration. thread_local so
// independent simulations (dcc_search candidate evaluation) can run on
// worker threads without sharing clock or counter state.
thread_local const EventLoop* g_log_clock_owner = nullptr;

// Per-thread executed-event total (each simulation runs on one thread).
thread_local uint64_t g_total_events_executed = 0;

// First set bit of `bits` at index >= from, or -1.
int ScanWord(uint64_t bits, int from) {
  if (from >= 64) {
    return -1;
  }
  bits &= ~uint64_t{0} << from;
  return bits != 0 ? std::countr_zero(bits) : -1;
}

}  // namespace

uint64_t EventLoop::TotalEventsExecuted() { return g_total_events_executed; }

EventLoop::EventLoop() = default;

EventLoop::~EventLoop() {
  if (g_log_clock_owner == this) {
    SetLogClock(nullptr);
    g_log_clock_owner = nullptr;
  }
}

void EventLoop::InstallLogClock() {
  g_log_clock_owner = this;
  SetLogClock([this]() { return static_cast<uint64_t>(now_); });
}

void EventLoop::AttachTelemetry(telemetry::MetricsRegistry* registry) {
  if (registry == nullptr) {
    events_executed_ = nullptr;
    return;
  }
  events_executed_ = registry->GetCounter(
      "sim_events_executed_total", {}, "Event-loop handlers executed");
  registry->GetCallbackGauge(
      "sim_pending_events", [this]() { return static_cast<double>(pending()); },
      {}, "Events currently scheduled in the loop");
  registry->GetCallbackGauge(
      "sim_virtual_time_us", [this]() { return static_cast<double>(now_); }, {},
      "Current virtual clock in microseconds");
}

TimerId EventLoop::ScheduleAt(Time t, Handler fn) {
  return Schedule(t, kUncategorized, std::move(fn));
}

TimerId EventLoop::ScheduleAt(Time t, const char* category, Handler fn) {
  return Schedule(t, category, std::move(fn));
}

TimerId EventLoop::ScheduleAfter(Duration delay, Handler fn) {
  return Schedule(now_ + std::max<Duration>(0, delay), kUncategorized,
                  std::move(fn));
}

TimerId EventLoop::ScheduleAfter(Duration delay, const char* category,
                                 Handler fn) {
  return Schedule(now_ + std::max<Duration>(0, delay), category, std::move(fn));
}

void EventLoop::Cancel(TimerId id) {
  if (id.slot < slot_serial_.size() && slot_serial_[id.slot] == id.serial) {
    slot_serial_[id.slot] = kNoEvent;
  }
}

void EventLoop::SchedulePeriodic(Duration period, Handler fn, Time until) {
  SchedulePeriodic(period, "event.periodic", std::move(fn), until);
}

void EventLoop::SchedulePeriodic(Duration period, const char* category,
                                 Handler fn, Time until) {
  if (period <= 0 || now_ + period > until) {
    return;
  }
  // The handler lives in shared state: each tick re-arms by copying a
  // shared_ptr (one refcount bump) instead of copying the std::function —
  // periodic samplers capture probe tables that used to be cloned per tick.
  struct Tick {
    EventLoop* loop;
    Duration period;
    const char* category;
    Handler fn;
    Time until;

    void Arm(std::shared_ptr<Tick> self) {
      loop->Schedule(loop->now_ + period, category, [self = std::move(self)]() {
        self->fn();
        if (self->loop->now_ + self->period <= self->until) {
          self->Arm(self);
        }
      });
    }
  };
  auto tick = std::make_shared<Tick>(
      Tick{this, period, category, std::move(fn), until});
  tick->Arm(tick);
}

TimerId EventLoop::Schedule(Time t, const char* category, Handler fn) {
  if (++last_serial_ == kNoEvent) {
    ++last_serial_;
  }
  uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slot_serial_.size());
    slot_serial_.push_back(last_serial_);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slot_serial_[slot] = last_serial_;
  }
  Insert(Event{std::max(t, now_), next_seq_++, std::move(fn), category, now_,
               slot, last_serial_});
  ++size_;
  max_pending_ = std::max(max_pending_, size_);
  prof::RecordQueueDepth(size_);
  return TimerId{slot, last_serial_};
}

void EventLoop::Insert(Event e) {
  const uint64_t w = static_cast<uint64_t>(e.when);
  const uint64_t c = static_cast<uint64_t>(cursor_);
  if ((w >> kL1Shift) == (c >> kL1Shift)) {
    const int slot = static_cast<int>(w & (kL0Slots - 1));
    l0_[slot].push_back(std::move(e));
    l0_bits_[slot >> 6] |= uint64_t{1} << (slot & 63);
  } else if ((w >> kL2Shift) == (c >> kL2Shift)) {
    const int slot = static_cast<int>((w >> kL1Shift) & (kLevelSlots - 1));
    l1_[slot].push_back(std::move(e));
    l1_bits_ |= uint64_t{1} << slot;
  } else if ((w >> kL3Shift) == (c >> kL3Shift)) {
    const int slot = static_cast<int>((w >> kL2Shift) & (kLevelSlots - 1));
    l2_[slot].push_back(std::move(e));
    l2_bits_ |= uint64_t{1} << slot;
  } else if ((w >> kSpanShift) == (c >> kSpanShift)) {
    const int slot = static_cast<int>((w >> kL3Shift) & (kLevelSlots - 1));
    l3_[slot].push_back(std::move(e));
    l3_bits_ |= uint64_t{1} << slot;
  } else {
    prof::CountWheelOverflow();
    overflow_.push(std::move(e));
  }
}

void EventLoop::CascadeInto(std::vector<Event>& bucket) {
  prof::CountWheelCascade(bucket.size());
  scratch_.clear();
  scratch_.swap(bucket);
  for (Event& e : scratch_) {
    Insert(std::move(e));
  }
  scratch_.clear();
}

EventLoop::Peek EventLoop::FindNext(Time limit, Time* t_out) {
  for (;;) {
    const uint64_t c = static_cast<uint64_t>(cursor_);
    // Level 0: exact timestamps within the current 256 us frame.
    {
      const int from = static_cast<int>(c & (kL0Slots - 1));
      for (int word = from >> 6; word < kL0Slots / 64; ++word) {
        uint64_t bits = l0_bits_[word];
        if (word == from >> 6) {
          bits &= ~uint64_t{0} << (from & 63);
        }
        if (bits != 0) {
          const int slot = (word << 6) + std::countr_zero(bits);
          const Time t = static_cast<Time>((c & ~uint64_t{kL0Slots - 1}) |
                                           static_cast<uint64_t>(slot));
          if (t > limit) {
            return Peek::kBeyond;
          }
          *t_out = t;
          return Peek::kFound;
        }
      }
    }
    // Level 1: next 256 us frame with events, within the current 2^14 frame.
    {
      const int slot = ScanWord(l1_bits_, static_cast<int>((c >> kL1Shift) &
                                                           (kLevelSlots - 1)));
      if (slot >= 0) {
        const Time start = static_cast<Time>(
            (c & ~((uint64_t{1} << kL2Shift) - 1)) |
            (static_cast<uint64_t>(slot) << kL1Shift));
        if (start > limit) {
          return Peek::kBeyond;
        }
        cursor_ = start;
        l1_bits_ &= ~(uint64_t{1} << slot);
        CascadeInto(l1_[slot]);
        continue;
      }
    }
    // Level 2.
    {
      const int slot = ScanWord(l2_bits_, static_cast<int>((c >> kL2Shift) &
                                                           (kLevelSlots - 1)));
      if (slot >= 0) {
        const Time start = static_cast<Time>(
            (c & ~((uint64_t{1} << kL3Shift) - 1)) |
            (static_cast<uint64_t>(slot) << kL2Shift));
        if (start > limit) {
          return Peek::kBeyond;
        }
        cursor_ = start;
        l2_bits_ &= ~(uint64_t{1} << slot);
        CascadeInto(l2_[slot]);
        continue;
      }
    }
    // Level 3.
    {
      const int slot = ScanWord(l3_bits_, static_cast<int>((c >> kL3Shift) &
                                                           (kLevelSlots - 1)));
      if (slot >= 0) {
        const Time start = static_cast<Time>(
            (c & ~((uint64_t{1} << kSpanShift) - 1)) |
            (static_cast<uint64_t>(slot) << kL3Shift));
        if (start > limit) {
          return Peek::kBeyond;
        }
        cursor_ = start;
        l3_bits_ &= ~(uint64_t{1} << slot);
        CascadeInto(l3_[slot]);
        continue;
      }
    }
    // Overflow: events beyond the wheel span. The top is the global minimum
    // (the wheel is empty here), so promote its whole 2^26 us frame and
    // rescan.
    if (!overflow_.empty()) {
      const Time top = overflow_.top().when;
      if (top > limit) {
        return Peek::kBeyond;
      }
      const uint64_t frame = static_cast<uint64_t>(top) >> kSpanShift;
      cursor_ = static_cast<Time>(frame << kSpanShift);
      while (!overflow_.empty() &&
             (static_cast<uint64_t>(overflow_.top().when) >> kSpanShift) ==
                 frame) {
        Event e = std::move(const_cast<Event&>(overflow_.top()));
        overflow_.pop();
        Insert(std::move(e));
      }
      continue;
    }
    return Peek::kEmpty;
  }
}

size_t EventLoop::Run(Time until) {
  stopped_ = false;
  size_t executed = 0;
  DCC_PROF_SCOPE("sim.run");
  while (!stopped_) {
    Time t = 0;
    const Peek peek = FindNext(until, &t);
    if (peek == Peek::kEmpty) {
      break;
    }
    if (peek == Peek::kBeyond) {
      now_ = until;
      return executed;
    }
    cursor_ = t;
    const int slot = static_cast<int>(static_cast<uint64_t>(t) &
                                      (kL0Slots - 1));
    std::vector<Event>& bucket = l0_[slot];
    // A level-0 slot holds exactly one timestamp, so seq order is total
    // order. Direct appends arrive seq-sorted; only cascaded events can be
    // out of place, and one sort at drain restores the exact old
    // priority-queue order. Handlers appending same-time events during the
    // drain get larger seqs, which keeps the vector sorted.
    std::sort(bucket.begin(), bucket.end(),
              [](const Event& a, const Event& b) { return a.seq < b.seq; });
    prof::RecordWheelBucket(bucket.size());
    size_t index = 0;
    bool aborted = false;
    for (; index < bucket.size(); ++index) {
      if (stopped_) {
        aborted = true;
        break;
      }
      Event& event = bucket[index];
      // Freeing the slot before the handler runs makes a Cancel() of the
      // event's own id from inside it a no-op.
      const bool live = slot_serial_[event.slot] == event.serial;
      slot_serial_[event.slot] = kNoEvent;
      free_slots_.push_back(event.slot);
      --size_;
      if (!live) {
        ++cancelled_skipped_;
        prof::RecordCancelled(event.category);
        continue;
      }
      Handler fn = std::move(event.fn);
      const char* category = event.category;
      const uint64_t lag_us = static_cast<uint64_t>(t - event.enqueued_at);
      now_ = t;
      {
        // Profiling only reads the host clock and thread-local counters, so
        // the executed schedule is identical with it on or off.
        prof::EventScope scope(category, lag_us);
        fn();
      }
      ++executed;
      ++g_total_events_executed;
      if (events_executed_ != nullptr) {
        events_executed_->Inc();
      }
    }
    if (aborted) {
      // Keep the unexecuted tail for a later Run(); the slot bit stays set.
      bucket.erase(bucket.begin(), bucket.begin() + index);
    } else {
      bucket.clear();
      l0_bits_[slot >> 6] &= ~(uint64_t{1} << (slot & 63));
    }
  }
  if (size_ == 0 && until != kTimeInfinity) {
    now_ = std::max(now_, until);
  }
  return executed;
}

}  // namespace dcc
