// Discrete-event loop with a virtual microsecond clock.
//
// All experiments run on virtual time: scheduling an event is O(1) amortized
// and running 60 simulated seconds takes only as long as the handlers
// themselves. Events at equal timestamps run in scheduling order (FIFO),
// which keeps the simulation deterministic.
//
// The pending set is a hierarchical timing wheel (htsim/kernel-timer style)
// instead of a binary heap: level 0 holds one slot per microsecond of the
// current 256 us frame, and three coarser 64-slot levels extend coverage to
// ~67 simulated seconds, with a spill heap beyond that. Slots are indexed by
// absolute time bits, so an event is pushed at most once per level on its
// way down (O(1) amortized), and per-level bitmaps let the loop jump
// directly to the next non-empty slot instead of ticking through empty
// microseconds. A level-0 slot holds exactly one timestamp, so sorting the
// slot by monotone sequence number at drain time reproduces the old
// priority-queue (when, seq) order event-for-event.
//
// Every schedule call accepts an optional *category* — a string literal
// naming the kind of work ("net.deliver", "stub.launch", "resolver.timeout").
// Categories feed the hot-path profiler (src/telemetry/profiler.h): when
// profiling is enabled, Run() wraps each handler in a scoped site named
// after its category and records per-category execution counts, handler
// wall time and the virtual schedule-to-run lag. Categories are plain
// labels: they never affect ordering, so labeled and unlabeled runs are
// event-for-event identical.
//
// Cancellation: every schedule call returns a TimerId; Cancel(id) tombstones
// the event in O(1) without allocating. Tombstones keep their wheel slot, so
// surviving events keep their exact (when, seq) order, and are skipped at
// drain time: counted in cancelled_skipped() and the profiler's `cancelled`
// column, never as executed. Cancelling a fired or cancelled event is a no-op.

#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/common/time.h"
#include "src/telemetry/metrics.h"

namespace dcc {

// Names one scheduled event for EventLoop::Cancel; a default id names none.
struct TimerId {
  uint32_t slot = 0;
  uint32_t serial = 0;  // Never 0 for an event; repeats after 2^32 schedules.
};

class EventLoop {
 public:
  using Handler = std::function<void()>;

  EventLoop();
  ~EventLoop();

  Time now() const { return now_; }

  // Registers this loop's virtual clock with the logging layer so every log
  // line is prefixed with the simulated time (see SetLogClock). The clock is
  // deregistered automatically when this loop is destroyed.
  void InstallLogClock();

  // Wires the loop's own metrics into `registry`: executed-event counter and
  // a pending-queue depth gauge. Safe to call with nullptr to detach. The
  // gauge callback samples this loop, so snapshot (or freeze) the registry
  // before the loop dies.
  void AttachTelemetry(telemetry::MetricsRegistry* registry);

  // Schedules `fn` at absolute time `t` (clamped to `now`). `category` must
  // be a string literal (or otherwise outlive the loop); it labels the event
  // for the profiler's per-category table and flamegraph output.
  TimerId ScheduleAt(Time t, Handler fn);
  TimerId ScheduleAt(Time t, const char* category, Handler fn);

  // Schedules `fn` after `delay` from now.
  TimerId ScheduleAfter(Duration delay, Handler fn);
  TimerId ScheduleAfter(Duration delay, const char* category, Handler fn);

  // Tombstones the event `id` names if it is still pending; a no-op for an
  // event that already ran or was cancelled, and for a default id.
  void Cancel(TimerId id);

  // Schedules `fn` every `period`, starting at now + period, until the loop
  // stops or `until` is reached (kTimeInfinity = forever). The handler is
  // stored once in shared state: re-arming each tick copies a shared_ptr,
  // not the handler itself (periodic samplers capture non-trivial state).
  void SchedulePeriodic(Duration period, Handler fn, Time until = kTimeInfinity);
  void SchedulePeriodic(Duration period, const char* category, Handler fn,
                        Time until = kTimeInfinity);

  // Runs until the queue is empty, `until` is passed, or Stop() is called.
  // Returns the number of events executed.
  size_t Run(Time until = kTimeInfinity);

  // Cumulative events executed across every EventLoop in this process. The
  // simulation is deterministic, so this is a machine-independent measure of
  // work done — the bench harness uses deltas of it as its primary
  // regression signal.
  static uint64_t TotalEventsExecuted();

  void Stop() { stopped_ = true; }

  // Live (uncancelled executions pending) plus cancelled-but-not-yet-reaped
  // events; cancelled events leave this count when their timestamp drains.
  size_t pending() const { return size_; }

  // Highest queue depth observed since construction. Always tracked (two
  // instructions per schedule) — the profiler report includes it, and the
  // timing wheel's occupancy stats complement it.
  size_t max_pending() const { return max_pending_; }

  // Events skipped at drain time because they were cancelled first.
  uint64_t cancelled_skipped() const { return cancelled_skipped_; }

 private:
  struct Event {
    Time when;
    uint64_t seq;
    Handler fn;
    const char* category;  // Never null; label only, never ordering.
    Time enqueued_at;      // Virtual enqueue time, for schedule-to-run lag.
    uint32_t slot;         // Cancellation slot and serial (see TimerId).
    uint32_t serial;
    bool operator>(const Event& other) const {
      return when != other.when ? when > other.when : seq > other.seq;
    }
  };

  // Wheel geometry: absolute-time bit slices. Level 0 resolves single
  // microseconds of the current 256 us frame; levels 1-3 cover 64 frames
  // each of the next coarser granularity (2^14, 2^20, 2^26 us). Events more
  // than ~67 s out wait in the overflow heap until the cursor enters their
  // level-3 frame.
  static constexpr int kL0Bits = 8;
  static constexpr int kL0Slots = 1 << kL0Bits;         // 256
  static constexpr int kLevelBits = 6;
  static constexpr int kLevelSlots = 1 << kLevelBits;   // 64
  static constexpr int kL1Shift = kL0Bits;              // 8
  static constexpr int kL2Shift = kL0Bits + kLevelBits; // 14
  static constexpr int kL3Shift = kL2Shift + kLevelBits; // 20
  static constexpr int kSpanShift = kL3Shift + kLevelBits; // 26

  TimerId Schedule(Time t, const char* category, Handler fn);
  void Insert(Event e);
  void CascadeInto(std::vector<Event>& bucket);

  enum class Peek { kFound, kBeyond, kEmpty };
  // Advances cursor_ (cascading coarser buckets down, never past `limit`)
  // until the next pending timestamp is known. kFound: *t_out <= limit and
  // level 0 holds that slot. kBeyond: the next event is after `limit`
  // (cursor_ stays <= limit, so later schedules at <= limit stay findable).
  Peek FindNext(Time limit, Time* t_out);

  std::vector<Event> l0_[kL0Slots];
  std::vector<Event> l1_[kLevelSlots];
  std::vector<Event> l2_[kLevelSlots];
  std::vector<Event> l3_[kLevelSlots];
  uint64_t l0_bits_[kL0Slots / 64] = {};
  uint64_t l1_bits_ = 0;
  uint64_t l2_bits_ = 0;
  uint64_t l3_bits_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> overflow_;
  std::vector<Event> scratch_;  // Cascade staging; keeps its capacity.
  // Cancellation slots, one per pending event: slot_serial_[e.slot] ==
  // e.serial while `e` is live, kNoEvent once cancelled or released. Freed
  // slots are recycled, so both vectors stop growing at the peak pending
  // count.
  static constexpr uint32_t kNoEvent = 0;
  std::vector<uint32_t> slot_serial_;
  std::vector<uint32_t> free_slots_;
  uint32_t last_serial_ = kNoEvent;

  Time now_ = 0;
  // Lower bound on every pending event's timestamp; the drain scan starts
  // here. Invariant: cursor_ <= now() whenever control is outside Run(), so
  // clamped schedules can never land behind the scan position.
  Time cursor_ = 0;
  uint64_t next_seq_ = 0;
  size_t size_ = 0;
  size_t max_pending_ = 0;
  uint64_t cancelled_skipped_ = 0;
  bool stopped_ = false;
  telemetry::Counter* events_executed_ = nullptr;
};

}  // namespace dcc

#endif  // SRC_SIM_EVENT_LOOP_H_
