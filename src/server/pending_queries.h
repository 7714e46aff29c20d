// Port-keyed table of in-flight queries, each with one attempt timer.
//
// Stub, forwarder, fleet frontend and recursive resolver all run the same
// send/timeout/retry loop. This table owns its two error-prone parts: port
// allocation (a cursor from a per-role first port that skips privileged
// ports, the DNS port and ports in flight) and the attempt timer, whose
// previous instance Arm() cancels and which every removal (Erase, Take,
// EraseIf, Clear) cancels. A timeout handler therefore only runs for the
// live attempt it was armed for: never after its answer, a re-send or a
// crash. The event loop counts the cancelled timers as dead work.

#ifndef SRC_SERVER_PENDING_QUERIES_H_
#define SRC_SERVER_PENDING_QUERIES_H_

#include <cstdint>
#include <utility>

#include "src/common/flat_map.h"
#include "src/server/transport.h"
#include "src/sim/event_loop.h"

namespace dcc {

template <typename V>
class PendingQueries {
 public:
  PendingQueries(EventLoop& loop, uint16_t first_port)
      : loop_(loop), first_port_(first_port), next_port_(first_port) {}

  size_t size() const { return entries_.size(); }
  bool contains(uint16_t port) const { return entries_.contains(port); }

  // The in-flight query on `port`, or nullptr. Invalidated by any insert or
  // removal (FlatMap semantics).
  V* Find(uint16_t port) {
    auto it = entries_.find(port);
    return it == entries_.end() ? nullptr : &it->second.value;
  }

  // Next port from the cursor that is neither privileged, the DNS port, nor
  // held by this table or by `peer` (a table sharing this port space; its
  // own cursor goes unused). Returns 1023 when every port is taken.
  template <typename U = V>
  uint16_t AllocatePort(const PendingQueries<U>* peer = nullptr) {
    for (int attempts = 0; attempts < 65536; ++attempts) {
      const uint16_t port = next_port_++;
      if (next_port_ == 0) {
        next_port_ = first_port_;
      }
      if (port >= 1024 && port != kDnsPort && !contains(port) &&
          (peer == nullptr || !peer->contains(port))) {
        return port;
      }
    }
    return 1023;
  }

  // Adds a default-constructed entry on `port` (which must be free).
  V& Insert(uint16_t port) { return entries_[port].value; }

  // (Re-)arms `port`'s attempt timer: cancels the previous one, then runs
  // `on_timeout` after `delay` unless the entry is re-armed or removed first.
  void Arm(uint16_t port, Duration delay, const char* category,
           EventLoop::Handler on_timeout) {
    Entry& entry = entries_.at(port);
    loop_.Cancel(entry.timer);
    entry.timer = loop_.ScheduleAfter(delay, category, std::move(on_timeout));
  }

  // Removes `port`'s entry (if any) and cancels its timer.
  void Erase(uint16_t port) {
    if (auto it = entries_.find(port); it != entries_.end()) {
      loop_.Cancel(it->second.timer);
      entries_.erase(port);
    }
  }

  // Removes `port`'s entry (which must exist), cancels its timer and returns
  // the query.
  V Take(uint16_t port) {
    Entry& entry = entries_.at(port);
    loop_.Cancel(entry.timer);
    V value = std::move(entry.value);
    entries_.erase(port);
    return value;
  }

  // Removes every entry matching `pred(port, query)`, cancelling its timer.
  template <class Pred>
  void EraseIf(Pred pred) {
    entries_.EraseIf([&](uint16_t port, const Entry& entry) {
      if (!pred(port, entry.value)) {
        return false;
      }
      loop_.Cancel(entry.timer);
      return true;
    });
  }

  // Drops every entry and cancels every timer (a simulated crash).
  void Clear() {
    for (const auto& [port, entry] : entries_) {
      loop_.Cancel(entry.timer);
    }
    entries_.clear();
  }

  // Calls `fn(port, query)` for every entry, in table order.
  template <class Fn>
  void ForEach(Fn fn) const {
    for (const auto& [port, entry] : entries_) {
      fn(port, entry.value);
    }
  }

 private:
  struct Entry {
    V value;
    TimerId timer;
  };

  EventLoop& loop_;
  const uint16_t first_port_;
  uint16_t next_port_;
  FlatMap<uint16_t, Entry> entries_;
};

}  // namespace dcc

#endif  // SRC_SERVER_PENDING_QUERIES_H_
