// Fleet frontend: a load-balancer node fronting N resolvers (ROADMAP
// "resolver-fleet & moving-target scenarios"; MTDNS-style rotation defense).
//
// The frontend terminates client queries and relays each to one fleet member
// chosen by a pluggable steering policy (rendezvous/consistent hash on the
// qname, least-loaded by outstanding relayed queries, or round-robin). Member
// health is tracked with the same RFC 6298 machinery the resolver and
// forwarder use (`UpstreamTracker`): active probe queries fire on the virtual
// clock with SRTT-derived probe RTOs, consecutive probe or relay timeouts
// enter the member into hold-down, and any response (probe or relay) clears
// it. Failover re-steers timed-out queries away from held-down members, but
// every post-timeout re-steer must pass a token-bucket retry budget so a
// member blackout cannot thundering-herd the survivors — over budget the
// query fails fast with SERVFAIL instead.
//
// Moving-target rotation (`rotation_period`) advances an epoch counter on a
// timer. The epoch salts the rendezvous hash (re-shuffling the qname→member
// mapping each period) and, when `rotation_active` narrows the active window,
// shifts which members accept new traffic. In-flight queries drain naturally;
// timed-out ones re-steer into the new epoch's active set.
//
// Like every server class this is written against the Transport seam, takes
// all randomness from a seeded Rng, and keeps selection deterministic: member
// order is insertion order, ties break on the lowest member index.

#ifndef SRC_SERVER_FRONTEND_H_
#define SRC_SERVER_FRONTEND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/rng.h"
#include "src/common/token_bucket.h"
#include "src/dns/message.h"
#include "src/server/pending_queries.h"
#include "src/server/transport.h"
#include "src/server/upstream_tracker.h"
#include "src/telemetry/audit.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace dcc {

enum class SteeringPolicy {
  kConsistentHash,  // Rendezvous hash on qname, salted by the rotation epoch.
  kLeastLoaded,     // Fewest outstanding relayed queries; ties by index.
  kRoundRobin,
};

struct FrontendConfig {
  SteeringPolicy steering = SteeringPolicy::kConsistentHash;
  Duration processing_delay = Microseconds(10);

  // Relay retry: total send attempts per client query; per-attempt timeout is
  // the member's RFC 6298 RTO (fallback `query_timeout`) with exponential
  // backoff and jitter, like the forwarder's adaptive retry.
  int max_attempts = 3;
  Duration query_timeout = Milliseconds(1200);
  double retry_backoff_factor = 2.0;
  Duration retry_backoff_max = Seconds(6);
  double retry_jitter = 0.1;

  // Active health checks: per-member probe queries for `probe_name` every
  // `probe_interval`; probe timeout is the member's RTO (fallback
  // `probe_timeout`). Probes keep firing during hold-down so a recovered
  // member is readmitted without waiting for client traffic.
  bool health_checks = true;
  Duration probe_interval = Milliseconds(500);
  std::string probe_name;  // Engine default: "ans.<first target apex>".
  Duration probe_timeout = Milliseconds(800);

  // Token-bucket budget on post-timeout re-steers (rate <= 0: unlimited).
  // Over budget, the query answers SERVFAIL instead of loading survivors.
  double resteer_budget_qps = 0;
  double resteer_budget_burst = 16;

  // Moving-target rotation: 0 disables. `rotation_active` < member count
  // narrows how many members accept new traffic per epoch (0 = all).
  Duration rotation_period = 0;
  int rotation_active = 0;

  // Emit the DCC attribution option on relayed queries (§5).
  bool attach_attribution = false;

  // Hold-down / RTO knobs shared with the resolver and forwarder.
  UpstreamTrackerConfig upstream;
};

class FleetFrontend : public DatagramHandler, public CrashResettable {
 public:
  FleetFrontend(Transport& transport, FrontendConfig config, uint64_t seed = 1);

  // Members are tried in insertion order for tie-breaks; addresses must be
  // unique. Add all members before Start().
  void AddMember(HostAddress member);

  // Arms the per-member probe loops and the rotation timer on the virtual
  // clock. Idempotent.
  void Start();

  void HandleDatagram(const Datagram& dgram) override;

  // Simulated process crash: drops all relayed-in-flight and probe state.
  void CrashReset() override;
  void CrashRestart() override;

  uint64_t requests_received() const { return requests_received_; }
  uint64_t responses_sent() const { return responses_sent_; }
  uint64_t queries_sent() const { return queries_sent_; }
  // Post-timeout retries relayed (the re-steer burst the budget bounds).
  uint64_t resteers() const { return resteers_; }
  uint64_t resteer_denied() const { return resteer_denied_; }
  uint64_t rotations() const { return rotations_; }
  uint64_t probes_sent() const { return probes_sent_; }
  uint64_t probe_timeouts() const { return probe_timeouts_; }
  uint64_t servfails_sent() const { return servfails_sent_; }
  uint64_t rotation_epoch() const { return epoch_; }

  size_t MemberCount() const { return members_.size(); }
  // Queries relayed to `member` (initial + re-steered attempts).
  uint64_t SteeredCount(HostAddress member) const;
  // Members not currently held down.
  size_t HealthyCount(Time now) const;
  bool IsMemberHealthy(HostAddress member, Time now) const;
  size_t PendingCount() const { return pending_.size(); }
  size_t MemoryFootprint() const;

  const std::vector<HostAddress>& members() const { return members_; }
  UpstreamTracker& tracker() { return tracker_; }

  // Wires request/steering/probe counters, a per-member `resolver_healthy`
  // gauge and the failover-latency histogram into `registry`, and (when
  // `tracer` is non-null) stamps a resolver_response span on frontend-
  // synthesized SERVFAILs so trace trees show them as failed rather than
  // vanished. nullptr detaches. Safe to call before or after AddMember().
  void AttachTelemetry(telemetry::MetricsRegistry* registry,
                       telemetry::QueryTracer* tracer = nullptr);

  // Routes fast-fail decisions (re-steer budget denial, attempts exhausted,
  // no eligible member) and member hold-downs into `audit`. nullptr detaches.
  void AttachAudit(telemetry::DecisionAuditLog* audit);

  // Point-in-time view for the introspection seam.
  struct DebugState {
    uint64_t epoch = 0;
    size_t pending = 0;
    uint64_t resteers = 0;
    uint64_t resteer_denied = 0;
    std::vector<HostAddress> active_members;  // Current epoch's window.
    UpstreamTracker::DebugState tracker;
  };
  DebugState GetDebugState(Time now) const;

 private:
  struct Pending {
    Endpoint client;
    uint16_t local_port = kDnsPort;
    Message query;
    int attempts_left = 0;
    HostAddress member = kInvalidAddress;
    Time sent_at = 0;
    Time first_sent_at = 0;
    int attempt = 0;  // Transmissions already made (0 before the first).
    // Cached upstream encoding: re-steering changes the member, not the
    // bytes, so every attempt resends the same buffer.
    WireBytes wire;
  };
  struct PendingProbe {
    HostAddress member = kInvalidAddress;
    Time sent_at = 0;
    uint16_t query_id = 0;
  };

  // Members eligible for new traffic: active-window ∩ live, falling back to
  // any live member, then to the whole fleet (all-down: probe via traffic).
  std::vector<size_t> EligibleMembers(Time now) const;
  bool InActiveWindow(size_t index) const;
  HostAddress PickMember(const Name& qname, Time now);

  void RelayQuery(uint16_t port, bool is_resteer);
  void SendProbe(size_t member_index);
  void OnProbeTimeout(uint16_t port);
  void OnRotationTick();
  // Arms the staggered per-member probe timers and the rotation timer,
  // cancelling any that are still pending (idempotent re-arm).
  void ArmTimers();
  void CancelTimers();
  void RespondToClient(const Pending& pending, Message response);
  // Answers `done` with SERVFAIL, attributing the fast-fail to `cause` with
  // the deciding observed/limit snapshot in the audit log and trace stream.
  void FailPending(Pending done, telemetry::AuditCause cause, double observed,
                   double limit);
  Duration AttemptTimeout(HostAddress member, int attempt);

  telemetry::Counter* SteeredCounter(HostAddress member, bool resteer);
  void RegisterMemberTelemetry(HostAddress member);

  Transport& transport_;
  FrontendConfig config_;
  Rng rng_;
  UpstreamTracker tracker_;
  TokenBucket resteer_budget_;
  std::vector<HostAddress> members_;
  FlatMap<HostAddress, uint64_t> steered_;
  // Relays and probes share one port space: both allocate from pending_'s
  // cursor, skipping ports either table holds.
  PendingQueries<Pending> pending_;
  PendingQueries<PendingProbe> probe_pending_;
  // The periodic work's next timers: a crash cancels these so a dead
  // frontend stops probing, and the restart handler re-arms them.
  std::vector<TimerId> probe_timers_;
  TimerId rotation_timer_;
  bool started_ = false;
  uint64_t epoch_ = 0;
  size_t next_member_ = 0;  // Round-robin cursor.
  uint16_t next_probe_id_ = 1;

  uint64_t requests_received_ = 0;
  uint64_t responses_sent_ = 0;
  uint64_t queries_sent_ = 0;
  uint64_t resteers_ = 0;
  uint64_t resteer_denied_ = 0;
  uint64_t rotations_ = 0;
  uint64_t probes_sent_ = 0;
  uint64_t probe_timeouts_ = 0;
  uint64_t servfails_sent_ = 0;

  telemetry::MetricsRegistry* registry_ = nullptr;
  telemetry::QueryTracer* tracer_ = nullptr;
  telemetry::DecisionAuditLog* audit_ = nullptr;
  telemetry::Counter* request_counter_ = nullptr;
  telemetry::Counter* resteer_denied_counter_ = nullptr;
  telemetry::Counter* rotation_counter_ = nullptr;
  telemetry::Counter* probe_counter_ = nullptr;
  telemetry::Counter* probe_timeout_counter_ = nullptr;
  telemetry::Counter* servfail_counter_ = nullptr;
  telemetry::HistogramMetric* failover_latency_ = nullptr;
  // Lazily-created per-member frontend_steered_total{resolver,reason}.
  FlatMap<uint64_t, telemetry::Counter*> steered_counters_;
};

}  // namespace dcc

#endif  // SRC_SERVER_FRONTEND_H_
