#include "src/server/frontend.h"

#include <algorithm>
#include <limits>

#include "src/dns/codec.h"
#include "src/dns/edns_options.h"
#include "src/telemetry/profiler.h"

namespace dcc {
namespace {

// splitmix64 finalizer: cheap, well-mixed 64-bit hash for rendezvous scoring.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashName(const Name& name) {
  // FNV-1a over the lowercased presentation form (Name equality is
  // case-insensitive, so the hash must be too).
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& label : name.labels()) {
    for (char c : label) {
      h ^= static_cast<uint8_t>(c >= 'A' && c <= 'Z' ? c + 32 : c);
      h *= 0x100000001b3ULL;
    }
    h ^= 0x2e;  // Label separator.
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

FleetFrontend::FleetFrontend(Transport& transport, FrontendConfig config,
                             uint64_t seed)
    : transport_(transport),
      config_(config),
      rng_(seed ^ 0x66726f6eULL),
      tracker_(config.upstream, seed ^ 0x666c6565ULL),
      resteer_budget_(config.resteer_budget_qps, config.resteer_budget_burst,
                      transport.now()),
      pending_(transport.loop(), /*first_port=*/2048),
      probe_pending_(transport.loop(), /*first_port=*/2048) {}

void FleetFrontend::AddMember(HostAddress member) {
  members_.push_back(member);
  steered_.emplace(member, 0);
  RegisterMemberTelemetry(member);
}

void FleetFrontend::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  ArmTimers();
}

void FleetFrontend::CancelTimers() {
  for (TimerId timer : probe_timers_) {
    transport_.loop().Cancel(timer);
  }
  probe_timers_.clear();
  transport_.loop().Cancel(rotation_timer_);
}

void FleetFrontend::ArmTimers() {
  CancelTimers();
  if (config_.health_checks && config_.probe_interval > 0) {
    for (size_t i = 0; i < members_.size(); ++i) {
      // Stagger the first round so a large fleet does not probe in lockstep.
      const Duration offset = static_cast<Duration>(
          config_.probe_interval * (i + 1) / (members_.size() + 1));
      probe_timers_.push_back(transport_.loop().ScheduleAfter(
          offset, "frontend.probe", [this, i]() { SendProbe(i); }));
    }
  }
  if (config_.rotation_period > 0) {
    rotation_timer_ = transport_.loop().ScheduleAfter(
        config_.rotation_period, "frontend.rotate",
        [this]() { OnRotationTick(); });
  }
}

void FleetFrontend::CrashReset() {
  pending_.Clear();
  probe_pending_.Clear();
  resteer_budget_ = TokenBucket(config_.resteer_budget_qps,
                                config_.resteer_budget_burst, transport_.now());
  // A crashed frontend stops probing and rotating; CrashRestart re-arms.
  CancelTimers();
}

void FleetFrontend::CrashRestart() {
  if (started_) {
    ArmTimers();
  }
}

void FleetFrontend::AttachTelemetry(telemetry::MetricsRegistry* registry,
                                    telemetry::QueryTracer* tracer) {
  registry_ = registry;
  tracer_ = tracer;
  steered_counters_.clear();
  if (registry == nullptr) {
    request_counter_ = nullptr;
    resteer_denied_counter_ = nullptr;
    rotation_counter_ = nullptr;
    probe_counter_ = nullptr;
    probe_timeout_counter_ = nullptr;
    servfail_counter_ = nullptr;
    failover_latency_ = nullptr;
    tracker_.AttachTelemetry(nullptr, {});
    return;
  }
  const telemetry::Labels host = {
      {"host", FormatAddress(transport_.local_address())}};
  request_counter_ = registry->GetCounter(
      "frontend_requests_total", host, "Client requests received by the fleet frontend");
  resteer_denied_counter_ = registry->GetCounter(
      "frontend_resteer_denied_total", host,
      "Post-timeout retries refused by the re-steer budget (answered SERVFAIL)");
  rotation_counter_ = registry->GetCounter(
      "frontend_rotations_total", host, "Moving-target rotation epochs advanced");
  probe_counter_ = registry->GetCounter(
      "frontend_probes_total", host, "Active health-check probes sent");
  probe_timeout_counter_ = registry->GetCounter(
      "frontend_probe_timeouts_total", host, "Health-check probes that timed out");
  servfail_counter_ = registry->GetCounter(
      "frontend_servfails_total", host, "SERVFAIL responses sent to clients");
  failover_latency_ = registry->GetHistogram(
      "frontend_failover_latency_us", host,
      "Client-observed latency of queries that needed at least one re-steer");
  tracker_.AttachTelemetry(registry, host);
  for (HostAddress member : members_) {
    RegisterMemberTelemetry(member);
  }
}

void FleetFrontend::RegisterMemberTelemetry(HostAddress member) {
  if (registry_ == nullptr) {
    return;
  }
  registry_->GetCallbackGauge(
      "resolver_healthy",
      [this, member]() {
        return IsMemberHealthy(member, transport_.now()) ? 1.0 : 0.0;
      },
      {{"host", FormatAddress(transport_.local_address())},
       {"resolver", FormatAddress(member)}},
      "1 while the fleet member is not held down, 0 during hold-down");
}

telemetry::Counter* FleetFrontend::SteeredCounter(HostAddress member,
                                                  bool resteer) {
  if (registry_ == nullptr) {
    return nullptr;
  }
  const uint64_t key = (static_cast<uint64_t>(member) << 1) | (resteer ? 1 : 0);
  auto it = steered_counters_.find(key);
  if (it != steered_counters_.end()) {
    return it->second;
  }
  telemetry::Counter* counter = registry_->GetCounter(
      "frontend_steered_total",
      {{"host", FormatAddress(transport_.local_address())},
       {"resolver", FormatAddress(member)},
       {"reason", resteer ? "resteer" : "initial"}},
      "Queries relayed to a fleet member, by steering reason");
  steered_counters_.emplace(key, counter);
  return counter;
}

void FleetFrontend::AttachAudit(telemetry::DecisionAuditLog* audit) {
  audit_ = audit;
  tracker_.AttachAudit(audit, transport_.local_address());
}

uint64_t FleetFrontend::SteeredCount(HostAddress member) const {
  auto it = steered_.find(member);
  return it == steered_.end() ? 0 : it->second;
}

bool FleetFrontend::IsMemberHealthy(HostAddress member, Time now) const {
  return !tracker_.IsHeldDown(member, now);
}

size_t FleetFrontend::HealthyCount(Time now) const {
  size_t healthy = 0;
  for (HostAddress member : members_) {
    if (IsMemberHealthy(member, now)) {
      ++healthy;
    }
  }
  return healthy;
}

bool FleetFrontend::InActiveWindow(size_t index) const {
  if (config_.rotation_active <= 0 ||
      static_cast<size_t>(config_.rotation_active) >= members_.size()) {
    return true;
  }
  const size_t shifted = (index + epoch_) % members_.size();
  return shifted < static_cast<size_t>(config_.rotation_active);
}

std::vector<size_t> FleetFrontend::EligibleMembers(Time now) const {
  std::vector<size_t> active_live;
  std::vector<size_t> any_live;
  for (size_t i = 0; i < members_.size(); ++i) {
    if (!tracker_.IsHeldDown(members_[i], now)) {
      any_live.push_back(i);
      if (InActiveWindow(i)) {
        active_live.push_back(i);
      }
    }
  }
  if (!active_live.empty()) {
    return active_live;
  }
  if (!any_live.empty()) {
    return any_live;
  }
  std::vector<size_t> all(members_.size());
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = i;
  }
  return all;
}

HostAddress FleetFrontend::PickMember(const Name& qname, Time now) {
  const std::vector<size_t> eligible = EligibleMembers(now);
  switch (config_.steering) {
    case SteeringPolicy::kConsistentHash: {
      // Rendezvous hashing: highest hash(qname, member, epoch) wins, so only
      // keys owned by a removed/rotated-out member move. The epoch salt is
      // the moving-target defense: each rotation re-shuffles the mapping.
      uint64_t best_score = 0;
      size_t best = eligible.front();
      const uint64_t name_hash = HashName(qname);
      for (size_t index : eligible) {
        const uint64_t score =
            Mix64(name_hash ^ Mix64(static_cast<uint64_t>(members_[index]) ^
                                    (epoch_ << 32)));
        if (score > best_score) {
          best_score = score;
          best = index;
        }
      }
      return members_[best];
    }
    case SteeringPolicy::kLeastLoaded: {
      std::vector<uint64_t> outstanding(members_.size(), 0);
      pending_.ForEach([&](uint16_t, const Pending& pending) {
        for (size_t i = 0; i < members_.size(); ++i) {
          if (members_[i] == pending.member) {
            ++outstanding[i];
            break;
          }
        }
      });
      size_t best = eligible.front();
      uint64_t best_load = std::numeric_limits<uint64_t>::max();
      for (size_t index : eligible) {
        if (outstanding[index] < best_load) {
          best_load = outstanding[index];
          best = index;
        }
      }
      return members_[best];
    }
    case SteeringPolicy::kRoundRobin: {
      const size_t index = eligible[next_member_++ % eligible.size()];
      return members_[index];
    }
  }
  return members_[eligible.front()];
}

Duration FleetFrontend::AttemptTimeout(HostAddress member, int attempt) {
  double timeout = static_cast<double>(
      tracker_.RetransmitTimeout(member, config_.query_timeout));
  for (int i = 0; i < attempt; ++i) {
    timeout *= config_.retry_backoff_factor;
  }
  timeout = std::min(timeout, static_cast<double>(config_.retry_backoff_max));
  if (config_.retry_jitter > 0.0) {
    timeout *= 1.0 + (2.0 * rng_.NextDouble() - 1.0) * config_.retry_jitter;
  }
  return std::max<Duration>(static_cast<Duration>(timeout), kMillisecond);
}

void FleetFrontend::RespondToClient(const Pending& pending, Message response) {
  response.header.id = pending.query.header.id;
  response.header.qr = true;
  response.header.ra = true;
  response.question = pending.query.question;
  if (response.header.rcode == Rcode::kServFail) {
    ++servfails_sent_;
    if (servfail_counter_ != nullptr) {
      servfail_counter_->Inc();
    }
  }
  auto wire = EncodeMessage(response);
  const Endpoint client = pending.client;
  const uint16_t local_port = pending.local_port;
  if (config_.processing_delay > 0) {
    transport_.loop().ScheduleAfter(
        config_.processing_delay, "frontend.respond",
        [this, local_port, client, wire = std::move(wire)]() mutable {
          transport_.Send(local_port, client, std::move(wire));
        });
  } else {
    transport_.Send(local_port, client, std::move(wire));
  }
  ++responses_sent_;
}

void FleetFrontend::FailPending(Pending done, telemetry::AuditCause cause,
                                double observed, double limit) {
  if (tracer_ != nullptr) {
    // Synthesized failures must still show up in trace trees as a response
    // decision at this node, not as a vanished query.
    tracer_->Record(telemetry::MakeTraceId(done.client.addr, done.client.port,
                                           done.query.header.id),
                    telemetry::SpanKind::kResolverResponse, transport_.now(),
                    transport_.local_address(),
                    static_cast<int32_t>(Rcode::kServFail));
  }
  if (audit_ != nullptr) {
    telemetry::AuditRecord rec;
    rec.at = transport_.now();
    rec.cause = cause;
    rec.actor = transport_.local_address();
    rec.client = done.client.addr;
    rec.channel = done.member == kInvalidAddress ? 0 : done.member;
    rec.trace_id = telemetry::MakeTraceId(done.client.addr, done.client.port,
                                          done.query.header.id);
    rec.span_id = telemetry::kClientSpanId;
    rec.observed = observed;
    rec.limit = limit;
    if (!done.query.question.empty()) {
      telemetry::SetAuditQname(rec, done.query.Q().qname.ToString());
    }
    audit_->Record(rec);
  }
  RespondToClient(done, MakeResponse(done.query, Rcode::kServFail));
}

void FleetFrontend::HandleDatagram(const Datagram& dgram) {
  DCC_PROF_SCOPE("frontend.handle");
  auto decoded = DecodeMessage(dgram.payload);
  if (!decoded.has_value()) {
    return;
  }

  if (decoded->IsQuery() && dgram.dst.port == kDnsPort) {
    ++requests_received_;
    if (request_counter_ != nullptr) {
      request_counter_->Inc();
    }
    if (decoded->question.empty() || members_.empty()) {
      Message response = MakeResponse(*decoded, Rcode::kServFail);
      ++servfails_sent_;
      if (servfail_counter_ != nullptr) {
        servfail_counter_->Inc();
      }
      if (tracer_ != nullptr) {
        tracer_->Record(telemetry::MakeTraceId(dgram.src.addr, dgram.src.port,
                                               decoded->header.id),
                        telemetry::SpanKind::kResolverResponse,
                        transport_.now(), transport_.local_address(),
                        static_cast<int32_t>(Rcode::kServFail));
      }
      if (audit_ != nullptr) {
        telemetry::AuditRecord rec;
        rec.at = transport_.now();
        rec.cause = telemetry::AuditCause::kFrontendNoMembers;
        rec.actor = transport_.local_address();
        rec.client = dgram.src.addr;
        rec.trace_id = telemetry::MakeTraceId(dgram.src.addr, dgram.src.port,
                                              decoded->header.id);
        rec.span_id = telemetry::kClientSpanId;
        rec.observed = static_cast<double>(members_.size());
        rec.limit = 1;  // Relaying needs at least one member and a question.
        if (!decoded->question.empty()) {
          telemetry::SetAuditQname(rec, decoded->Q().qname.ToString());
        }
        audit_->Record(rec);
      }
      transport_.Send(dgram.dst.port, dgram.src, EncodeMessage(response));
      ++responses_sent_;
      return;
    }
    const uint16_t port = pending_.AllocatePort(&probe_pending_);
    Pending& pending = pending_.Insert(port);
    pending.client = dgram.src;
    pending.local_port = dgram.dst.port;
    pending.query = std::move(*decoded);
    pending.attempts_left = config_.max_attempts;
    RelayQuery(port, /*is_resteer=*/false);
    return;
  }

  if (decoded->IsResponse()) {
    if (const PendingProbe* found = probe_pending_.Find(dgram.dst.port);
        found != nullptr) {
      if (decoded->header.id != found->query_id || dgram.src.addr != found->member) {
        return;
      }
      const PendingProbe probe = probe_pending_.Take(dgram.dst.port);
      // Any probe answer counts as liveness; it also clears an active
      // hold-down (recovery) through the tracker.
      tracker_.OnResponse(probe.member, transport_.now() - probe.sent_at,
                          transport_.now());
      return;
    }
    Pending* found = pending_.Find(dgram.dst.port);
    if (found == nullptr) {
      return;
    }
    Pending& pending = *found;
    if (decoded->header.id != pending.query.header.id ||
        decoded->question.empty() ||
        !(decoded->Q().qname == pending.query.Q().qname)) {
      return;
    }
    if (pending.member != kInvalidAddress) {
      tracker_.OnResponse(pending.member, transport_.now() - pending.sent_at,
                          transport_.now());
    }
    if (pending.attempt > 1 && failover_latency_ != nullptr) {
      failover_latency_->Observe(
          static_cast<double>(transport_.now() - pending.first_sent_at));
    }
    Message response = std::move(*decoded);
    RespondToClient(pending_.Take(dgram.dst.port), std::move(response));
  }
}

void FleetFrontend::RelayQuery(uint16_t port, bool is_resteer) {
  Pending& pending = *pending_.Find(port);
  if (pending.attempts_left <= 0) {
    FailPending(pending_.Take(port),
                telemetry::AuditCause::kFrontendAttemptsExhausted,
                static_cast<double>(config_.max_attempts),
                static_cast<double>(config_.max_attempts));
    return;
  }
  const Time now = transport_.now();
  if (is_resteer) {
    // The retry budget bounds the fleet-wide burst of re-steered traffic a
    // member outage can throw onto the survivors (failover thundering herd).
    if (!resteer_budget_.TryConsume(now)) {
      ++resteer_denied_;
      if (resteer_denied_counter_ != nullptr) {
        resteer_denied_counter_->Inc();
      }
      FailPending(pending_.Take(port), telemetry::AuditCause::kFrontendBudgetDenied,
                  /*observed=*/0, config_.resteer_budget_burst);
      return;
    }
    ++resteers_;
  }
  --pending.attempts_left;
  const HostAddress member = PickMember(pending.query.Q().qname, now);
  pending.member = member;
  pending.sent_at = now;
  if (pending.attempt == 0) {
    pending.first_sent_at = now;
  }
  const int attempt = pending.attempt++;
  ++steered_[member];
  if (telemetry::Counter* counter = SteeredCounter(member, is_resteer);
      counter != nullptr) {
    counter->Inc();
  }

  if (pending.wire.empty()) {
    Message query = pending.query;
    query.header.rd = true;
    if (config_.attach_attribution) {
      SetOption(query, EncodeAttribution(Attribution{pending.client.addr,
                                                     pending.client.port,
                                                     pending.query.header.id}));
    }
    pending.wire = EncodeMessage(query);
  } else {
    prof::CountEncodeCacheHit();
  }
  transport_.Send(port, Endpoint{member, kDnsPort}, pending.wire);
  ++queries_sent_;

  pending_.Arm(port, AttemptTimeout(member, attempt), "frontend.timeout",
               [this, port, member]() {
                 tracker_.OnTimeout(member, transport_.now());
                 RelayQuery(port, /*is_resteer=*/true);
               });
}

void FleetFrontend::SendProbe(size_t member_index) {
  if (member_index >= members_.size()) {
    return;
  }
  const HostAddress member = members_[member_index];
  if (member_index < probe_timers_.size()) {
    probe_timers_[member_index] = transport_.loop().ScheduleAfter(
        config_.probe_interval, "frontend.probe",
        [this, member_index]() { SendProbe(member_index); });
  }
  auto parsed = Name::Parse(config_.probe_name);
  if (!parsed.has_value()) {
    return;
  }
  const uint16_t port = pending_.AllocatePort(&probe_pending_);
  const uint16_t id = next_probe_id_++;
  PendingProbe& probe = probe_pending_.Insert(port);
  probe.member = member;
  probe.sent_at = transport_.now();
  probe.query_id = id;
  Message query = MakeQuery(id, *parsed, RecordType::kA);
  transport_.Send(port, Endpoint{member, kDnsPort}, EncodeMessage(query));
  ++probes_sent_;
  if (probe_counter_ != nullptr) {
    probe_counter_->Inc();
  }
  const Duration timeout = std::max<Duration>(
      tracker_.RetransmitTimeout(member, config_.probe_timeout), kMillisecond);
  probe_pending_.Arm(port, timeout, "frontend.probe_timeout",
                     [this, port]() { OnProbeTimeout(port); });
}

void FleetFrontend::OnProbeTimeout(uint16_t port) {
  const HostAddress member = probe_pending_.Take(port).member;
  ++probe_timeouts_;
  if (probe_timeout_counter_ != nullptr) {
    probe_timeout_counter_->Inc();
  }
  tracker_.OnTimeout(member, transport_.now());
}

void FleetFrontend::OnRotationTick() {
  ++epoch_;
  ++rotations_;
  if (rotation_counter_ != nullptr) {
    rotation_counter_->Inc();
  }
  rotation_timer_ = transport_.loop().ScheduleAfter(
      config_.rotation_period, "frontend.rotate",
      [this]() { OnRotationTick(); });
}

size_t FleetFrontend::MemoryFootprint() const {
  size_t bytes = tracker_.MemoryFootprint();
  bytes += members_.size() * sizeof(HostAddress);
  bytes += pending_.size() * (sizeof(uint16_t) + sizeof(Pending) + 128);
  bytes += probe_pending_.size() * (sizeof(uint16_t) + sizeof(PendingProbe) + 64);
  return bytes;
}

FleetFrontend::DebugState FleetFrontend::GetDebugState(Time now) const {
  DebugState state;
  state.epoch = epoch_;
  state.pending = pending_.size();
  state.resteers = resteers_;
  state.resteer_denied = resteer_denied_;
  for (size_t i = 0; i < members_.size(); ++i) {
    if (InActiveWindow(i)) {
      state.active_members.push_back(members_[i]);
    }
  }
  state.tracker = tracker_.GetDebugState(now);
  return state;
}

}  // namespace dcc
