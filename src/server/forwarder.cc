#include "src/server/forwarder.h"

#include <algorithm>

#include "src/dns/codec.h"
#include "src/dns/edns_options.h"
#include "src/telemetry/profiler.h"
#include "src/telemetry/trace.h"

namespace dcc {

Forwarder::Forwarder(Transport& transport, ForwarderConfig config, uint64_t seed)
    : transport_(transport),
      config_(config),
      rng_(seed),
      cache_(config.cache_max_entries, config.serve_stale ? config.max_stale : 0),
      tracker_(config.upstream, seed ^ 0x666f7277ULL),
      pending_(transport.loop(), /*first_port=*/2048) {}

void Forwarder::AddUpstream(HostAddress resolver) { upstreams_.push_back(resolver); }

void Forwarder::AttachTelemetry(telemetry::MetricsRegistry* registry) {
  if (registry == nullptr) {
    request_counter_ = nullptr;
    stale_counter_ = nullptr;
    tracker_.AttachTelemetry(nullptr, {});
    return;
  }
  const telemetry::Labels host = {{"host", FormatAddress(transport_.local_address())}};
  request_counter_ = registry->GetCounter("forwarder_requests_total", host,
                                          "Client requests received by the forwarder");
  stale_counter_ = registry->GetCounter(
      "forwarder_stale_answers_total", host,
      "Responses served from expired cache entries (RFC 8767 serve-stale)");
  tracker_.AttachTelemetry(registry, host);
  registry->GetCallbackGauge(
      "forwarder_pending_requests",
      [this]() { return static_cast<double>(pending_.size()); }, host,
      "Relayed queries awaiting an upstream answer");
}

void Forwarder::AttachAudit(telemetry::DecisionAuditLog* audit) {
  audit_ = audit;
  tracker_.AttachAudit(audit, transport_.local_address());
}

void Forwarder::CrashReset() {
  pending_.Clear();
  cache_ = DnsCache(config_.cache_max_entries,
                    config_.serve_stale ? config_.max_stale : 0);
}

Duration Forwarder::AttemptTimeout(HostAddress upstream, int attempt) {
  if (!config_.adaptive_retry) {
    return config_.upstream_timeout;
  }
  double timeout =
      static_cast<double>(tracker_.RetransmitTimeout(upstream, config_.upstream_timeout));
  for (int i = 0; i < attempt; ++i) {
    timeout *= config_.retry_backoff_factor;
  }
  timeout = std::min(timeout, static_cast<double>(config_.retry_backoff_max));
  if (config_.retry_jitter > 0.0) {
    timeout *= 1.0 + (2.0 * rng_.NextDouble() - 1.0) * config_.retry_jitter;
  }
  return std::max<Duration>(static_cast<Duration>(timeout), kMillisecond);
}

void Forwarder::RespondToClient(const Pending& pending, Message response) {
  response.header.id = pending.query.header.id;
  response.header.qr = true;
  response.header.ra = true;
  response.question = pending.query.question;
  auto wire = EncodeMessage(response);
  const Endpoint client = pending.client;
  const uint16_t local_port = pending.local_port;
  if (config_.processing_delay > 0) {
    transport_.loop().ScheduleAfter(
        config_.processing_delay, "forwarder.respond",
        [this, local_port, client, wire = std::move(wire)]() mutable {
          transport_.Send(local_port, client, std::move(wire));
        });
  } else {
    transport_.Send(local_port, client, std::move(wire));
  }
  ++responses_sent_;
}

void Forwarder::HandleDatagram(const Datagram& dgram) {
  DCC_PROF_SCOPE("forwarder.handle");
  auto decoded = DecodeMessage(dgram.payload);
  if (!decoded.has_value()) {
    return;
  }

  if (decoded->IsQuery() && dgram.dst.port == kDnsPort) {
    ++requests_received_;
    if (request_counter_ != nullptr) {
      request_counter_->Inc();
    }
    if (decoded->question.empty() || upstreams_.empty()) {
      if (audit_ != nullptr && upstreams_.empty()) {
        telemetry::AuditRecord rec;
        rec.at = transport_.now();
        rec.cause = telemetry::AuditCause::kForwarderNoUpstreams;
        rec.actor = transport_.local_address();
        rec.client = dgram.src.addr;
        rec.trace_id = telemetry::MakeTraceId(dgram.src.addr, dgram.src.port,
                                              decoded->header.id);
        rec.span_id = telemetry::kClientSpanId;
        rec.observed = 0;  // Configured upstreams.
        rec.limit = 1;
        if (!decoded->question.empty()) {
          telemetry::SetAuditQname(rec, decoded->Q().qname.ToString());
        }
        audit_->Record(rec);
      }
      Message response = MakeResponse(*decoded, Rcode::kServFail);
      transport_.Send(dgram.dst.port, dgram.src, EncodeMessage(response));
      ++responses_sent_;
      return;
    }
    const Question& q = decoded->Q();
    if (config_.cache_enabled) {
      if (const CacheEntry* entry = cache_.Lookup(q.qname, q.qtype, transport_.now());
          entry != nullptr) {
        ++cache_hit_responses_;
        Message response = MakeResponse(*decoded, Rcode::kNoError);
        if (entry->kind == CacheEntryKind::kPositive) {
          response.answers = entry->records;
        } else if (entry->kind == CacheEntryKind::kNegativeNxDomain) {
          response.header.rcode = Rcode::kNxDomain;
        }
        Pending fast;
        fast.client = dgram.src;
        fast.local_port = dgram.dst.port;
        fast.query = *decoded;
        RespondToClient(fast, std::move(response));
        return;
      }
    }
    const uint16_t port = pending_.AllocatePort();
    Pending& pending = pending_.Insert(port);
    pending.client = dgram.src;
    pending.local_port = dgram.dst.port;
    pending.query = std::move(*decoded);
    pending.attempts_left = config_.upstream_attempts;
    pending.upstream_index = next_upstream_++ % upstreams_.size();
    ForwardQuery(port);
    return;
  }

  if (decoded->IsResponse()) {
    Pending* found = pending_.Find(dgram.dst.port);
    if (found == nullptr) {
      return;
    }
    Pending& pending = *found;
    if (decoded->header.id != pending.query.header.id ||
        decoded->question.empty() || !(decoded->Q().qname == pending.query.Q().qname)) {
      return;
    }
    if (pending.last_upstream != kInvalidAddress) {
      tracker_.OnResponse(pending.last_upstream, transport_.now() - pending.sent_at,
                          transport_.now());
    }
    // Cache the relayed response.
    if (config_.cache_enabled) {
      const Question& q = pending.query.Q();
      if (decoded->header.rcode == Rcode::kNoError && !decoded->answers.empty()) {
        cache_.StorePositive(q.qname, q.qtype, decoded->answers, transport_.now());
      } else if (decoded->header.rcode == Rcode::kNxDomain) {
        uint32_t ttl = 60;
        for (const auto& rr : decoded->authority) {
          if (rr.type == RecordType::kSoa) {
            ttl = std::min(rr.ttl, rr.soa().minimum);
          }
        }
        cache_.StoreNegative(q.qname, q.qtype, CacheEntryKind::kNegativeNxDomain, ttl,
                             transport_.now());
      }
    }
    Message response = std::move(*decoded);
    RespondToClient(pending_.Take(dgram.dst.port), std::move(response));
  }
}

void Forwarder::FailPending(Pending done, telemetry::AuditCause cause,
                            double observed, double limit) {
  if (config_.serve_stale && config_.cache_enabled) {
    const Question& q = done.query.Q();
    if (const CacheEntry* entry =
            cache_.LookupStale(q.qname, q.qtype, transport_.now(), config_.max_stale);
        entry != nullptr) {
      Message response = MakeResponse(done.query, Rcode::kNoError);
      if (entry->kind == CacheEntryKind::kPositive) {
        for (ResourceRecord rr : entry->records) {
          rr.ttl = std::min(rr.ttl, config_.stale_answer_ttl);
          response.answers.push_back(std::move(rr));
        }
      } else if (entry->kind == CacheEntryKind::kNegativeNxDomain) {
        response.header.rcode = Rcode::kNxDomain;
      }
      ++stale_responses_;
      if (stale_counter_ != nullptr) {
        stale_counter_->Inc();
      }
      RespondToClient(done, std::move(response));
      return;
    }
  }
  if (audit_ != nullptr) {
    telemetry::AuditRecord rec;
    rec.at = transport_.now();
    rec.cause = cause;
    rec.actor = transport_.local_address();
    rec.client = done.client.addr;
    rec.channel = done.last_upstream == kInvalidAddress ? 0 : done.last_upstream;
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

void Forwarder::ForwardQuery(uint16_t port) {
  Pending& pending = *pending_.Find(port);
  if (pending.attempts_left <= 0) {
    FailPending(pending_.Take(port),
                telemetry::AuditCause::kForwarderAttemptsExhausted,
                config_.upstream_attempts, config_.upstream_attempts);
    return;
  }
  const Time now = transport_.now();
  size_t slot = pending.upstream_index % upstreams_.size();
  if (config_.adaptive_retry) {
    // Skip held-down upstreams (the round-robin start already rotates per
    // request). If every upstream is held down and stale answers can cover,
    // fail fast instead of burning attempts against a dead set.
    bool found_live = false;
    for (size_t k = 0; k < upstreams_.size(); ++k) {
      const size_t candidate = (pending.upstream_index + k) % upstreams_.size();
      if (!tracker_.IsHeldDown(upstreams_[candidate], now)) {
        slot = candidate;
        pending.upstream_index = candidate;
        found_live = true;
        break;
      }
    }
    if (!found_live && config_.serve_stale) {
      FailPending(pending_.Take(port), telemetry::AuditCause::kForwarderNoUpstreams,
                  /*observed=*/0, /*limit=*/1);
      return;
    }
  }
  --pending.attempts_left;
  const HostAddress upstream = upstreams_[slot];
  ++pending.upstream_index;
  pending.last_upstream = upstream;
  pending.sent_at = now;
  const int attempt = pending.attempt++;

  if (pending.upstream_wire.empty()) {
    Message query = pending.query;
    query.header.rd = true;
    if (config_.attach_attribution) {
      SetOption(query, EncodeAttribution(Attribution{pending.client.addr,
                                                     pending.client.port,
                                                     pending.query.header.id}));
    }
    pending.upstream_wire = EncodeMessage(query);
  } else {
    prof::CountEncodeCacheHit();
  }
  transport_.Send(port, Endpoint{upstream, kDnsPort}, pending.upstream_wire);
  ++queries_sent_;

  pending_.Arm(port, AttemptTimeout(upstream, attempt), "forwarder.timeout",
               [this, port, upstream]() {
                 tracker_.OnTimeout(upstream, transport_.now());
                 ForwardQuery(port);
               });
}

size_t Forwarder::MemoryFootprint() const {
  size_t bytes = cache_.MemoryFootprint() + tracker_.MemoryFootprint();
  bytes += pending_.size() * (sizeof(uint16_t) + sizeof(Pending) + 128);
  return bytes;
}

}  // namespace dcc
