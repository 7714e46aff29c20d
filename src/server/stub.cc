#include "src/server/stub.h"

#include <algorithm>

#include "src/common/ids.h"
#include "src/dns/codec.h"
#include "src/dns/edns_options.h"
#include "src/telemetry/profiler.h"

namespace dcc {

StubClient::StubClient(Transport& transport, StubConfig config,
                       QuestionGenerator generator)
    : transport_(transport),
      config_(config),
      generator_(std::move(generator)),
      pending_(transport.loop(), /*first_port=*/10000),
      latency_(/*min_value=*/1.0, /*growth=*/1.05) {}

void StubClient::AddResolver(HostAddress resolver) { resolvers_.push_back(resolver); }

void StubClient::AttachTelemetry(telemetry::MetricsRegistry* registry,
                                 telemetry::QueryTracer* tracer) {
  tracer_ = tracer;
  if (registry == nullptr) {
    requests_counter_ = nullptr;
    success_counter_ = nullptr;
    failure_counter_ = nullptr;
    latency_histogram_ = nullptr;
    return;
  }
  const telemetry::Labels client{{"client", FormatAddress(transport_.local_address())}};
  requests_counter_ = registry->GetCounter("stub_requests_total", client,
                                           "Query attempts sent by the stub");
  telemetry::Labels ok = client;
  ok.emplace_back("outcome", "success");
  telemetry::Labels bad = client;
  bad.emplace_back("outcome", "failure");
  const char* help = "Completed stub requests by outcome";
  success_counter_ = registry->GetCounter("stub_responses_total", ok, help);
  failure_counter_ = registry->GetCounter("stub_responses_total", bad, help);
  latency_histogram_ = registry->GetHistogram(
      "stub_latency_us", client, "End-to-end request latency of successful queries");
}

double StubClient::SuccessRatio() const {
  const uint64_t total = succeeded_ + failed_;
  return total > 0 ? static_cast<double>(succeeded_) / static_cast<double>(total) : 0.0;
}

void StubClient::Start() {
  if (resolvers_.empty() || config_.qps <= 0 || config_.stop <= config_.start) {
    return;
  }
  const auto interval = static_cast<Duration>(static_cast<double>(kSecond) / config_.qps);
  const uint64_t count = static_cast<uint64_t>(
      ToSeconds(config_.stop - config_.start) * config_.qps);
  for (uint64_t i = 0; i < count; ++i) {
    const Time when = config_.start + static_cast<Duration>(i) * interval;
    transport_.loop().ScheduleAt(when, "stub.launch", [this]() { LaunchRequest(); });
  }
}

void StubClient::StartWithSchedule(const std::vector<Time>& times) {
  if (resolvers_.empty()) {
    return;
  }
  for (Time when : times) {
    transport_.loop().ScheduleAt(when, "stub.launch", [this]() { LaunchRequest(); });
  }
}

void StubClient::LaunchRequest() {
  if (transport_.now() < paused_until_) {
    // Policed (DCC-aware): honor the advertised policy instead of burning
    // requests that would fail anyway.
    ++failed_;
    return;
  }
  const uint16_t port = pending_.AllocatePort();
  Pending& p = pending_.Insert(port);
  p.seq = next_seq_++;
  p.sent_at = transport_.now();
  p.attempts_left = config_.retries;
  p.resolver_index = config_.rotate_resolvers && !resolvers_.empty()
                         ? p.seq % resolvers_.size()
                         : preferred_resolver_;
  SendAttempt(port);
}

void StubClient::SendAttempt(uint16_t port) {
  Pending& p = *pending_.Find(port);
  const HostAddress resolver = resolvers_[p.resolver_index % resolvers_.size()];
  if (p.wire.empty()) {
    const Question q = generator_(p.seq);
    Message query = MakeQuery(static_cast<uint16_t>(p.seq), q.qname, q.qtype);
    query.EnsureEdns();
    p.wire = EncodeMessage(query);
  } else {
    prof::CountEncodeCacheHit();
  }
  transport_.Send(port, Endpoint{resolver, kDnsPort}, p.wire);
  ++requests_sent_;
  if (requests_counter_ != nullptr) {
    requests_counter_->Inc();
  }
  if (tracer_ != nullptr) {
    tracer_->Record(telemetry::MakeTraceId(transport_.local_address(), port,
                                           static_cast<uint16_t>(p.seq)),
                    telemetry::SpanKind::kStubSend, transport_.now(),
                    transport_.local_address(), static_cast<int32_t>(resolver),
                    telemetry::kClientSpanId, /*parent_span_id=*/0,
                    /*peer=*/resolver);
  }

  pending_.Arm(port, config_.timeout, "stub.timeout",
               [this, port]() { OnTimeout(port); });
}

void StubClient::Finish(uint16_t port, bool success, Time now) {
  const Pending p = pending_.Take(port);
  if (success) {
    ++succeeded_;
    latency_.Add(static_cast<double>(now - p.sent_at));
    if (success_counter_ != nullptr) {
      success_counter_->Inc();
    }
    if (latency_histogram_ != nullptr) {
      latency_histogram_->Observe(static_cast<double>(now - p.sent_at));
    }
  } else {
    ++failed_;
    if (failure_counter_ != nullptr) {
      failure_counter_->Inc();
    }
  }
}

void StubClient::HandleDatagram(const Datagram& dgram) {
  DCC_PROF_SCOPE("stub.handle");
  auto decoded = DecodeMessage(dgram.payload);
  if (!decoded.has_value() || !decoded->IsResponse()) {
    return;
  }
  Pending* found = pending_.Find(dgram.dst.port);
  if (found == nullptr) {
    return;
  }
  Pending& p = *found;
  if (decoded->header.id != static_cast<uint16_t>(p.seq)) {
    return;
  }
  const Time now = transport_.now();

  if (config_.dcc_aware) {
    if (auto congestion = GetCongestionSignal(*decoded); congestion.has_value()) {
      ++congestion_signals_seen_;
      // §3.3.3: requests to the same resolver will likely fail again; prefer
      // a different one for subsequent requests.
      if (resolvers_.size() > 1) {
        preferred_resolver_ = (p.resolver_index + 1) % resolvers_.size();
      }
    }
    if (auto policing = GetPolicingSignal(*decoded); policing.has_value()) {
      ++policing_signals_seen_;
      paused_until_ = std::max(
          paused_until_,
          now + static_cast<Duration>(policing->expiry_remaining_ms) * kMillisecond);
    }
    if (auto anomaly = GetAnomalySignal(*decoded); anomaly.has_value()) {
      ++anomaly_signals_seen_;
    }
  }
  if (GetExtendedError(*decoded).has_value()) {
    ++extended_errors_seen_;
  }

  const Rcode rcode = decoded->header.rcode;
  // The paper counts NOERROR and NXDOMAIN as successful responses (Fig. 8).
  const bool success = rcode == Rcode::kNoError || rcode == Rcode::kNxDomain;
  if (tracer_ != nullptr) {
    tracer_->Record(telemetry::MakeTraceId(transport_.local_address(), dgram.dst.port,
                                           static_cast<uint16_t>(p.seq)),
                    telemetry::SpanKind::kClientReceive, now,
                    transport_.local_address(), static_cast<int32_t>(rcode),
                    telemetry::kClientSpanId, /*parent_span_id=*/0,
                    /*peer=*/dgram.src.addr);
  }
  if (!success && p.attempts_left > 0) {
    --p.attempts_left;
    p.resolver_index = (p.resolver_index + 1) % std::max<size_t>(1, resolvers_.size());
    SendAttempt(dgram.dst.port);
    return;
  }
  Finish(dgram.dst.port, success, now);
}

void StubClient::OnTimeout(uint16_t port) {
  Pending& p = *pending_.Find(port);
  if (p.attempts_left > 0) {
    --p.attempts_left;
    p.resolver_index = (p.resolver_index + 1) % std::max<size_t>(1, resolvers_.size());
    SendAttempt(port);
    return;
  }
  Finish(port, /*success=*/false, transport_.now());
}

}  // namespace dcc
