// Stub client / load generator.
//
// Sends paced queries with a pluggable name generator (the WC/NX/CQ/FF
// patterns live in src/attack), tracks cumulative sent/success/failure
// counters and latency, and optionally reacts to DCC signals
// (DCC-awareness, §3.3): switching resolvers on congestion signals and
// pausing on policing signals. Per-second series (Fig. 8's "effective QPS")
// come from a telemetry::TimeSeriesSampler counter probe on `succeeded()` —
// see src/attack/scenarios.cc for the wiring.

#ifndef SRC_SERVER_STUB_H_
#define SRC_SERVER_STUB_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/stats.h"
#include "src/dns/message.h"
#include "src/server/pending_queries.h"
#include "src/server/transport.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace dcc {

// Produces the i-th question this client asks.
using QuestionGenerator = std::function<Question(uint64_t seq)>;

struct StubConfig {
  Time start = 0;
  Time stop = Seconds(60);
  double qps = 1.0;
  Duration timeout = Seconds(2);
  // Additional attempts after a failure (timeout or SERVFAIL/REFUSED), each
  // directed at the next configured resolver — the retry behaviour behind
  // the Fig. 4(b) observation that redundant resolvers both congest.
  int retries = 0;
  // React to DCC congestion/policing signals.
  bool dcc_aware = false;
  // Spread first attempts round-robin over the configured resolvers instead
  // of always starting at the preferred one.
  bool rotate_resolvers = false;
};

class StubClient : public DatagramHandler {
 public:
  StubClient(Transport& transport, StubConfig config, QuestionGenerator generator);

  void AddResolver(HostAddress resolver);

  // Schedules the paced sending between config.start and config.stop.
  void Start();

  // Alternative to Start(): sends at the given explicit times (trace
  // replay); request i uses the generator's question for sequence i.
  void StartWithSchedule(const std::vector<Time>& times);

  void HandleDatagram(const Datagram& dgram) override;

  // --- results -------------------------------------------------------------
  uint64_t requests_sent() const { return requests_sent_; }
  uint64_t succeeded() const { return succeeded_; }
  uint64_t failed() const { return failed_; }
  double SuccessRatio() const;
  const Histogram& latency() const { return latency_; }
  uint64_t congestion_signals_seen() const { return congestion_signals_seen_; }
  uint64_t policing_signals_seen() const { return policing_signals_seen_; }
  uint64_t anomaly_signals_seen() const { return anomaly_signals_seen_; }
  uint64_t extended_errors_seen() const { return extended_errors_seen_; }

  // Wires per-client request/outcome counters, an end-to-end latency
  // histogram, and the stub_send / client_receive lifecycle spans into the
  // sinks. Either argument may be nullptr; passing both nullptr detaches.
  void AttachTelemetry(telemetry::MetricsRegistry* registry,
                       telemetry::QueryTracer* tracer);

 private:
  struct Pending {
    uint64_t seq = 0;
    Time sent_at = 0;
    int attempts_left = 0;
    size_t resolver_index = 0;
    // Cached encoding of this request: the question is a pure function of
    // `seq`, so retries resend the same bytes without re-encoding.
    WireBytes wire;
  };

  void LaunchRequest();
  void SendAttempt(uint16_t port);
  void OnTimeout(uint16_t port);
  void Finish(uint16_t port, bool success, Time now);

  Transport& transport_;
  StubConfig config_;
  QuestionGenerator generator_;
  std::vector<HostAddress> resolvers_;
  PendingQueries<Pending> pending_;
  size_t preferred_resolver_ = 0;  // Shifted by DCC-aware congestion handling.
  Time paused_until_ = 0;          // Set by DCC-aware policing handling.
  uint64_t next_seq_ = 0;

  uint64_t requests_sent_ = 0;
  uint64_t succeeded_ = 0;
  uint64_t failed_ = 0;
  Histogram latency_;
  uint64_t congestion_signals_seen_ = 0;
  uint64_t policing_signals_seen_ = 0;
  uint64_t anomaly_signals_seen_ = 0;
  uint64_t extended_errors_seen_ = 0;

  // Telemetry (resolved once in AttachTelemetry; nullptr = disabled).
  telemetry::QueryTracer* tracer_ = nullptr;
  telemetry::Counter* requests_counter_ = nullptr;
  telemetry::Counter* success_counter_ = nullptr;
  telemetry::Counter* failure_counter_ = nullptr;
  telemetry::HistogramMetric* latency_histogram_ = nullptr;
};

}  // namespace dcc

#endif  // SRC_SERVER_STUB_H_
