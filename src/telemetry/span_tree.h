// Causal span trees and amplification attribution over QueryTracer events.
//
// The tracer records flat span events; every resolver sub-query carries a
// (span_id, parent_span_id) pair propagated through the attribution EDNS
// option, so one client query and everything it caused — QMIN descents,
// glue-less NS fetches, CNAME chases, retries — share a trace id and link
// into a tree rooted at the client span. This module rebuilds those trees
// offline and computes the per-client / per-channel fan-out numbers the
// paper uses to characterize the CQ and FF compositional-amplification
// patterns (§2.2): upstream queries caused per client query, causal depth,
// and critical-path latency.
//
// Everything here is read-only over a snapshot of events: it is the analysis
// half of the tracing pipeline (the recording half stays allocation-free).

#ifndef SRC_TELEMETRY_SPAN_TREE_H_
#define SRC_TELEMETRY_SPAN_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/telemetry/trace.h"

namespace dcc {
namespace telemetry {

inline constexpr size_t kNoNode = static_cast<size_t>(-1);

// One span of a trace: the events that share a span id, plus tree linkage.
struct SpanNode {
  uint32_t span_id = 0;
  uint32_t parent_span_id = 0;
  std::vector<SpanEvent> events;   // In record (= timestamp) order.
  std::vector<size_t> children;    // Indices into SpanTree::nodes.
  size_t parent = kNoNode;         // Index of the parent node.
  int depth = 0;                   // Root = 0.
  // True when parent_span_id names a span with no retained events (evicted
  // from the ring or recorded by an uninstrumented hop); the node is
  // re-parented under the root so it still counts toward attribution.
  bool orphaned = false;
  SubQueryCause cause = SubQueryCause::kClient;
  uint32_t peer = 0;               // Upstream the span targeted (0 = unknown).
  Time start = 0;
  Time end = 0;
};

struct SpanTree {
  uint64_t trace_id = 0;
  uint32_t client = 0;             // High word of the trace id.
  std::vector<SpanNode> nodes;
  size_t root = kNoNode;           // Index of the client span, if retained.
  bool truncated = false;          // Ring eviction may have eaten the head.

  const SpanNode* Root() const {
    return root != kNoNode ? &nodes[root] : nullptr;
  }
};

// Groups events by trace and span and links parents to children. Events of
// one trace are expected in timestamp order (QueryTracer::Events() order).
// A missing client span leaves `root` == kNoNode; spans with a missing
// parent are flagged `orphaned` and attached under the root (or first span).
std::vector<SpanTree> BuildSpanTrees(const std::vector<SpanEvent>& events);
// Convenience overload: also marks per-trace truncation from the tracer's
// ring-eviction state.
std::vector<SpanTree> BuildSpanTrees(const QueryTracer& tracer);

// ---- per-trace statistics --------------------------------------------------

struct TraceStats {
  uint64_t trace_id = 0;
  uint32_t client = 0;
  // Sub-query spans excluding retransmissions: the paper's amplification
  // numerator (upstream queries caused by one client query).
  size_t subqueries = 0;
  size_t retries = 0;
  size_t cause_counts[kSubQueryCauseCount] = {};
  int max_depth = 0;
  bool complete = false;           // Root saw stub_send and client_receive.
  bool truncated = false;
  Duration latency = 0;            // Root-span duration (complete traces).
  // Span ids from the root to the deepest last-finishing descendant — the
  // chain that determined the client-observed latency.
  std::vector<uint32_t> critical_path;
  Duration critical_path_latency = 0;
};

TraceStats ComputeStats(const SpanTree& tree);

// ---- amplification attribution --------------------------------------------

struct ClientAmplification {
  uint32_t client = 0;
  size_t requests = 0;             // Traces rooted at this client.
  size_t complete_requests = 0;
  size_t truncated_requests = 0;
  size_t subqueries = 0;           // Sum of TraceStats::subqueries.
  size_t retries = 0;
  size_t cause_counts[kSubQueryCauseCount] = {};
  double mean_amplification = 0;   // subqueries / requests.
  size_t max_amplification = 0;    // Largest single-trace fan-out.
  int max_depth = 0;
  double mean_latency_us = 0;      // Over complete traces.
};

struct ChannelLoad {
  uint32_t peer = 0;               // Upstream server address.
  size_t subqueries = 0;           // Sub-query spans targeting it.
  size_t clients = 0;              // Distinct clients behind that load.
};

struct AmplificationReport {
  size_t traces = 0;
  size_t truncated_traces = 0;
  std::vector<ClientAmplification> clients;  // Sorted: worst amplifier first.
  std::vector<ChannelLoad> channels;         // Sorted: busiest channel first.
};

AmplificationReport Attribute(const std::vector<SpanTree>& trees);

// ---- rendering -------------------------------------------------------------

// ASCII rendering of one span tree (`dcc_why tree`).
std::string RenderTree(const SpanTree& tree);

// Stage-by-stage latency breakdown of one trace (`dcc_why report`): every
// retained event in timestamp order with its offset from the trace start and
// the delta from the previous event, then the critical path.
std::string RenderBreakdown(const SpanTree& tree);

// The "top amplifiers" forensics table: per-client fan-out ranked worst
// first, with cause mix — FF/CQ attack clients surface at the top.
std::string RenderTopAmplifiers(const AmplificationReport& report,
                                size_t top_n = 10);

}  // namespace telemetry
}  // namespace dcc

#endif  // SRC_TELEMETRY_SPAN_TREE_H_
