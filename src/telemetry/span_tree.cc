#include "src/telemetry/span_tree.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "src/common/ids.h"

namespace dcc {
namespace telemetry {
namespace {

// The cause a span advertises: taken from its kSubQuerySend event, kClient
// for the root span (which has none).
SubQueryCause CauseOf(const SpanNode& node) {
  for (const SpanEvent& event : node.events) {
    if (event.kind == SpanKind::kSubQuerySend) {
      const int detail = event.detail;
      if (detail > 0 && detail < kSubQueryCauseCount) {
        return static_cast<SubQueryCause>(detail);
      }
    }
  }
  return SubQueryCause::kClient;
}

uint32_t PeerOf(const SpanNode& node) {
  for (const SpanEvent& event : node.events) {
    if (event.peer != 0) {
      return event.peer;
    }
  }
  return 0;
}

void AssignDepths(SpanTree& tree, size_t index, int depth) {
  SpanNode& node = tree.nodes[index];
  node.depth = depth;
  for (size_t child : node.children) {
    AssignDepths(tree, child, depth + 1);
  }
}

SpanTree BuildOne(uint64_t trace_id, const std::vector<SpanEvent>& events) {
  SpanTree tree;
  tree.trace_id = trace_id;
  tree.client = static_cast<uint32_t>(trace_id >> 32);

  // Group events into spans, preserving first-seen (= timestamp) order.
  std::unordered_map<uint32_t, size_t> by_span;
  for (const SpanEvent& event : events) {
    auto [it, inserted] = by_span.try_emplace(event.span_id, tree.nodes.size());
    if (inserted) {
      SpanNode node;
      node.span_id = event.span_id;
      node.parent_span_id = event.parent_span_id;
      node.start = event.at;
      tree.nodes.push_back(std::move(node));
    }
    SpanNode& node = tree.nodes[it->second];
    node.events.push_back(event);
    node.end = std::max(node.end, event.at);
    node.start = std::min(node.start, event.at);
    if (node.parent_span_id == 0 && event.parent_span_id != 0) {
      // Some hops only know the span id (legacy attributions): take the
      // parent link from whichever event carries it.
      node.parent_span_id = event.parent_span_id;
    }
  }

  auto rit = by_span.find(kClientSpanId);
  tree.root = rit != by_span.end() ? rit->second : kNoNode;

  // Link children. A span whose parent is unknown (evicted head or an
  // uninstrumented hop) is orphaned: it hangs off the root so attribution
  // still sees it, unless it IS the first span we have.
  const size_t fallback = tree.root != kNoNode ? tree.root
                          : tree.nodes.empty() ? kNoNode
                                               : 0;
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    SpanNode& node = tree.nodes[i];
    node.cause = CauseOf(node);
    node.peer = PeerOf(node);
    if (i == tree.root || (tree.root == kNoNode && i == 0)) {
      continue;  // The root (or stand-in root) has no parent.
    }
    auto pit = by_span.find(node.parent_span_id);
    if (pit != by_span.end() && pit->second != i) {
      node.parent = pit->second;
    } else if (fallback != kNoNode && fallback != i) {
      node.parent = fallback;
      node.orphaned = true;
    }
    if (node.parent != kNoNode) {
      tree.nodes[node.parent].children.push_back(i);
    }
  }
  if (fallback != kNoNode) {
    AssignDepths(tree, fallback, 0);
  }
  return tree;
}

bool RootComplete(const SpanTree& tree) {
  const SpanNode* root = tree.Root();
  if (root == nullptr) {
    return false;
  }
  bool sent = false;
  bool received = false;
  for (const SpanEvent& event : root->events) {
    sent = sent || event.kind == SpanKind::kStubSend;
    received = received || event.kind == SpanKind::kClientReceive;
  }
  return sent && received;
}

}  // namespace

std::vector<SpanTree> BuildSpanTrees(const std::vector<SpanEvent>& events) {
  // Bucket by trace, preserving the order traces first appear.
  std::unordered_map<uint64_t, size_t> index;
  std::vector<std::pair<uint64_t, std::vector<SpanEvent>>> buckets;
  for (const SpanEvent& event : events) {
    auto [it, inserted] = index.try_emplace(event.trace_id, buckets.size());
    if (inserted) {
      buckets.emplace_back(event.trace_id, std::vector<SpanEvent>());
    }
    buckets[it->second].second.push_back(event);
  }
  std::vector<SpanTree> trees;
  trees.reserve(buckets.size());
  for (auto& [trace_id, bucket] : buckets) {
    trees.push_back(BuildOne(trace_id, bucket));
  }
  return trees;
}

std::vector<SpanTree> BuildSpanTrees(const QueryTracer& tracer) {
  std::vector<SpanTree> trees = BuildSpanTrees(tracer.Events());
  for (SpanTree& tree : trees) {
    tree.truncated = tracer.PossiblyTruncated(tree.trace_id);
  }
  return trees;
}

TraceStats ComputeStats(const SpanTree& tree) {
  TraceStats stats;
  stats.trace_id = tree.trace_id;
  stats.client = tree.client;
  stats.truncated = tree.truncated;
  stats.complete = RootComplete(tree);

  for (const SpanNode& node : tree.nodes) {
    stats.max_depth = std::max(stats.max_depth, node.depth);
    if (node.cause == SubQueryCause::kClient) {
      continue;
    }
    stats.cause_counts[static_cast<int>(node.cause)]++;
    if (node.cause == SubQueryCause::kRetry) {
      ++stats.retries;
    } else {
      ++stats.subqueries;
    }
  }

  const SpanNode* root = tree.Root();
  if (root != nullptr) {
    stats.latency = root->end - root->start;
  }

  // Critical path: from the root, repeatedly descend into the child that
  // finished last — the chain that gated the client-visible completion.
  size_t at = tree.root != kNoNode ? tree.root
              : tree.nodes.empty() ? kNoNode
                                   : 0;
  if (at != kNoNode) {
    const Time path_start = tree.nodes[at].start;
    Time path_end = tree.nodes[at].end;
    while (at != kNoNode) {
      const SpanNode& node = tree.nodes[at];
      stats.critical_path.push_back(node.span_id);
      path_end = std::max(path_end, node.end);
      size_t next = kNoNode;
      Time latest = 0;
      for (size_t child : node.children) {
        if (tree.nodes[child].end >= latest) {
          latest = tree.nodes[child].end;
          next = child;
        }
      }
      at = next;
    }
    stats.critical_path_latency = path_end - path_start;
  }
  return stats;
}

AmplificationReport Attribute(const std::vector<SpanTree>& trees) {
  AmplificationReport report;
  report.traces = trees.size();

  std::map<uint32_t, ClientAmplification> clients;
  struct ChannelAccum {
    size_t subqueries = 0;
    std::vector<uint32_t> client_list;
  };
  std::map<uint32_t, ChannelAccum> channels;

  for (const SpanTree& tree : trees) {
    const TraceStats stats = ComputeStats(tree);
    if (stats.truncated) {
      ++report.truncated_traces;
    }
    ClientAmplification& c = clients[stats.client];
    c.client = stats.client;
    ++c.requests;
    if (stats.complete) {
      ++c.complete_requests;
      c.mean_latency_us += static_cast<double>(stats.latency);
    }
    if (stats.truncated) {
      ++c.truncated_requests;
    }
    c.subqueries += stats.subqueries;
    c.retries += stats.retries;
    for (int i = 0; i < kSubQueryCauseCount; ++i) {
      c.cause_counts[i] += stats.cause_counts[i];
    }
    c.max_amplification = std::max(c.max_amplification, stats.subqueries);
    c.max_depth = std::max(c.max_depth, stats.max_depth);

    for (const SpanNode& node : tree.nodes) {
      if (node.cause == SubQueryCause::kClient || node.peer == 0 ||
          node.cause == SubQueryCause::kRetry) {
        continue;
      }
      ChannelAccum& ch = channels[node.peer];
      ++ch.subqueries;
      ch.client_list.push_back(stats.client);
    }
  }

  for (auto& [addr, c] : clients) {
    c.mean_amplification = c.requests > 0
                               ? static_cast<double>(c.subqueries) /
                                     static_cast<double>(c.requests)
                               : 0;
    if (c.complete_requests > 0) {
      c.mean_latency_us /= static_cast<double>(c.complete_requests);
    }
    report.clients.push_back(c);
  }
  std::stable_sort(report.clients.begin(), report.clients.end(),
                   [](const ClientAmplification& a, const ClientAmplification& b) {
                     return a.mean_amplification > b.mean_amplification;
                   });

  for (auto& [addr, accum] : channels) {
    ChannelLoad load;
    load.peer = addr;
    load.subqueries = accum.subqueries;
    std::sort(accum.client_list.begin(), accum.client_list.end());
    load.clients = static_cast<size_t>(
        std::unique(accum.client_list.begin(), accum.client_list.end()) -
        accum.client_list.begin());
    report.channels.push_back(load);
  }
  std::stable_sort(report.channels.begin(), report.channels.end(),
                   [](const ChannelLoad& a, const ChannelLoad& b) {
                     return a.subqueries > b.subqueries;
                   });
  return report;
}

namespace {

void RenderNode(const SpanTree& tree, size_t index, const std::string& prefix,
                bool last, std::string& out) {
  const SpanNode& node = tree.nodes[index];
  char buf[192];
  std::string line = prefix;
  if (node.depth > 0) {
    line += last ? "`-- " : "|-- ";
  }
  std::snprintf(buf, sizeof(buf), "span %u [%s]%s", node.span_id,
                SubQueryCauseName(node.cause), node.orphaned ? " (orphaned)" : "");
  line += buf;
  if (node.peer != 0) {
    line += " -> " + FormatAddress(node.peer);
  }
  std::snprintf(buf, sizeof(buf), "  %" PRId64 "..%" PRId64 "us (%" PRId64
                "us, %zu events)",
                node.start, node.end, node.end - node.start, node.events.size());
  line += buf;
  out += line;
  out += '\n';
  const std::string child_prefix =
      prefix + (node.depth > 0 ? (last ? "    " : "|   ") : "");
  for (size_t i = 0; i < node.children.size(); ++i) {
    RenderNode(tree, node.children[i], child_prefix,
               i + 1 == node.children.size(), out);
  }
}

}  // namespace

std::string RenderTree(const SpanTree& tree) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "trace %016" PRIx64 "  client %s  (%zu spans)%s\n",
                tree.trace_id, FormatAddress(tree.client).c_str(),
                tree.nodes.size(),
                tree.truncated ? "  [TRUNCATED: head evicted from ring]" : "");
  out += buf;
  const size_t start = tree.root != kNoNode ? tree.root
                       : tree.nodes.empty() ? kNoNode
                                            : 0;
  if (start == kNoNode) {
    out += "  (no spans retained)\n";
    return out;
  }
  if (tree.root == kNoNode) {
    out += "  (client span missing; showing earliest retained span)\n";
  }
  RenderNode(tree, start, "  ", /*last=*/true, out);
  return out;
}

std::string RenderBreakdown(const SpanTree& tree) {
  // Tree nodes keep per-span order; the breakdown wants the interleaved
  // global timeline.
  std::vector<SpanEvent> events;
  for (const SpanNode& node : tree.nodes) {
    events.insert(events.end(), node.events.begin(), node.events.end());
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const SpanEvent& a, const SpanEvent& b) { return a.at < b.at; });
  const TraceStats stats = ComputeStats(tree);
  std::string out;
  char buf[192];
  std::snprintf(buf, sizeof(buf), "trace %016" PRIx64 " client %s%s\n", tree.trace_id,
                FormatAddress(tree.client).c_str(),
                tree.truncated ? "  [TRUNCATED: head evicted from ring]" : "");
  out += buf;
  const Time start = events.empty() ? 0 : events.front().at;
  Time prev = start;
  for (const SpanEvent& event : events) {
    std::snprintf(buf, sizeof(buf),
                  "  +%8" PRId64 " us (d %6" PRId64
                  ")  %-17s span=%-4u parent=%-4u actor=%-12s detail=%d\n",
                  event.at - start, event.at - prev, SpanKindName(event.kind),
                  event.span_id, event.parent_span_id,
                  FormatAddress(event.actor).c_str(), event.detail);
    out += buf;
    prev = event.at;
  }
  std::snprintf(buf, sizeof(buf), "  stats: %zu subqueries, %zu retries, depth %d, %s\n",
                stats.subqueries, stats.retries, stats.max_depth,
                stats.complete ? "complete" : "incomplete");
  out += buf;
  std::string path;
  for (size_t i = 0; i < stats.critical_path.size(); ++i) {
    if (i > 0) {
      path += " -> ";
    }
    path += "span " + std::to_string(stats.critical_path[i]);
  }
  // Appended rather than formatted: a deep chain outgrows any fixed buffer.
  return out + "  critical path: " + (path.empty() ? "(none)" : path) + " (" +
         std::to_string(stats.critical_path_latency) + " us)\n\n";
}

std::string RenderTopAmplifiers(const AmplificationReport& report, size_t top_n) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "top amplifiers (%zu traces, %zu truncated)\n", report.traces,
                report.truncated_traces);
  out += buf;
  out +=
      "  rank client            reqs  subq/req   max  depth  retries  "
      "qmin/ns/cname  mean-lat\n";
  size_t rank = 0;
  for (const ClientAmplification& c : report.clients) {
    if (++rank > top_n) {
      break;
    }
    std::snprintf(buf, sizeof(buf),
                  "  %4zu %-15s %6zu  %8.1f  %4zu  %5d  %7zu  %5zu/%zu/%zu  %7.0fus\n",
                  rank, FormatAddress(c.client).c_str(), c.requests,
                  c.mean_amplification, c.max_amplification, c.max_depth,
                  c.retries,
                  c.cause_counts[static_cast<int>(SubQueryCause::kQmin)],
                  c.cause_counts[static_cast<int>(SubQueryCause::kNs)],
                  c.cause_counts[static_cast<int>(SubQueryCause::kCname)],
                  c.mean_latency_us);
    out += buf;
  }
  if (!report.channels.empty()) {
    out += "busiest channels\n";
    size_t shown = 0;
    for (const ChannelLoad& ch : report.channels) {
      if (++shown > top_n) {
        break;
      }
      std::snprintf(buf, sizeof(buf), "  %-15s %6zu sub-queries from %zu clients\n",
                    FormatAddress(ch.peer).c_str(), ch.subqueries, ch.clients);
      out += buf;
    }
  }
  return out;
}

}  // namespace telemetry
}  // namespace dcc
