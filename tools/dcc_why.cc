// dcc_why — offline forensics over dcc_sim trace and audit dumps.
//
// Answers the two questions an operator asks after an attack run. Over the
// span dump of `dcc_sim ... --trace-out` it rebuilds the causal span trees:
// where a query's latency went, which chain of sub-queries determined it,
// and which clients amplify (the FF/CQ fingerprint from paper §2.2). Over
// the decision-audit dump of `--audit-out` (src/telemetry/audit.h) it says
// *why* a query died — which component decided, against which limit — and,
// joined with a span dump, separates attacker losses from benign collateral.
//
//   dcc_why summary T.jsonl              per-trace fan-out/latency table
//   dcc_why top T.jsonl [--top N]        "top amplifiers" forensics report
//   dcc_why tree T.jsonl --trace ID      ASCII causal tree of one trace
//   dcc_why report T.jsonl --trace ID    stage-by-stage latency breakdown
//   dcc_why chrome T.jsonl [--out F]     re-emit as Chrome trace-event JSON
//   dcc_why causes A.jsonl               per-cause rollup table
//   dcc_why clients A.jsonl [--top N]    per-client rollup, worst first
//   dcc_why why A.jsonl QNAME|TRACEID    death narrative for one query
//   dcc_why collateral A.jsonl --trace-file T.jsonl [--attackers A,B]
//                                        benign-vs-attacker breakdown
//   dcc_why coverage A.jsonl --trace-file T.jsonl [--min RATIO]
//                                        failed-query cause coverage
//   dcc_why check A.jsonl [--trace-file T.jsonl]
//                                        validate dumps (CI gate)
//
// Lines are parsed by the readers beside their writers
// (telemetry::ParseSpanJsonLine / ParseAuditJsonLine). Read-only; links
// only the telemetry analysis layer and the JSON parser.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/ids.h"
#include "src/telemetry/audit.h"
#include "src/telemetry/chrome_trace.h"
#include "src/telemetry/span_tree.h"
#include "src/telemetry/trace.h"
#include "tools/flags.h"

namespace {

using namespace dcc;
using telemetry::AuditCauseName;
using telemetry::AuditRecord;
using telemetry::SpanEvent;
using telemetry::SpanTree;

// DNS SERVFAIL rcode as recorded in kResolverResponse span details; spelled
// numerically so the tool keeps zero simulator dependencies.
constexpr int32_t kServFailRcode = 2;

// One command line: the dump, why's QNAME|TRACEID (else nullptr), flags.
struct Args {
  const char* dump = nullptr;
  const char* target = nullptr;
  Flags flags;
};

struct LoadStats {
  size_t lines = 0;
  size_t malformed = 0;
  std::string first_error;
};

// Reads the JSONL dump at `path` ('-' for stdin) through `parse`, one line
// at a time. Malformed lines are skipped, counted and the first one named
// (also on stderr); false only when the file cannot be opened.
template <typename Record>
bool LoadDump(const char* path, bool (*parse)(std::string_view, Record*, std::string*),
              std::vector<Record>* records, LoadStats* stats) {
  std::ifstream file;
  if (std::strcmp(path, "-") != 0) {
    file.open(path);
    if (!file) {
      std::fprintf(stderr, "dcc_why: cannot open %s\n", path);
      return false;
    }
  }
  std::istream& in = file.is_open() ? file : std::cin;
  std::string line;
  for (size_t line_no = 1; std::getline(in, line); ++line_no) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    ++stats->lines;
    Record record;
    std::string error;
    if (!parse(line, &record, &error)) {
      if (stats->malformed++ == 0) {
        stats->first_error = std::string(path) + ":" + std::to_string(line_no) + ": " + error;
      }
      continue;
    }
    records->push_back(record);
  }
  if (stats->malformed > 0) {
    std::fprintf(stderr, "dcc_why: skipped %zu unparsable line(s) (%s)\n",
                 stats->malformed, stats->first_error.c_str());
  }
  return true;
}

// The audit dump named on the command line; false (exit 1) when unreadable
// or empty.
bool LoadRecords(const Args& args, std::vector<AuditRecord>* records) {
  LoadStats stats;
  if (!LoadDump(args.dump, telemetry::ParseAuditJsonLine, records, &stats)) {
    return false;
  }
  if (records->empty()) {
    std::fprintf(stderr, "dcc_why: no audit records in %s\n", args.dump);
    return false;
  }
  return true;
}

// The span dump named on the command line as causal trees, restricted to
// --trace HEXID when given; false (exit 1) when nothing is left. A --trace
// that is not a hex trace id exits 2 before anything is read.
bool LoadTrees(const Args& args, std::vector<SpanTree>* trees) {
  uint64_t filter = 0;  // 0: every trace.
  if (const char* text = args.flags.Get("--trace");
      text != nullptr && !telemetry::ParseTraceId(text, &filter)) {
    std::fprintf(stderr, "--trace: expected a hex trace id, got '%s'\n", text);
    std::exit(2);
  }
  std::vector<SpanEvent> events;
  LoadStats stats;
  if (!LoadDump(args.dump, telemetry::ParseSpanJsonLine, &events, &stats)) {
    return false;
  }
  if (events.empty()) {
    std::fprintf(stderr, "dcc_why: no span events in %s\n", args.dump);
    return false;
  }
  for (SpanTree& tree : telemetry::BuildSpanTrees(events)) {
    if (filter == 0 || tree.trace_id == filter) {
      trees->push_back(std::move(tree));
    }
  }
  if (trees->empty()) {
    std::fprintf(stderr, "dcc_why: no matching traces\n");
    return false;
  }
  return true;
}

// --top N: a whole, non-negative row count (exit 2 otherwise).
size_t TopRows(const Flags& flags, size_t fallback) {
  const double rows = FlagDouble(flags, "--top", static_cast<double>(fallback));
  if (rows < 0 || rows != std::floor(rows)) {
    std::fprintf(stderr, "--top: expected a whole number >= 0, got '%s'\n",
                 flags.Get("--top"));
    std::exit(2);
  }
  return static_cast<size_t>(std::min(rows, 1e9));  // Any dump has fewer rows.
}

// ---- trace commands ----------------------------------------------------------

int RunSummary(const Args& args) {
  std::vector<SpanTree> trees;
  if (!LoadTrees(args, &trees)) {
    return 1;
  }
  std::printf("%-18s %-12s %6s %7s %5s %8s %12s %s\n", "trace", "client",
              "subq", "retries", "depth", "complete", "latency-us",
              "critical-path");
  for (const auto& tree : trees) {
    const telemetry::TraceStats stats = telemetry::ComputeStats(tree);
    std::string path;
    for (size_t i = 0; i < stats.critical_path.size(); ++i) {
      if (i > 0) {
        path += ">";
      }
      path += std::to_string(stats.critical_path[i]);
    }
    std::printf("%016" PRIx64 "   %-12s %6zu %7zu %5d %8s %12" PRId64 " %s\n",
                stats.trace_id, FormatAddress(stats.client).c_str(),
                stats.subqueries, stats.retries, stats.max_depth,
                stats.complete ? "yes" : "no",
                static_cast<int64_t>(stats.latency), path.c_str());
  }
  std::printf("%zu trace(s)\n", trees.size());
  return 0;
}

int RunTop(const Args& args) {
  const size_t top_n = TopRows(args.flags, 10);
  std::vector<SpanTree> trees;
  if (!LoadTrees(args, &trees)) {
    return 1;
  }
  const telemetry::AmplificationReport report = telemetry::Attribute(trees);
  std::fputs(telemetry::RenderTopAmplifiers(report, top_n).c_str(), stdout);
  return 0;
}

int RunTree(const Args& args) {
  std::vector<SpanTree> trees;
  if (!LoadTrees(args, &trees)) {
    return 1;
  }
  for (const auto& tree : trees) {
    std::fputs(telemetry::RenderTree(tree).c_str(), stdout);
    std::fputs("\n", stdout);
  }
  return 0;
}

int RunReport(const Args& args) {
  std::vector<SpanTree> trees;
  if (!LoadTrees(args, &trees)) {
    return 1;
  }
  for (const auto& tree : trees) {
    std::fputs(telemetry::RenderBreakdown(tree).c_str(), stdout);
  }
  return 0;
}

int RunChrome(const Args& args) {
  std::vector<SpanTree> trees;
  if (!LoadTrees(args, &trees)) {
    return 1;
  }
  const std::string out = telemetry::ExportChromeTrace(trees);
  const char* path = args.flags.Get("--out");
  if (path == nullptr || std::strcmp(path, "-") == 0) {
    std::fputs(out.c_str(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "dcc_why: cannot open %s for writing\n", path);
    return 1;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "dcc_why: %zu trace(s) -> %s\n", trees.size(), path);
  return 0;
}

// ---- audit commands ----------------------------------------------------------

// Parses --attackers a.b.c.d[,a.b.c.d...] into a set of host addresses.
std::unordered_set<HostAddress> AttackerSet(const Flags& flags) {
  std::unordered_set<HostAddress> attackers;
  const char* text = flags.Get("--attackers");
  if (text == nullptr) {
    return attackers;
  }
  std::string item;
  for (const char* p = text;; ++p) {
    if (*p == ',' || *p == '\0') {
      HostAddress addr = kInvalidAddress;
      if (!item.empty() && ParseAddress(item, &addr)) {
        attackers.insert(addr);
      } else if (!item.empty()) {
        std::fprintf(stderr, "dcc_why: bad --attackers entry '%s'\n",
                     item.c_str());
        std::exit(2);
      }
      item.clear();
      if (*p == '\0') {
        break;
      }
    } else {
      item.push_back(*p);
    }
  }
  return attackers;
}

int RunCauses(const Args& args) {
  std::vector<AuditRecord> records;
  if (!LoadRecords(args, &records)) {
    return 1;
  }
  struct CauseAgg {
    size_t count = 0;
    std::set<HostAddress> clients;
    Time first = 0;
    Time last = 0;
    std::string example;
  };
  std::map<std::string, CauseAgg> by_cause;
  for (const AuditRecord& record : records) {
    CauseAgg& agg = by_cause[AuditCauseName(record.cause)];
    if (agg.count == 0) {
      agg.first = record.at;
      agg.example = record.qname;
    }
    agg.last = record.at;
    ++agg.count;
    if (record.client != 0) {
      agg.clients.insert(record.client);
    }
  }
  std::vector<std::pair<std::string, CauseAgg>> rows(by_cause.begin(),
                                                     by_cause.end());
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.count > b.second.count;
                   });
  std::printf("cause                           records  clients      first-s       last-s  example\n");
  for (const auto& [name, agg] : rows) {
    std::printf("%-28s %10zu %8zu %12.3f %12.3f  %s\n", name.c_str(),
                agg.count, agg.clients.size(), ToSeconds(agg.first),
                ToSeconds(agg.last), agg.example.c_str());
  }
  std::printf("%zu record(s), %zu cause(s)\n", records.size(), rows.size());
  return 0;
}

int RunClients(const Args& args) {
  const size_t top_n = TopRows(args.flags, 20);
  std::vector<AuditRecord> records;
  if (!LoadRecords(args, &records)) {
    return 1;
  }
  struct ClientAgg {
    size_t count = 0;
    std::map<std::string, size_t> causes;
  };
  std::map<HostAddress, ClientAgg> by_client;
  for (const AuditRecord& record : records) {
    ClientAgg& agg = by_client[record.client];
    ++agg.count;
    ++agg.causes[AuditCauseName(record.cause)];
  }
  std::vector<std::pair<HostAddress, ClientAgg>> rows(by_client.begin(),
                                                      by_client.end());
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.count > b.second.count;
                   });
  std::printf("%-14s %10s  %s\n", "client", "records", "dominant causes");
  size_t shown = 0;
  for (const auto& [client, agg] : rows) {
    if (shown++ >= top_n) {
      break;
    }
    std::vector<std::pair<std::string, size_t>> causes(agg.causes.begin(),
                                                       agg.causes.end());
    std::stable_sort(causes.begin(), causes.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    std::string mix;
    for (size_t i = 0; i < causes.size() && i < 3; ++i) {
      if (i > 0) {
        mix += ", ";
      }
      mix += causes[i].first + " x" + std::to_string(causes[i].second);
    }
    std::printf("%-14s %10zu  %s\n",
                client == 0 ? "(unattributed)" : FormatAddress(client).c_str(),
                agg.count, mix.c_str());
  }
  std::printf("%zu client(s)\n", rows.size());
  return 0;
}

void PrintRecord(const AuditRecord& record) {
  std::printf("  t=%10.3fs  %-26s actor=%-12s", ToSeconds(record.at),
              AuditCauseName(record.cause), FormatAddress(record.actor).c_str());
  if (record.client != 0) {
    std::printf(" client=%-12s", FormatAddress(record.client).c_str());
  }
  if (record.channel != 0) {
    std::printf(" channel=%-12s", FormatAddress(record.channel).c_str());
  }
  std::printf(" observed=%g limit=%g", record.observed, record.limit);
  if (record.trace_id != 0) {
    std::printf(" trace=%016" PRIx64 " span=%u", record.trace_id,
                record.span_id);
  }
  if (record.qname[0] != '\0') {
    std::printf(" qname=%s", record.qname);
  }
  std::printf("\n");
}

int RunWhy(const Args& args) {
  std::vector<AuditRecord> records;
  if (!LoadRecords(args, &records)) {
    return 1;
  }
  const std::string target = args.target;
  // A trace id as the dumps print it has at least 8 hex digits; qnames
  // always contain dots or letters beyond hex.
  uint64_t trace_id = 0;
  const bool by_trace = target.size() >= 8 && telemetry::ParseTraceId(target, &trace_id);
  std::vector<const AuditRecord*> matches;
  for (const AuditRecord& record : records) {
    const bool hit = by_trace ? record.trace_id == trace_id
                              : std::string_view(record.qname).find(target) !=
                                    std::string_view::npos;
    if (hit) {
      matches.push_back(&record);
    }
  }
  if (matches.empty()) {
    std::printf("no audit records match %s '%s' — the query was not killed\n"
                "by an instrumented decision (network loss, fault window, or\n"
                "it simply succeeded)\n",
                by_trace ? "trace" : "qname", target.c_str());
    return 1;
  }
  std::stable_sort(matches.begin(), matches.end(),
                   [](const AuditRecord* a, const AuditRecord* b) {
                     return a->at < b->at;
                   });
  std::printf("%zu decision(s) for %s '%s':\n", matches.size(),
              by_trace ? "trace" : "qname", target.c_str());
  for (const AuditRecord* record : matches) {
    PrintRecord(*record);
  }
  // Per-client context: convictions/alarms against the clients involved,
  // even when those records carry no trace id (the policy decision that
  // killed later queries).
  std::unordered_set<HostAddress> clients;
  for (const AuditRecord* record : matches) {
    if (record->client != 0) {
      clients.insert(record->client);
    }
  }
  bool header = false;
  for (const AuditRecord& record : records) {
    if (record.trace_id != 0 || record.client == 0 ||
        clients.find(record.client) == clients.end()) {
      continue;
    }
    if (!header) {
      std::printf("related client-level decisions (no trace id):\n");
      header = true;
    }
    PrintRecord(record);
  }
  return 0;
}

// ---- trace joining (collateral / coverage / check) ---------------------------

struct TraceVerdict {
  bool failed = false;      // Dropped (incomplete) or answered SERVFAIL.
  bool servfail = false;
  uint32_t client = 0;
};

// Classifies every trace in the dump: a query failed when its root span
// never completed (the stub timed it out) or when a response event carries
// rcode SERVFAIL. Only traces with a retained root are classified — a
// ring-evicted head leaves failure unknowable offline.
std::unordered_map<uint64_t, TraceVerdict> ClassifyTraces(
    const std::vector<SpanTree>& trees) {
  std::unordered_map<uint64_t, TraceVerdict> verdicts;
  for (const auto& tree : trees) {
    if (tree.Root() == nullptr) {
      continue;
    }
    TraceVerdict verdict;
    verdict.client = tree.client;
    const telemetry::TraceStats stats = telemetry::ComputeStats(tree);
    for (const auto& node : tree.nodes) {
      for (const auto& event : node.events) {
        if (event.kind == telemetry::SpanKind::kResolverResponse &&
            event.detail == kServFailRcode) {
          verdict.servfail = true;
        }
      }
    }
    verdict.failed = verdict.servfail || !stats.complete;
    verdicts.emplace(tree.trace_id, verdict);
  }
  return verdicts;
}

// The --trace-file span dump, which `command` cannot do without (exit 2).
const char* RequiredTraceFile(const Args& args, const char* command) {
  const char* path = args.flags.Get("--trace-file");
  if (path == nullptr) {
    std::fprintf(stderr, "dcc_why: %s requires --trace-file\n", command);
    std::exit(2);
  }
  return path;
}

int RunCollateral(const Args& args) {
  const char* trace_path = RequiredTraceFile(args, "collateral");
  const std::unordered_set<HostAddress> attackers = AttackerSet(args.flags);
  std::vector<AuditRecord> records;
  std::vector<SpanEvent> events;
  LoadStats trace_stats;
  if (!LoadRecords(args, &records) ||
      !LoadDump(trace_path, telemetry::ParseSpanJsonLine, &events, &trace_stats)) {
    return 1;
  }
  const std::unordered_map<uint64_t, TraceVerdict> verdicts =
      ClassifyTraces(telemetry::BuildSpanTrees(events));

  struct SideAgg {
    size_t failed_traces = 0;
    size_t audited_traces = 0;
    std::map<std::string, size_t> causes;
  };
  SideAgg benign;
  SideAgg attacker;
  std::unordered_map<uint64_t, std::vector<const AuditRecord*>> by_trace;
  for (const AuditRecord& record : records) {
    if (record.trace_id != 0) {
      by_trace[record.trace_id].push_back(&record);
    }
  }
  for (const auto& [trace_id, verdict] : verdicts) {
    if (!verdict.failed) {
      continue;
    }
    SideAgg& side =
        attackers.find(verdict.client) != attackers.end() ? attacker : benign;
    ++side.failed_traces;
    auto it = by_trace.find(trace_id);
    if (it == by_trace.end()) {
      continue;
    }
    ++side.audited_traces;
    for (const AuditRecord* record : it->second) {
      ++side.causes[AuditCauseName(record->cause)];
    }
  }
  auto print_side = [](const char* label, const SideAgg& side) {
    std::printf("%s: %zu failed quer%s, %zu with an audited cause\n", label,
                side.failed_traces, side.failed_traces == 1 ? "y" : "ies",
                side.audited_traces);
    std::vector<std::pair<std::string, size_t>> causes(side.causes.begin(),
                                                       side.causes.end());
    std::stable_sort(causes.begin(), causes.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    for (const auto& [cause, count] : causes) {
      std::printf("  %-28s %10zu\n", cause.c_str(), count);
    }
  };
  if (attackers.empty()) {
    std::printf("(no --attackers given: everything is reported as benign)\n");
  }
  print_side("benign", benign);
  print_side("attacker", attacker);
  return 0;
}

int RunCoverage(const Args& args) {
  const char* trace_path = RequiredTraceFile(args, "coverage");
  const double min_ratio = FlagDouble(args.flags, "--min", 0);
  std::vector<AuditRecord> records;
  std::vector<SpanEvent> events;
  LoadStats trace_stats;
  if (!LoadRecords(args, &records) ||
      !LoadDump(trace_path, telemetry::ParseSpanJsonLine, &events, &trace_stats)) {
    return 1;
  }
  const std::unordered_map<uint64_t, TraceVerdict> verdicts =
      ClassifyTraces(telemetry::BuildSpanTrees(events));
  std::unordered_set<uint64_t> audited_traces;
  std::unordered_set<HostAddress> audited_clients;
  for (const AuditRecord& record : records) {
    if (record.trace_id != 0) {
      audited_traces.insert(record.trace_id);
    }
    if (record.client != 0) {
      audited_clients.insert(record.client);
    }
  }
  size_t failed = 0;
  size_t covered_direct = 0;
  size_t covered_client = 0;
  std::vector<uint64_t> uncovered;
  for (const auto& [trace_id, verdict] : verdicts) {
    if (!verdict.failed) {
      continue;
    }
    ++failed;
    if (audited_traces.find(trace_id) != audited_traces.end()) {
      ++covered_direct;
    } else if (audited_clients.find(verdict.client) != audited_clients.end()) {
      // No per-query record, but a client-level decision (conviction,
      // policer policy) explains the death indirectly.
      ++covered_client;
    } else {
      uncovered.push_back(trace_id);
    }
  }
  const size_t covered = covered_direct + covered_client;
  const double ratio =
      failed == 0 ? 1.0 : static_cast<double>(covered) / failed;
  std::printf("failed queries: %zu\n", failed);
  std::printf("  with a per-query cause chain:   %zu\n", covered_direct);
  std::printf("  with a client-level cause only: %zu\n", covered_client);
  std::printf("coverage: %.4f\n", ratio);
  std::sort(uncovered.begin(), uncovered.end());
  for (uint64_t trace_id : uncovered) {
    std::printf("  no cause: trace %016" PRIx64 "\n", trace_id);
  }
  if (ratio < min_ratio) {
    std::fprintf(stderr, "dcc_why: coverage %.4f below --min %s\n", ratio,
                 args.flags.Get("--min"));
    return 1;
  }
  return 0;
}

// Validates the audit dump (every line parses with a taxonomy cause, every
// span coordinate is the client root or resolves) and, with --trace-file,
// the span dump it joins against (every line parses).
int RunCheck(const Args& args) {
  std::vector<AuditRecord> records;
  LoadStats stats;
  if (!LoadDump(args.dump, telemetry::ParseAuditJsonLine, &records, &stats)) {
    return 1;
  }
  const char* trace_path = args.flags.Get("--trace-file");
  std::vector<SpanEvent> events;
  LoadStats trace_stats;
  if (trace_path != nullptr &&
      !LoadDump(trace_path, telemetry::ParseSpanJsonLine, &events, &trace_stats)) {
    return 1;
  }
  size_t span_zero = 0;         // trace_id set but span_id == 0.
  size_t span_unresolved = 0;   // span absent from an intact trace.
  size_t span_evicted = 0;      // span absent, but the trace shows eviction
                                // damage (missing root / orphaned nodes).
  size_t trace_missing = 0;     // trace absent from the dump (informational:
                                // ring eviction can eat whole traces).
  std::unordered_map<uint64_t, std::unordered_set<uint32_t>> spans;
  std::unordered_set<uint64_t> damaged;  // Traces with eviction evidence.
  if (trace_path != nullptr) {
    for (const auto& event : events) {
      spans[event.trace_id].insert(event.span_id);
    }
    for (const auto& tree : telemetry::BuildSpanTrees(events)) {
      bool orphans = tree.Root() == nullptr;
      for (const auto& node : tree.nodes) {
        orphans = orphans || node.orphaned;
      }
      if (orphans) {
        damaged.insert(tree.trace_id);
      }
    }
  }
  for (const AuditRecord& record : records) {
    if (record.trace_id == 0) {
      continue;  // Client/channel-level decision; no span to resolve.
    }
    if (record.span_id == 0) {
      ++span_zero;
      continue;
    }
    if (record.span_id == telemetry::kClientSpanId) {
      continue;  // Root span: always resolvable by construction.
    }
    if (trace_path != nullptr) {
      auto it = spans.find(record.trace_id);
      if (it == spans.end()) {
        ++trace_missing;
      } else if (it->second.find(record.span_id) == it->second.end()) {
        if (damaged.find(record.trace_id) != damaged.end()) {
          ++span_evicted;
        } else {
          ++span_unresolved;
        }
      }
    }
  }
  // A leaf span's events can be ring-evicted without leaving orphan
  // evidence, so once the dump shows any eviction at all (damaged trees or
  // whole traces gone) an unresolved span cannot be distinguished from an
  // evicted one — downgrade to informational. On an eviction-free dump (the
  // CI case) unresolved spans stay hard failures.
  if (!damaged.empty() || trace_missing > 0) {
    span_evicted += span_unresolved;
    span_unresolved = 0;
  }
  const bool failed = stats.malformed > 0 || trace_stats.malformed > 0 ||
                      span_zero > 0 || span_unresolved > 0;
  std::printf("records: %zu parsed / %zu lines\n", records.size(), stats.lines);
  std::printf("malformed lines:     %zu\n", stats.malformed);
  std::printf("zero span ids:       %zu\n", span_zero);
  if (trace_path != nullptr) {
    std::printf("unresolved span ids: %zu\n", span_unresolved);
    std::printf("evicted span ids:    %zu (eviction; not an error)\n",
                span_evicted);
    std::printf("traces not in dump:  %zu (eviction; not an error)\n",
                trace_missing);
    std::printf("malformed span lines: %zu of %zu\n", trace_stats.malformed,
                trace_stats.lines);
  }
  const std::string& first_error =
      stats.first_error.empty() ? trace_stats.first_error : stats.first_error;
  if (!first_error.empty()) {
    std::printf("first error: %s\n", first_error.c_str());
  }
  std::printf("%s\n", failed ? "CHECK FAILED" : "CHECK OK");
  return failed ? 1 : 0;
}

void PrintUsage(std::FILE* stream) {
  std::fprintf(stream,
      "usage: dcc_why COMMAND DUMP.jsonl [options]\n"
      "\n"
      "Offline forensics over dcc_sim dumps. The trace commands read a\n"
      "`--trace-out` span dump: they rebuild the causal span trees and\n"
      "attribute upstream amplification to the clients that caused it. The\n"
      "audit commands read an `--audit-out` dump: why each query died, which\n"
      "limit tripped, and who ate the collateral. DUMP.jsonl may be '-' for\n"
      "stdin. A flag the command does not take is an error (exit 2).\n"
      "\n"
      "trace commands (span dump):\n"
      "  summary     one line per trace: sub-query fan-out, retries, causal\n"
      "              depth, completion, client latency, critical-path span ids\n"
      "  top         the \"top amplifiers\" report: clients ranked by mean\n"
      "              upstream queries caused per request, with the cause mix\n"
      "              (qmin/ns/cname) that fingerprints FF and CQ attacks, and\n"
      "              the busiest resolver->auth channels\n"
      "  tree        ASCII rendering of each causal span tree\n"
      "  report      stage-by-stage latency breakdown per trace: every span\n"
      "              event with offset/delta, then the critical path\n"
      "  chrome      convert the dump to Chrome trace-event JSON for\n"
      "              chrome://tracing or ui.perfetto.dev\n"
      "\n"
      "audit commands (audit dump):\n"
      "  causes      per-cause rollup: record count, distinct clients,\n"
      "              active window, example qname\n"
      "  clients     per-client rollup ranked by records, with each\n"
      "              client's dominant cause mix\n"
      "  why Q|ID    death narrative for one query: every decision matching\n"
      "              the qname substring or %%016x trace id, in time order,\n"
      "              plus related client-level policy decisions\n"
      "  collateral  benign-vs-attacker breakdown of failed queries\n"
      "              (requires --trace-file; --attackers marks the guilty)\n"
      "  coverage    fraction of failed queries (dropped or SERVFAIL in the\n"
      "              trace dump) with an audited cause chain, then the trace\n"
      "              ids of failed queries with no cause at all\n"
      "  check       validate the dumps: every audit line parses with a\n"
      "              known taxonomy cause, every span id is the client root\n"
      "              or resolves against --trace-file, and every line of\n"
      "              --trace-file parses. Exit 1 on failure.\n"
      "\n"
      "options:\n"
      "  --trace HEXID      trace commands: only this trace id (as printed\n"
      "                     by summary)\n"
      "  --top N            rows in the `top` (default 10) or `clients`\n"
      "                     (default 20) table\n"
      "  --out FILE         chrome: write to FILE instead of stdout\n"
      "  --trace-file FILE  matching --trace-out dump to join span trees\n"
      "  --attackers A,B    attacker client addresses for `collateral`\n"
      "  --min RATIO        coverage: fail (exit 1) below this ratio\n");
}

struct Command {
  const char* name;
  int (*run)(const Args&);
  std::vector<const char*> flags;
  bool takes_target = false;  // why: QNAME|TRACEID after the dump.
};

const Command kCommands[] = {
    {"summary", RunSummary, {"--trace"}},
    {"top", RunTop, {"--trace", "--top"}},
    {"tree", RunTree, {"--trace"}},
    {"report", RunReport, {"--trace"}},
    {"chrome", RunChrome, {"--trace", "--out"}},
    {"causes", RunCauses, {}},
    {"clients", RunClients, {"--top"}},
    {"why", RunWhy, {}, true},
    {"collateral", RunCollateral, {"--trace-file", "--attackers"}},
    {"coverage", RunCoverage, {"--trace-file", "--min"}},
    {"check", RunCheck, {"--trace-file"}},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                    std::strcmp(argv[1], "-h") == 0 ||
                    std::strcmp(argv[1], "help") == 0)) {
    PrintUsage(stdout);
    return 0;
  }
  if (argc < 3) {
    PrintUsage(stderr);
    return 2;
  }
  const Command* command = nullptr;
  for (const Command& candidate : kCommands) {
    if (std::strcmp(argv[1], candidate.name) == 0) {
      command = &candidate;
    }
  }
  if (command == nullptr) {
    std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
    PrintUsage(stderr);
    return 2;
  }
  Args args;
  args.dump = argv[2];
  if (command->takes_target) {
    if (argc < 4) {
      std::fprintf(stderr, "dcc_why: %s needs a QNAME or TRACEID argument\n",
                   command->name);
      return 2;
    }
    args.target = argv[3];
  }
  if (!ParseFlags("dcc_why", command->takes_target ? 4 : 3, argc, argv,
                  command->flags, &args.flags)) {
    return 2;
  }
  return command->run(args);
}
