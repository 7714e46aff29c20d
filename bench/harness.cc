#include "bench/harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/measure/fairness.h"
#include "src/scenario/engine.h"

namespace dcc {
namespace bench {

namespace {

// Reads a "KiB-valued" field like "VmHWM:    12345 kB" out of
// /proc/self/status. Returns -1 when the file or field is unavailable.
int64_t ProcStatusKb(const char* field) {
  std::ifstream status("/proc/self/status");
  if (!status) {
    return -1;
  }
  const size_t field_len = std::strlen(field);
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, field_len, field) == 0 && line[field_len] == ':') {
      return std::atoll(line.c_str() + field_len + 1);
    }
  }
  return -1;
}

}  // namespace

int64_t PeakRssKb() {
  const int64_t hwm = ProcStatusKb("VmHWM");
  if (hwm >= 0) {
    return hwm;
  }
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  // Linux reports ru_maxrss in KiB.
  return static_cast<int64_t>(usage.ru_maxrss);
}

int64_t CurrentRssKb() {
  const int64_t rss = ProcStatusKb("VmRSS");
  return rss >= 0 ? rss : 0;
}

bool ResetPeakRss() {
  // Hand heap pages earlier benches freed back to the kernel first: a bench
  // that reuses them would otherwise grow by less than it allocates, so its
  // delta would depend on what ran before it.
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!clear_refs) {
    return false;
  }
  clear_refs << "5";  // 5 = reset the peak-RSS watermark (VmHWM) only.
  clear_refs.flush();
  return static_cast<bool>(clear_refs) && ProcStatusKb("VmHWM") >= 0;
}

std::string RenderJson(const SuiteReport& report) {
  std::string out = "{\n  \"suite\": \"dcc_bench\",\n  \"quick\": ";
  out += report.quick ? "true" : "false";
  out += ",\n  \"benches\": [\n";
  for (size_t i = 0; i < report.benches.size(); ++i) {
    const BenchReport& bench = report.benches[i];
    const BenchMetrics& m = bench.metrics;
    // A bench that ran zero simulated events has no meaningful event rate;
    // emit null rather than a misleading 0.0 so consumers can tell "no sim
    // ran" apart from "infinitely slow".
    char rate[64];
    if (m.sim_events > 0) {
      std::snprintf(rate, sizeof(rate), "%.1f", m.events_per_sec);
    } else {
      std::snprintf(rate, sizeof(rate), "null");
    }
    // The floor is policy, not measurement; only rows that carry one emit
    // it, so reports from builds without floors are byte-identical to old
    // ones.
    char floor[64];
    if (m.min_events_per_sec > 0) {
      std::snprintf(floor, sizeof(floor), "\"min_eps\": %.1f, ",
                    m.min_events_per_sec);
    } else {
      floor[0] = '\0';
    }
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"name\": \"%s\", \"wall_ms\": %.3f, \"sim_events\": "
                  "%llu, \"events_per_sec\": %s, %s\"peak_rss_delta_kb\": %lld, "
                  "\"exit_code\": %d}%s\n",
                  bench.name.c_str(), m.wall_ms,
                  static_cast<unsigned long long>(m.sim_events), rate, floor,
                  static_cast<long long>(m.peak_rss_delta_kb),
                  m.exit_code, i + 1 < report.benches.size() ? "," : "");
    out += buffer;
  }
  out += "  ]\n}\n";
  return out;
}

namespace {

// Minimal parser for the exact shape RenderJson emits (plus whitespace
// variations): top-level "quick" flag and a "benches" array of flat objects
// with string "name" and numeric fields. Not a general JSON parser.
struct Cursor {
  const std::string& text;
  size_t pos = 0;

  void SkipWs() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool ParseString(std::string* out) {
    SkipWs();
    if (pos >= text.size() || text[pos] != '"') {
      return false;
    }
    ++pos;
    out->clear();
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\' && pos + 1 < text.size()) {
        ++pos;  // Our renderer never escapes, but tolerate \" and \\.
      }
      out->push_back(text[pos++]);
    }
    if (pos >= text.size()) {
      return false;
    }
    ++pos;
    return true;
  }
  bool ParseScalar(std::string* out) {
    SkipWs();
    out->clear();
    while (pos < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == '-' || text[pos] == '+' ||
            text[pos] == 'e' || text[pos] == 'E')) {
      out->push_back(text[pos++]);
    }
    return !out->empty();
  }
};

}  // namespace

bool ParseReportJson(const std::string& text, SuiteReport* out) {
  Cursor cursor{text};
  if (!cursor.Eat('{')) {
    return false;
  }
  out->quick = false;
  out->benches.clear();
  bool is_dcc_bench = false;
  std::string key;
  while (cursor.ParseString(&key)) {
    if (!cursor.Eat(':')) {
      return false;
    }
    if (key == "benches") {
      if (!cursor.Eat('[')) {
        return false;
      }
      cursor.SkipWs();
      while (cursor.Eat('{')) {
        BenchReport bench;
        std::string field;
        while (cursor.ParseString(&field)) {
          if (!cursor.Eat(':')) {
            return false;
          }
          std::string value;
          if (field == "name") {
            if (!cursor.ParseString(&bench.name)) {
              return false;
            }
          } else if (!cursor.ParseScalar(&value)) {
            return false;
          } else if (field == "wall_ms") {
            bench.metrics.wall_ms = std::atof(value.c_str());
          } else if (field == "sim_events") {
            bench.metrics.sim_events =
                static_cast<uint64_t>(std::strtoull(value.c_str(), nullptr, 10));
          } else if (field == "events_per_sec") {
            // "null" parses as a scalar token; atof maps it to 0, which is
            // exactly the sentinel the comparison logic expects.
            bench.metrics.events_per_sec = std::atof(value.c_str());
          } else if (field == "min_eps") {
            bench.metrics.min_events_per_sec = std::atof(value.c_str());
          } else if (field == "peak_rss_delta_kb" || field == "peak_rss_kb") {
            // Accept the legacy process-cumulative key so old baselines
            // still parse; CompareReports treats those rows via the same
            // slack + absolute floor.
            bench.metrics.peak_rss_delta_kb = std::atoll(value.c_str());
          } else if (field == "exit_code") {
            bench.metrics.exit_code = std::atoi(value.c_str());
          }
          if (!cursor.Eat(',')) {
            break;
          }
        }
        if (!cursor.Eat('}')) {
          return false;
        }
        out->benches.push_back(std::move(bench));
        if (!cursor.Eat(',')) {
          break;
        }
      }
      if (!cursor.Eat(']')) {
        return false;
      }
    } else {
      std::string value;
      if (!cursor.ParseScalar(&value) && !cursor.ParseString(&value)) {
        return false;
      }
      if (key == "quick") {
        out->quick = value == "true";
      } else if (key == "suite") {
        is_dcc_bench = value == "dcc_bench";
      }
    }
    if (!cursor.Eat(',')) {
      break;
    }
  }
  return cursor.Eat('}') && is_dcc_bench;
}

std::vector<std::string> CompareReports(const SuiteReport& current,
                                        const SuiteReport& baseline,
                                        const Tolerances& tolerances,
                                        std::vector<std::string>* notes) {
  std::vector<std::string> violations;
  char buffer[256];
  auto note = [notes](const std::string& line) {
    if (notes != nullptr) {
      notes->push_back(line);
    }
  };
  if (current.quick != baseline.quick) {
    std::snprintf(buffer, sizeof(buffer),
                  "mode mismatch: current is %s, baseline is %s",
                  current.quick ? "quick" : "full",
                  baseline.quick ? "quick" : "full");
    violations.emplace_back(buffer);
    return violations;
  }
  auto find = [](const SuiteReport& report, const std::string& name) -> const BenchReport* {
    for (const BenchReport& bench : report.benches) {
      if (bench.name == name) {
        return &bench;
      }
    }
    return nullptr;
  };
  for (const BenchReport& base : baseline.benches) {
    const BenchReport* cur = find(current, base.name);
    if (cur == nullptr) {
      violations.push_back(base.name + ": missing from current run");
      continue;
    }
    const BenchMetrics& b = base.metrics;
    const BenchMetrics& c = cur->metrics;
    if (c.exit_code != 0) {
      std::snprintf(buffer, sizeof(buffer), "%s: exit code %d",
                    base.name.c_str(), c.exit_code);
      violations.emplace_back(buffer);
      continue;
    }
    if (b.wall_ms > 0 && c.wall_ms > b.wall_ms * (1.0 + tolerances.wall_slack) &&
        c.wall_ms - b.wall_ms > tolerances.wall_floor_ms) {
      std::snprintf(buffer, sizeof(buffer),
                    "%s: wall_ms %.1f exceeds baseline %.1f by more than %.0f%%",
                    base.name.c_str(), c.wall_ms, b.wall_ms,
                    tolerances.wall_slack * 100);
      violations.emplace_back(buffer);
    }
    if (b.sim_events == 0) {
      note(base.name + ": sim_events is 0 in the baseline (no event-loop "
                       "work); drift check skipped");
    } else {
      const double drift =
          std::abs(static_cast<double>(c.sim_events) -
                   static_cast<double>(b.sim_events)) /
          static_cast<double>(b.sim_events);
      if (drift > tolerances.sim_events_slack) {
        std::snprintf(buffer, sizeof(buffer),
                      "%s: sim_events %llu drifted %.2f%% from baseline %llu "
                      "(behavior change, not machine noise)",
                      base.name.c_str(),
                      static_cast<unsigned long long>(c.sim_events), drift * 100,
                      static_cast<unsigned long long>(b.sim_events));
        violations.emplace_back(buffer);
      }
    }
    if (b.min_events_per_sec > 0 && tolerances.min_eps_scale > 0) {
      const double floor = b.min_events_per_sec * tolerances.min_eps_scale;
      if (c.sim_events == 0 || c.events_per_sec <= 0) {
        note(base.name + ": baseline has an events/sec floor but the current "
                         "run has no event rate; throughput check skipped");
      } else if (c.events_per_sec < floor) {
        std::snprintf(buffer, sizeof(buffer),
                      "%s: events_per_sec %.0f below floor %.0f "
                      "(min_eps %.0f x scale %.2f)",
                      base.name.c_str(), c.events_per_sec, floor,
                      b.min_events_per_sec, tolerances.min_eps_scale);
        violations.emplace_back(buffer);
      }
    }
    if (b.peak_rss_delta_kb <= 0) {
      note(base.name + ": no peak RSS delta in the baseline; RSS check "
                       "skipped");
    } else if (static_cast<double>(c.peak_rss_delta_kb) >
                   static_cast<double>(b.peak_rss_delta_kb) *
                       (1.0 + tolerances.rss_slack) &&
               static_cast<double>(c.peak_rss_delta_kb - b.peak_rss_delta_kb) >
                   tolerances.rss_floor_kb) {
      std::snprintf(
          buffer, sizeof(buffer),
          "%s: peak_rss_delta_kb %lld exceeds baseline %lld by more than %.0f%%",
          base.name.c_str(), static_cast<long long>(c.peak_rss_delta_kb),
          static_cast<long long>(b.peak_rss_delta_kb),
          tolerances.rss_slack * 100);
      violations.emplace_back(buffer);
    }
  }
  for (const BenchReport& cur : current.benches) {
    if (find(baseline, cur.name) == nullptr) {
      violations.push_back(cur.name +
                           ": not in baseline (refresh with --write-baseline)");
    }
  }
  return violations;
}

void PrintSeries(const scenario::ScenarioOutcome& result, bool ff_attacker) {
  std::printf("%-10s", "t(s)");
  for (const auto& client : result.clients) {
    std::printf("%10s", client.label.c_str());
  }
  std::printf("\n");
  const std::vector<measure::ClientFairnessSample> samples =
      measure::FairnessSamples(result.clients);
  const std::vector<double> landed =
      measure::AttackerLandedSeries(samples, result.ans[0].qps);
  const size_t seconds = result.clients.front().effective_qps.size();
  for (size_t t = 0; t < seconds; t += 2) {
    std::printf("%-10zu", t);
    for (const auto& client : result.clients) {
      double value = client.effective_qps[t];
      if (ff_attacker && client.is_attacker && t < landed.size()) {
        value = landed[t];
      }
      std::printf("%10.0f", value);
    }
    std::printf("\n");
  }
}

}  // namespace bench
}  // namespace dcc
