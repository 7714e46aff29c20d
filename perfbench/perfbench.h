// Shared declarations of the DCC benchmark driver (perfbench/driver.cc,
// perfbench/layers.cc). The driver reaches the simulator only through its
// public functions; everything here is benchmark-side.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.h"
#include "src/measure/rate_limit_probe.h"
#include "src/scenario/spec.h"

namespace perfbench {

// --- host clocks -------------------------------------------------------------

int64_t WallNs();       // steady_clock.
double ThreadCpuSeconds();  // CLOCK_THREAD_CPUTIME_ID.

// --- benchmark spans ---------------------------------------------------------

// One span the driver records around a call into a layer. `parent` indexes
// the span that was open when this one started (-1: none); all spans of one
// pass share `pass`. `leaf` spans wrap calls that contain no profiler site
// (spec parse/validate/write, microbenchmarks), so their time is not
// already attributed by the program's own `prof::` sites.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int pass = -1;
  bool leaf = true;
};

// In-memory span log, written out once when the benchmark ends. Recording is
// off (and free) while no log is active.
class SpanLog {
 public:
  static SpanLog* Active();
  static void SetActive(SpanLog* log);

  int Open(const char* name, bool leaf);
  void Close(int index);

  int pass = -1;
  std::vector<Span> spans;

 private:
  int open_ = -1;
};

// RAII span on the active log: SPAN("dns.encode") around a layer call.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, bool leaf);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_ = -1;
};

// --- workloads ---------------------------------------------------------------

enum class WorkloadKind { kScenario, kProbe };

// Everything a workload feeds the program, generated from the seed alone.
struct Workload {
  std::string name;
  WorkloadKind kind = WorkloadKind::kScenario;
  uint64_t seed = 0;
  // kScenario: the materialized spec, as the JSON text each pass loads.
  std::string spec_text;
  // kProbe: the resolvers measured in each pass and their probe seeds.
  std::vector<dcc::ResolverProfile> profiles;
  std::vector<uint64_t> probe_seeds;
  // DNS message shapes the workload carries ("wc_answer", "nxdomain",
  // "referral"), for the codec microbenchmark.
  std::vector<std::string> shapes;
};

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out,
                  std::string* error);

// Sets `object[key]` to a number.
void Put(dcc::json::Value* object, const char* key, double value);

// FNV-1a, printed as 16 hex digits: a stable hash for digests and input
// fingerprints.
std::string HashHex(const std::string& bytes);

// --- per-layer microbenchmarks -------------------------------------------------

// Inputs the microbenchmarks take from the workload and its traced passes,
// so each layer is timed at the sizes the workload really uses.
struct LayerContext {
  const Workload* workload = nullptr;
  dcc::scenario::ScenarioSpec spec;  // Validated; kScenario only.
  // Virtual schedule-to-run delays (us) and their weights, from the
  // profiler's per-category event lag.
  std::vector<std::pair<double, double>> delay_mix;
  // Largest event-queue depth the profiler saw.
  size_t queue_depth = 0;
  // Live entries of the program's hash tables (resolver cache) at the end
  // of a pass.
  size_t live_table_size = 0;
};

// Times each layer's public entry points and adds one number per metric to
// `metrics` (a JSON object).
void RunLayerBenchmarks(const LayerContext& context, dcc::json::Value* metrics);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
