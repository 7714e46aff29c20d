// dcc_perfbench: single-threaded benchmark driver for the DCC simulator.
//
// Generates a workload's inputs from a seed, runs whole passes of it
// through the simulator's public entry points, and prints one JSON line per
// record on stdout. perfbench/run.py builds this binary, runs it, checks
// every pass and turns the records into metrics.
//
//   dcc_perfbench --mode inputs --workload W --seed N [--spec-out FILE]
//       fingerprint of the generated inputs; writes a scenario's spec
//   dcc_perfbench --mode setup --workload W --seed N [--spec FILE]
//       set-up CPU time of this fresh process: spec load through the first
//       simulated event (the process ends there)
//   dcc_perfbench --mode passes --workload W --seed N [--traced K --trace-out FILE]
//       two passes; with --traced K, pass K (0 or 1) is traced, then the
//       per-layer microbenchmarks run and the spans go to --trace-out

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/common/ids.h"
#include "src/common/stats.h"
#include "src/scenario/engine.h"
#include "src/search/search.h"
#include "src/sim/event_loop.h"
#include "src/telemetry/profiler.h"
#include "src/telemetry/sampler.h"
#include "src/telemetry/telemetry.h"
#include "src/zone/experiment_zones.h"

namespace perfbench {

using dcc::json::Value;
namespace scenario = dcc::scenario;

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

// --- spans -------------------------------------------------------------------

namespace {
SpanLog* g_active_log = nullptr;
}  // namespace

SpanLog* SpanLog::Active() { return g_active_log; }
void SpanLog::SetActive(SpanLog* log) { g_active_log = log; }

int SpanLog::Open(const char* name, bool leaf) {
  Span span;
  span.name = name;
  span.start_ns = WallNs();
  span.parent = open_;
  span.pass = pass;
  span.leaf = leaf;
  spans.push_back(std::move(span));
  open_ = static_cast<int>(spans.size()) - 1;
  return open_;
}

void SpanLog::Close(int index) {
  spans[static_cast<size_t>(index)].end_ns = WallNs();
  open_ = spans[static_cast<size_t>(index)].parent;
}

ScopedSpan::ScopedSpan(const char* name, bool leaf) : log_(SpanLog::Active()) {
  if (log_ != nullptr) {
    index_ = log_->Open(name, leaf);
  }
}

ScopedSpan::~ScopedSpan() {
  if (log_ != nullptr) {
    log_->Close(index_);
  }
}

// --- workloads -----------------------------------------------------------------

std::string HashHex(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx", static_cast<unsigned long long>(hash));
  return out;
}

namespace {

// examples/scenarios/fleet_blackout.json with its client rate raised 10x
// (40 -> 400 QPS each) and its horizon from 40 s to 60 s, so a pass does
// about as much work as the flood workloads; the frontend's re-steer budget
// scales with the rate. Seeds are left out: they derive from the run seed.
constexpr char kFleetTemplate[] = R"json({
  "name": "perfbench-fleet_failover",
  "run": {"horizon": 60},
  "network": {"jitter": 0.005},
  "zones": [{"apex": "target-domain", "id": "target", "kind": "target", "ttl": 600}],
  "nodes": [
    {"id": "target-ans", "kind": "auth", "zones": ["target"]},
    {"id": "frontend", "kind": "frontend",
     "frontend": {"steering": "consistent_hash", "max_attempts": 3,
                  "query_timeout": 0.3, "health_checks": true,
                  "probe_interval": 0.5, "probe_timeout": 0.8,
                  "resteer_budget_qps": 600, "resteer_budget_burst": 300,
                  "holddown_after": 3, "holddown_initial": 2, "holddown_max": 16},
     "replicate": 3,
     "member_template": {
       "resolver": {"upstream_timeout": 0.8, "upstream_retries": 1,
                    "request_deadline": 4},
       "hints": [{"node": "target-ans", "zone": "target"}]}}
  ],
  "clients": [
    {"label": "Benign-A", "pattern": "wc", "qps": 400, "resolvers": ["frontend"],
     "start": 0, "stop": 60, "timeout": 1.5, "zone": "target"},
    {"label": "Benign-B", "pattern": "wc", "qps": 400, "resolvers": ["frontend"],
     "start": 0, "stop": 60, "timeout": 1.5, "zone": "target"},
    {"label": "Benign-C", "pattern": "wc", "qps": 400, "resolvers": ["frontend"],
     "start": 0, "stop": 60, "timeout": 1.5, "zone": "target"}
  ],
  "faults": {"arm_before_sampling": true,
             "plan": ["blackout start=10s end=25s host=10.0.0.4"]},
  "measure": {"ans": [{"label": "target", "node": "target-ans"}],
              "client_series": true, "trackers": ["frontend"]}
})json";

// Fig. 2 population indices probed by rl_probe: one resolver from each
// ground-truth ingress bucket (1-100, 101-500, 501-1500, 1501-5000).
constexpr int kProbeSlice[] = {3, 17, 30, 41};

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out,
                  std::string* error) {
  *out = Workload();
  out->name = name;
  out->seed = seed;
  if (name == "rl_probe") {
    out->kind = WorkloadKind::kProbe;
    const std::vector<dcc::ResolverProfile> population = dcc::MakeFig2Population(seed);
    for (const int index : kProbeSlice) {
      out->profiles.push_back(population[static_cast<size_t>(index)]);
      out->probe_seeds.push_back(seed * 1000 + static_cast<uint64_t>(index));
    }
    out->shapes = {"wc_answer", "nxdomain", "referral"};
    return true;
  }
  scenario::ScenarioSpec spec;
  if (name == "wc_flood" || name == "ff_amplification") {
    const std::string pattern = name == "wc_flood" ? "wc" : "ff";
    for (dcc::search::SeedSpec& seed_spec :
         dcc::search::DefaultSeedSpecs(dcc::Seconds(60), seed)) {
      if (seed_spec.name == pattern) {
        spec = std::move(seed_spec.spec);
      }
    }
    out->shapes = name == "wc_flood"
                      ? std::vector<std::string>{"wc_answer"}
                      : std::vector<std::string>{"wc_answer", "nxdomain", "referral"};
  } else if (name == "fleet_failover") {
    if (!scenario::ParseScenarioSpec(kFleetTemplate, &spec, error)) {
      return false;
    }
    spec.seed = seed;
    spec.faults.plan.seed = seed;
    out->shapes = {"wc_answer"};
  } else {
    *error = "unknown workload '" + name + "'";
    return false;
  }
  spec.name = "perfbench-" + name;
  // Inert while loss_probability is 0, but still seed-derived; seed 1 keeps
  // the examples' loss seed of 42, so wc_flood at seed 1 is
  // examples/scenarios/resilience.json.
  spec.network.loss_seed = 41 + seed;
  if (!scenario::ValidateScenarioSpec(&spec, error)) {
    return false;
  }
  out->spec_text = scenario::WriteScenarioSpec(spec);
  return true;
}

namespace {

// --- host memory -------------------------------------------------------------------

// A "<field>:   N kB" line of /proc/self/status, in MiB (-1 if absent).
double ProcStatusMb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len && line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;
    }
  }
  return -1;
}

// Returns freed heap to the kernel and resets the peak-RSS watermark, so
// VmHWM afterwards measures what the process does from here on.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

// --- profile and registry readers ---------------------------------------------------

double SiteMs(const dcc::prof::ProfileReport& report, const char* name, bool self) {
  uint64_t ns = 0;
  for (const dcc::prof::SiteReport& site : report.sites) {
    if (site.name == name) {
      ns += self ? site.self_ns : site.total_ns;
    }
  }
  return static_cast<double>(ns) / 1e6;
}

uint64_t EventCount(const dcc::prof::ProfileReport& report, const char* category) {
  for (const dcc::prof::EventCategoryReport& cat : report.event_categories) {
    if (cat.category == category) {
      return cat.count;
    }
  }
  return 0;
}

double LabeledSum(const dcc::telemetry::MetricsSnapshot& snapshot, const char* name,
                  const char* key, const char* value) {
  double sum = 0;
  for (const dcc::telemetry::MetricSample& sample : snapshot.samples) {
    if (sample.name != name) {
      continue;
    }
    for (const auto& [k, v] : sample.labels) {
      if (k == key && v == value) {
        sum += sample.value;
      }
    }
  }
  return sum;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// The q-quantile of a registry histogram with geometric buckets, linearly
// interpolated inside the bucket that holds it (as Prometheus'
// histogram_quantile does). Histogram::Quantile returns the bucket's upper
// bound, which moves in whole buckets and so reads the same for most seeds.
double InterpolatedQuantile(const dcc::Histogram& histogram, double q) {
  const std::vector<std::pair<double, double>> cdf = histogram.Cdf();
  // The bucket growth, read off the histogram: the smallest ratio between
  // the upper bounds of two non-empty buckets, which is the growth itself
  // once two neighbouring buckets hold samples (and a power of it before).
  double growth = 0;
  for (size_t i = 1; i < cdf.size(); ++i) {
    const double ratio = cdf[i].first / cdf[i - 1].first;
    growth = growth == 0 ? ratio : std::min(growth, ratio);
  }
  const double rank = q * static_cast<double>(histogram.count());
  double below = 0;
  for (const auto& [upper, fraction] : cdf) {
    const double cumulative = fraction * static_cast<double>(histogram.count());
    if (cumulative >= rank) {
      const double lower = growth > 0 ? upper / growth : histogram.min();
      const double within = (rank - below) / (cumulative - below);
      return std::clamp(lower + (upper - lower) * within, histogram.min(),
                        histogram.max());
    }
    below = cumulative;
  }
  return histogram.max();
}

}  // namespace

void Put(Value* object, const char* key, double value) {
  object->Set(key, Value::OfNumber(value));
}

namespace {

// --- passes ---------------------------------------------------------------------------

struct Pass {
  bool ok = true;
  std::string error;
  double wall_s = 0;
  double cpu_s = 0;
  double rss_growth_mb = 0;  // Since before the process's first pass.
  Value outcome = Value::MakeObject();  // Digest material (simulated results).
  Value layers = Value::MakeObject();   // Traced passes only.
};

// The process's resident size before its first pass, taken once (with the
// watermark reset) so that memory a pass leaves behind for the life of the
// process, such as warm pools and caches, counts in the first pass's peak.
double g_rss_baseline_mb = 0;

// Brackets a pass with host clocks, RSS and (when traced) the profiler.
class PassTimer {
 public:
  explicit PassTimer(bool traced) : traced_(traced) {
    if (traced_) {
      dcc::prof::Reset();
      dcc::prof::Enable();
    }
    wall0_ = WallNs();
    cpu0_ = ThreadCpuSeconds();
  }

  void Stop(Pass* pass) {
    pass->cpu_s = ThreadCpuSeconds() - cpu0_;
    wall_ns_ = WallNs() - wall0_;
    pass->wall_s = static_cast<double>(wall_ns_) * 1e-9;
    if (traced_) {
      dcc::prof::Disable();
      report_ = dcc::prof::Snapshot();
    }
    pass->rss_growth_mb = ProcStatusMb("VmHWM") - g_rss_baseline_mb;
  }

  const dcc::prof::ProfileReport& report() const { return report_; }
  int64_t wall_ns() const { return wall_ns_; }

 private:
  bool traced_;
  int64_t wall0_ = 0;
  double cpu0_ = 0;
  int64_t wall_ns_ = 0;
  dcc::prof::ProfileReport report_;
};

// Wall time of this pass's leaf spans: driver-timed work outside every
// profiler site.
int64_t LeafSpanNs(const SpanLog* log, int pass) {
  int64_t ns = 0;
  if (log != nullptr) {
    for (const Span& span : log->spans) {
      if (span.pass == pass && span.leaf) {
        ns += span.end_ns - span.start_ns;
      }
    }
  }
  return ns;
}

void AddSharedLayers(const PassTimer& timer, int pass_index, Pass* pass,
                     LayerContext* context) {
  const dcc::prof::ProfileReport& report = timer.report();
  Value& layers = pass->layers;
  Put(&layers, "sim.run_self_ms", SiteMs(report, "sim.run", true));
  Put(&layers, "sim.queue_depth_max", static_cast<double>(report.queue_depth_max));
  const dcc::prof::CopyCounters& copies = report.copies;
  const double hops = static_cast<double>(copies.payload_hops);
  Put(&layers, "dns.encodes_per_hop", Ratio(static_cast<double>(copies.encode_calls), hops));
  Put(&layers, "dns.decodes_per_hop", Ratio(static_cast<double>(copies.decode_calls), hops));
  Put(&layers, "server.resolver_handle_ms", SiteMs(report, "resolver.handle", true));
  Put(&layers, "server.auth_handle_ms", SiteMs(report, "auth.handle", true));
  Put(&layers, "common.pool_hit_rate",
      Ratio(static_cast<double>(copies.pool_hits),
            static_cast<double>(copies.pool_hits + copies.pool_misses)));
  const double attributed =
      static_cast<double>(report.attributed_ns) +
      static_cast<double>(LeafSpanNs(SpanLog::Active(), pass_index));
  Put(&layers, "telemetry.attributed_share",
      Ratio(attributed, static_cast<double>(timer.wall_ns())));

  context->queue_depth = static_cast<size_t>(report.queue_depth_max);
  context->delay_mix.clear();
  for (const dcc::prof::EventCategoryReport& cat : report.event_categories) {
    if (cat.count > 0) {
      context->delay_mix.emplace_back(
          static_cast<double>(cat.lag_us_sum) / static_cast<double>(cat.count),
          static_cast<double>(cat.count));
    }
  }
}

Pass RunScenarioPass(const Workload& workload, bool traced, int pass_index,
                     LayerContext* context) {
  Pass pass;
  scenario::ScenarioSpec spec;
  scenario::ScenarioOutcome outcome;
  PassTimer timer(traced);
  // The metrics registry is what exports per-client latency, so the sink is
  // part of every pass, traced or not.
  dcc::telemetry::TelemetrySink sink;
  {
    ScopedSpan span("scenario.spec_parse", true);
    pass.ok = scenario::ParseScenarioSpec(workload.spec_text, &spec, &pass.error);
  }
  if (pass.ok) {
    ScopedSpan span("scenario.spec_validate", true);
    pass.ok = scenario::ValidateScenarioSpec(&spec, &pass.error);
  }
  if (pass.ok) {
    ScopedSpan span("scenario.run", false);
    scenario::EngineHooks hooks;
    hooks.telemetry = &sink;
    pass.ok = scenario::RunScenarioSpec(spec, hooks, &outcome, &pass.error);
  }
  timer.Stop(&pass);

  const dcc::telemetry::MetricsSnapshot snapshot = sink.metrics.Snapshot();
  Value& out = pass.outcome;
  out.Set("spec_hash", Value::OfString(HashHex(scenario::WriteScenarioSpec(spec))));
  Put(&out, "seed", static_cast<double>(spec.seed));
  Put(&out, "events", static_cast<double>(outcome.events_executed));
  Value clients = Value::MakeArray();
  double client_queries = 0;
  for (size_t i = 0; i < outcome.clients.size(); ++i) {
    const scenario::ClientOutcome& client = outcome.clients[i];
    Value row = Value::MakeObject();
    row.Set("label", Value::OfString(client.label));
    row.Set("attacker", Value::OfBool(client.is_attacker));
    Put(&row, "sent", static_cast<double>(client.sent));
    Put(&row, "succeeded", static_cast<double>(client.succeeded));
    Put(&row, "failed", static_cast<double>(client.failed));
    const dcc::telemetry::MetricSample* latency = snapshot.Find(
        "stub_latency_us",
        {{"client", dcc::FormatAddress(scenario::SpecClientAddress(spec, i))}});
    if (latency != nullptr && latency->histogram.count() > 0) {
      Put(&row, "p99_ms", InterpolatedQuantile(latency->histogram, 0.99) / 1e3);
    }
    clients.PushBack(std::move(row));
    client_queries += static_cast<double>(client.succeeded + client.failed);
  }
  out.Set("clients", std::move(clients));
  Value frontends = Value::MakeArray();
  for (const scenario::FrontendOutcome& frontend : outcome.frontends) {
    Value row = Value::MakeObject();
    Put(&row, "requests", static_cast<double>(frontend.requests));
    Put(&row, "resteers", static_cast<double>(frontend.resteers));
    Put(&row, "probes", static_cast<double>(frontend.probes_sent));
    frontends.PushBack(std::move(row));
  }
  out.Set("frontends", std::move(frontends));
  Put(&out, "dcc_servfails", static_cast<double>(outcome.dcc_servfails));
  Put(&out, "fault_activations", static_cast<double>(outcome.fault_activations));

  context->live_table_size =
      static_cast<size_t>(snapshot.Sum("resolver_cache_entries"));
  if (!traced) {
    return pass;
  }
  const dcc::prof::ProfileReport& report = timer.report();
  AddSharedLayers(timer, pass_index, &pass, context);
  Value& layers = pass.layers;
  const double events = static_cast<double>(outcome.events_executed);
  Put(&layers, "scenario.build_ms", SiteMs(report, "scenario.build", false));
  Put(&layers, "scenario.collect_ms", SiteMs(report, "scenario.collect", false));
  Put(&layers, "sim.events", events);
  Put(&layers, "sim.events_per_query", Ratio(events, client_queries));
  const double upstream = snapshot.Sum("resolver_upstream_queries_total");
  const double timer_events = static_cast<double>(EventCount(report, "resolver.timeout"));
  Put(&layers, "server.subqueries_per_query",
      Ratio(snapshot.Sum("resolver_subqueries_total"), client_queries));
  Put(&layers, "server.timer_events_per_upstream_query", Ratio(timer_events, upstream));
  Put(&layers, "server.timeout_useful_ratio",
      Ratio(snapshot.Sum("resolver_upstream_retries_total"), timer_events));
  Put(&layers, "server.cache_hit_ratio",
      Ratio(LabeledSum(snapshot, "resolver_cache_lookups_total", "outcome", "hit"),
            snapshot.Sum("resolver_cache_lookups_total")));
  double resteers = 0;
  double probes = 0;
  for (const scenario::FrontendOutcome& frontend : outcome.frontends) {
    resteers += static_cast<double>(frontend.resteers);
    probes += static_cast<double>(frontend.probes_sent);
  }
  Put(&layers, "server.frontend_resteers", resteers);
  Put(&layers, "server.frontend_probes", probes);
  Put(&layers, "dcc.servfails_per_query",
      Ratio(static_cast<double>(outcome.dcc_servfails), client_queries));
  Put(&layers, "dcc.peak_memory_bytes", outcome.dcc_peak_memory_bytes);
  Put(&layers, "fault.activations", static_cast<double>(outcome.fault_activations));
  if (!outcome.frontends.empty()) {
    Put(&layers, "server.frontend_ms", SiteMs(report, "frontend.handle", true));
  }
  const double enqueues = snapshot.Sum("dcc_scheduler_enqueue_total");
  if (enqueues > 0) {
    Put(&layers, "dcc.shim_ms",
        SiteMs(report, "dcc.datagram", true) + SiteMs(report, "dcc.dequeue", true));
    Put(&layers, "dcc.enqueue_success_ratio",
        LabeledSum(snapshot, "dcc_scheduler_enqueue_total", "outcome", "SUCCESS") /
            enqueues);
  }
  context->spec = spec;
  return pass;
}

// rl_probe's inputs as text: each resolver's ground truth and probe seed.
std::string ProbeInputs(const Workload& workload) {
  std::ostringstream text;
  for (size_t i = 0; i < workload.profiles.size(); ++i) {
    const dcc::ResolverProfile& p = workload.profiles[i];
    text << p.name << ' ' << p.irl_noerror_qps << ' ' << p.irl_nxdomain_qps << ' '
         << p.egress_qps << ' ' << workload.probe_seeds[i] << '\n';
  }
  return text.str();
}

const char* BucketName(double qps, bool uncertain) {
  return dcc::QpsBucketName(dcc::ClassifyQps(qps, uncertain));
}

Pass RunProbePass(const Workload& workload, bool traced, int pass_index,
                  LayerContext* context) {
  Pass pass;
  dcc::ProbeConfig config;
  config.step_duration = dcc::Seconds(2);  // As bench_fig2_rl_measurement.
  std::vector<dcc::MeasuredLimits> measured;
  std::vector<double> probe_seconds;
  const uint64_t events_before = dcc::EventLoop::TotalEventsExecuted();
  PassTimer timer(traced);
  for (size_t i = 0; i < workload.profiles.size(); ++i) {
    ScopedSpan span("measure.probe_resolver", false);
    const int64_t start = WallNs();
    measured.push_back(
        dcc::ProbeResolver(workload.profiles[i], config, workload.probe_seeds[i]));
    probe_seconds.push_back(static_cast<double>(WallNs() - start) * 1e-9);
  }
  timer.Stop(&pass);
  const double events =
      static_cast<double>(dcc::EventLoop::TotalEventsExecuted() - events_before);

  Value probes = Value::MakeArray();
  for (size_t i = 0; i < measured.size(); ++i) {
    const dcc::ResolverProfile& truth = workload.profiles[i];
    const dcc::MeasuredLimits& m = measured[i];
    // Ground truth: no limit, or an ingress limit above the probing cap, is
    // "Uncertain".
    const char* ingress_wc = BucketName(
        truth.irl_noerror_qps,
        truth.irl_noerror_qps <= 0 || truth.irl_noerror_qps > config.ingress_cap_qps);
    const char* ingress_nx = BucketName(
        truth.irl_nxdomain_qps,
        truth.irl_nxdomain_qps <= 0 || truth.irl_nxdomain_qps > config.ingress_cap_qps);
    const char* egress = BucketName(truth.egress_qps, truth.egress_qps <= 0);
    const struct {
      const char* pattern;
      double qps;
      bool uncertain;
      const char* truth;
    } rows[] = {
        {"irl_wc", m.irl_wc, m.irl_wc_uncertain, ingress_wc},
        {"irl_nx", m.irl_nx, m.irl_nx_uncertain, ingress_nx},
        {"erl_cq", m.erl_cq, m.erl_cq_uncertain, egress},
        {"erl_ff", m.erl_ff, m.erl_ff_uncertain, egress},
    };
    for (const auto& row : rows) {
      Value probe = Value::MakeObject();
      probe.Set("resolver", Value::OfString(truth.name));
      probe.Set("pattern", Value::OfString(row.pattern));
      Put(&probe, "qps", row.qps);
      probe.Set("uncertain", Value::OfBool(row.uncertain));
      probe.Set("bucket", Value::OfString(BucketName(row.qps, row.uncertain)));
      probe.Set("truth", Value::OfString(row.truth));
      probes.PushBack(std::move(probe));
    }
  }
  Value& out = pass.outcome;
  out.Set("spec_hash", Value::OfString(HashHex(ProbeInputs(workload))));
  Put(&out, "seed", static_cast<double>(workload.seed));
  Put(&out, "events", events);
  out.Set("probes", std::move(probes));

  if (!traced) {
    return pass;
  }
  AddSharedLayers(timer, pass_index, &pass, context);
  Put(&pass.layers, "sim.events", events);
  double total = 0;
  for (const double s : probe_seconds) {
    total += s;
  }
  Put(&pass.layers, "measure.probe_resolver_s",
      total / static_cast<double>(probe_seconds.size()));
  return pass;
}

Value PassJson(const Pass& pass, int index, bool traced) {
  Value line = Value::MakeObject();
  line.Set("kind", Value::OfString("pass"));
  Put(&line, "index", index);
  line.Set("traced", Value::OfBool(traced));
  line.Set("ok", Value::OfBool(pass.ok));
  line.Set("error", Value::OfString(pass.error));
  Put(&line, "wall_s", pass.wall_s);
  Put(&line, "cpu_s", pass.cpu_s);
  Put(&line, "rss_growth_mb", pass.rss_growth_mb);
  line.Set("outcome", pass.outcome);
  if (traced) {
    line.Set("layers", pass.layers);
  }
  return line;
}

void Emit(const Value& line) {
  std::printf("%s\n", dcc::json::Write(line).c_str());
  std::fflush(stdout);
}

// Chrome trace-event JSON (chrome://tracing, Perfetto): one complete event
// per span, microsecond timestamps relative to the first span. The
// profiler's report for each traced pass rides along under "dcc_profiles".
bool WriteTrace(const std::string& path, const SpanLog& log,
                const std::vector<Value>& profiles) {
  Value events = Value::MakeArray();
  const int64_t origin = log.spans.empty() ? 0 : log.spans.front().start_ns;
  for (size_t i = 0; i < log.spans.size(); ++i) {
    const Span& span = log.spans[i];
    Value event = Value::MakeObject();
    event.Set("name", Value::OfString(span.name));
    event.Set("cat", Value::OfString(span.leaf ? "leaf" : "program"));
    event.Set("ph", Value::OfString("X"));
    Put(&event, "ts", static_cast<double>(span.start_ns - origin) / 1e3);
    Put(&event, "dur", static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    Put(&event, "pid", 1);
    Put(&event, "tid", 1);
    Value args = Value::MakeObject();
    Put(&args, "span", static_cast<double>(i));
    Put(&args, "parent", span.parent);
    Put(&args, "pass", span.pass);
    event.Set("args", std::move(args));
    events.PushBack(std::move(event));
  }
  Value doc = Value::MakeObject();
  doc.Set("traceEvents", std::move(events));
  Value profile_list = Value::MakeArray();
  for (const Value& profile : profiles) {
    profile_list.PushBack(profile);
  }
  doc.Set("dcc_profiles", std::move(profile_list));
  std::ofstream file(path);
  file << dcc::json::Write(doc) << "\n";
  return static_cast<bool>(file);
}

// --- modes ------------------------------------------------------------------------------

int RunInputs(const Workload& workload, const std::string& spec_out) {
  if (!spec_out.empty()) {
    std::ofstream file(spec_out);
    file << workload.spec_text;
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", spec_out.c_str());
      return 1;
    }
  }
  Value line = Value::MakeObject();
  line.Set("kind", Value::OfString("inputs"));
  line.Set("workload", Value::OfString(workload.name));
  Put(&line, "seed", static_cast<double>(workload.seed));
  line.Set("inputs_hash",
           Value::OfString(HashHex(workload.spec_text + ProbeInputs(workload))));
  Emit(line);
  return 0;
}

double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }

void EmitSetup(double start_cpu_s) {
  Value line = Value::MakeObject();
  line.Set("kind", Value::OfString("setup"));
  Put(&line, "setup_s", ProcessCpuSeconds() - start_cpu_s);
  Emit(line);
}

// Set-up of a fresh process, as a user meets it, in process CPU time. A
// scenario's set-up is loading its spec file through the first simulated
// event: a 1-us sampler, the earliest event an outside caller can add, takes
// the time and ends the process, since nothing after set-up is measured.
// ProbeResolver takes no hooks, so rl_probe's set-up is the Fig. 2
// population plus the zones one FF probe step builds before it simulates.
int RunSetup(const std::string& workload, uint64_t seed, const std::string& spec_path) {
  const double start_cpu_s = ProcessCpuSeconds();
  if (workload == "rl_probe") {
    const std::vector<dcc::ResolverProfile> population = dcc::MakeFig2Population(seed);
    const dcc::Name target = *dcc::Name::Parse("target-domain");
    dcc::AttackerZoneOptions options;
    options.ttl = 1;
    options.instances = 2000;
    const dcc::Zone target_zone = dcc::MakeTargetZone(target, 0x0a000001);
    const dcc::Zone attacker_zone =
        dcc::MakeAttackerZone(*dcc::Name::Parse("attacker-com"), target, options);
    if (population.empty() || target_zone.RrSetCount() == 0 ||
        attacker_zone.RrSetCount() == 0) {
      return 1;
    }
    EmitSetup(start_cpu_s);
    return 0;
  }
  scenario::ScenarioSpec spec;
  std::string error;
  if (!scenario::LoadScenarioSpecFile(spec_path, &spec, &error) ||
      !scenario::ValidateScenarioSpec(&spec, &error)) {
    std::fprintf(stderr, "setup: %s\n", error.c_str());
    return 1;
  }
  dcc::telemetry::TelemetrySink sink;
  dcc::telemetry::TimeSeriesSampler first_event(dcc::kMicrosecond);
  first_event.AddCollector(
      [start_cpu_s](dcc::Time, dcc::telemetry::TimeSeriesSampler::Writer&) {
        EmitSetup(start_cpu_s);
        _exit(0);
      });
  scenario::EngineHooks hooks;
  hooks.telemetry = &sink;
  hooks.sampler = &first_event;
  scenario::ScenarioOutcome outcome;
  scenario::RunScenarioSpec(spec, hooks, &outcome, &error);
  std::fprintf(stderr, "setup: the run ended before its first event: %s\n",
               error.c_str());
  return 1;
}

// Passes per process: two, so that every process checks that two passes
// with one seed simulate identically.
constexpr int kPassesPerProcess = 2;

// Runs kPassesPerProcess passes; pass `traced_pass` (-1: none) is traced.
int RunPasses(const Workload& workload, int traced_pass, const std::string& trace_out) {
  LayerContext context;
  context.workload = &workload;
  SpanLog log;
  std::vector<Value> profiles;
  ResetPeakRss();
  g_rss_baseline_mb = ProcStatusMb("VmRSS");
  for (int index = 0; index < kPassesPerProcess; ++index) {
    const bool traced = index == traced_pass;
    SpanLog::SetActive(traced ? &log : nullptr);
    log.pass = index;
    const Pass pass = workload.kind == WorkloadKind::kScenario
                          ? RunScenarioPass(workload, traced, index, &context)
                          : RunProbePass(workload, traced, index, &context);
    SpanLog::SetActive(nullptr);
    if (traced) {
      profiles.push_back(dcc::prof::ProfileJsonValue(dcc::prof::Snapshot()));
    }
    Emit(PassJson(pass, index, traced));
  }
  if (traced_pass < 0) {
    return 0;
  }
  Value metrics = Value::MakeObject();
  SpanLog::SetActive(&log);
  log.pass = -1;
  RunLayerBenchmarks(context, &metrics);
  SpanLog::SetActive(nullptr);
  Value line = Value::MakeObject();
  line.Set("kind", Value::OfString("microbench"));
  line.Set("metrics", std::move(metrics));
  Emit(line);
  if (!trace_out.empty() && !WriteTrace(trace_out, log, profiles)) {
    std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
    return 1;
  }
  return 0;
}

const char* Flag(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return argv[i + 1];
    }
  }
  return fallback;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::string mode = Flag(argc, argv, "--mode", "passes");
  const std::string name = Flag(argc, argv, "--workload", "");
  char* end = nullptr;
  const char* seed_text = Flag(argc, argv, "--seed", "1");
  const uint64_t seed = std::strtoull(seed_text, &end, 10);
  if (*seed_text == '\0' || *end != '\0') {
    std::fprintf(stderr, "--seed must be a non-negative integer\n");
    return 2;
  }
  if (mode == "setup") {
    return RunSetup(name, seed, Flag(argc, argv, "--spec", ""));
  }
  Workload workload;
  std::string error;
  if (!MakeWorkload(name, seed, &workload, &error)) {
    std::fprintf(stderr, "dcc_perfbench: %s\n", error.c_str());
    return 2;
  }
  if (mode == "inputs") {
    return RunInputs(workload, Flag(argc, argv, "--spec-out", ""));
  }
  if (mode == "passes") {
    const int traced_pass = std::atoi(Flag(argc, argv, "--traced", "-1"));
    if (traced_pass >= kPassesPerProcess) {
      std::fprintf(stderr, "--traced must be below %d\n", kPassesPerProcess);
      return 2;
    }
    return RunPasses(workload, traced_pass, Flag(argc, argv, "--trace-out", ""));
  }
  std::fprintf(stderr, "dcc_perfbench: unknown --mode '%s'\n", mode.c_str());
  return 2;
}
