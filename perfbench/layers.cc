// Per-layer microbenchmarks: each layer's public entry points, timed at the
// sizes the workload uses (its spec, zones, message shapes, client and
// channel counts, event-delay mix and live table size).

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/common/flat_map.h"
#include "src/common/rng.h"
#include "src/common/token_bucket.h"
#include "src/dcc/mopi_fq.h"
#include "src/dns/codec.h"
#include "src/dns/message.h"
#include "src/sim/event_loop.h"
#include "src/zone/experiment_zones.h"

namespace perfbench {
namespace {

using dcc::json::Value;

// Keeps benchmarked results observable so the compiler cannot drop the work.
volatile uint64_t g_sink = 0;

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Median over `reps` repetitions of body()'s cost per operation, in ns.
template <class Body>
double MedianNsPerOp(int reps, double ops, Body&& body) {
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    const int64_t start = WallNs();
    body();
    samples.push_back(static_cast<double>(WallNs() - start) / ops);
  }
  return Median(std::move(samples));
}

// --- scenario: spec front door ----------------------------------------------

void BenchSpec(const LayerContext& context, Value* metrics) {
  const std::string& text = context.workload->spec_text;
  constexpr int kReps = 41;
  dcc::scenario::ScenarioSpec parsed;
  std::string error;
  {
    ScopedSpan span("scenario.spec_parse", true);
    Put(metrics, "scenario.spec_parse_us", MedianNsPerOp(kReps, 1e3, [&] {
          parsed = dcc::scenario::ScenarioSpec();
          g_sink = g_sink + dcc::scenario::ParseScenarioSpec(text, &parsed, &error);
        }));
  }
  {
    ScopedSpan span("scenario.spec_validate", true);
    std::vector<double> samples;
    for (int rep = 0; rep < kReps; ++rep) {
      dcc::scenario::ScenarioSpec copy = parsed;
      const int64_t start = WallNs();
      g_sink = g_sink + dcc::scenario::ValidateScenarioSpec(&copy, &error);
      samples.push_back(static_cast<double>(WallNs() - start) / 1e3);
    }
    Put(metrics, "scenario.spec_validate_us", Median(std::move(samples)));
  }
  {
    ScopedSpan span("scenario.spec_write", true);
    Put(metrics, "scenario.spec_write_us", MedianNsPerOp(kReps, 1e3, [&] {
          g_sink = g_sink + dcc::scenario::WriteScenarioSpec(context.spec).size();
        }));
  }
}

// --- zone: experiment zone builds --------------------------------------------

void BenchZones(const LayerContext& context, Value* metrics) {
  struct ZoneJob {
    bool attacker = false;
    dcc::Name apex;
    dcc::Name target_apex;
    dcc::TargetZoneOptions target;
    dcc::AttackerZoneOptions attacker_options;
  };
  std::vector<ZoneJob> jobs;
  if (context.workload->kind == WorkloadKind::kScenario) {
    for (const dcc::scenario::ZoneSpec& zone : context.spec.zones) {
      ZoneJob job;
      job.attacker = zone.kind == dcc::scenario::ZoneKind::kAttacker;
      job.apex = *dcc::Name::Parse(zone.apex);
      job.target = zone.target;
      job.attacker_options = zone.attacker;
      for (const dcc::scenario::ZoneSpec& other : context.spec.zones) {
        if (other.id == zone.target_zone) {
          job.target_apex = *dcc::Name::Parse(other.apex);
        }
      }
      jobs.push_back(std::move(job));
    }
  } else {
    // The zones one FF probe step of ProbeResolver builds.
    ZoneJob target;
    target.apex = *dcc::Name::Parse("target-domain");
    ZoneJob attacker;
    attacker.attacker = true;
    attacker.apex = *dcc::Name::Parse("attacker-com");
    attacker.target_apex = target.apex;
    attacker.attacker_options.ttl = 1;
    attacker.attacker_options.instances = 2000;
    jobs = {target, attacker};
  }
  for (const bool attacker : {false, true}) {
    bool any = false;
    for (const ZoneJob& job : jobs) {
      any = any || job.attacker == attacker;
    }
    if (!any) {
      continue;
    }
    ScopedSpan span(attacker ? "zone.attacker_build" : "zone.target_build", true);
    const double ms = MedianNsPerOp(attacker ? 3 : 5, 1e6, [&] {
      for (const ZoneJob& job : jobs) {
        if (job.attacker != attacker) {
          continue;
        }
        const dcc::Zone zone =
            attacker ? dcc::MakeAttackerZone(job.apex, job.target_apex,
                                             job.attacker_options)
                     : dcc::MakeTargetZone(job.apex, 0x0a000001, job.target);
        g_sink = g_sink + zone.RrSetCount();
      }
    });
    Put(metrics, attacker ? "zone.attacker_build_ms" : "zone.target_build_ms", ms);
  }
}

// --- sim: schedule + run at the workload's delay mix ---------------------------

// Self-rescheduling event chains: each event schedules its successor with a
// delay drawn from the workload's mix until `remaining` runs out, so the
// queue holds `chains` events throughout, like a running simulation.
struct Chain {
  dcc::EventLoop* loop;
  const std::vector<dcc::Duration>* delays;
  size_t* cursor;
  int64_t* remaining;
  void operator()() const {
    if (--*remaining <= 0) {
      return;
    }
    const dcc::Duration delay = (*delays)[(*cursor)++ % delays->size()];
    loop->ScheduleAfter(delay, "perfbench.chain", *this);
  }
};

void BenchEventLoop(const LayerContext& context, Value* metrics) {
  std::vector<std::pair<double, double>> mix = context.delay_mix;
  if (mix.empty()) {
    mix.emplace_back(1000.0, 1.0);
  }
  double total_weight = 0;
  for (const auto& [delay, weight] : mix) {
    total_weight += weight;
  }
  dcc::Rng rng(context.workload->seed);
  std::vector<dcc::Duration> delays(4096);
  for (dcc::Duration& delay : delays) {
    double pick = rng.NextDouble() * total_weight;
    size_t i = 0;
    while (i + 1 < mix.size() && pick >= mix[i].second) {
      pick -= mix[i].second;
      ++i;
    }
    delay = static_cast<dcc::Duration>(mix[i].first);
  }
  constexpr int64_t kEvents = 400000;
  const size_t chains = std::clamp<size_t>(context.queue_depth, 256, 65536);
  ScopedSpan span("sim.schedule_run", true);
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t start = WallNs();
    dcc::EventLoop loop;
    size_t cursor = 0;
    int64_t remaining = kEvents;
    const Chain chain{&loop, &delays, &cursor, &remaining};
    for (size_t i = 0; i < chains; ++i) {
      loop.ScheduleAfter(delays[cursor++ % delays.size()], "perfbench.chain", chain);
    }
    const size_t events = loop.Run();
    samples.push_back(static_cast<double>(WallNs() - start) /
                      static_cast<double>(std::max<size_t>(events, 1)));
  }
  Put(metrics, "sim.schedule_run_ns", Median(std::move(samples)));
}

// --- dns: codec on the workload's message shapes --------------------------------

dcc::Message MakeShape(const std::string& shape, int i) {
  const std::string label = "q" + std::to_string(i);
  if (shape == "nxdomain") {
    const dcc::Message query = dcc::MakeQuery(
        static_cast<uint16_t>(i), *dcc::Name::Parse(label + ".nx.target-domain"),
        dcc::RecordType::kA);
    dcc::Message response = dcc::MakeResponse(query, dcc::Rcode::kNxDomain);
    dcc::ResourceRecord soa;
    soa.name = *dcc::Name::Parse("target-domain");
    soa.type = dcc::RecordType::kSoa;
    soa.ttl = 600;
    dcc::SoaData data;
    data.mname = *dcc::Name::Parse("ns.target-domain");
    data.rname = *dcc::Name::Parse("admin.target-domain");
    data.minimum = 60;
    soa.rdata = data;
    response.authority.push_back(soa);
    response.EnsureEdns();
    return response;
  }
  if (shape == "referral") {
    // An FF instance's delegation: 7 NS names inside the target zone.
    const dcc::Name owner = *dcc::Name::Parse(label + ".attacker-com");
    const dcc::Message query = dcc::MakeQuery(
        static_cast<uint16_t>(i), *dcc::Name::Parse("x." + label + ".attacker-com"),
        dcc::RecordType::kA);
    dcc::Message response = dcc::MakeResponse(query, dcc::Rcode::kNoError);
    for (int ns = 0; ns < 7; ++ns) {
      dcc::ResourceRecord rr;
      rr.name = owner;
      rr.type = dcc::RecordType::kNs;
      rr.ttl = 600;
      rr.rdata = *dcc::Name::Parse("n" + std::to_string(ns) + "." + label +
                                   ".nx.target-domain");
      response.authority.push_back(rr);
    }
    response.EnsureEdns();
    return response;
  }
  const dcc::Name qname = *dcc::Name::Parse(label + ".wc.target-domain");
  const dcc::Message query =
      dcc::MakeQuery(static_cast<uint16_t>(i), qname, dcc::RecordType::kA);
  dcc::Message response = dcc::MakeResponse(query, dcc::Rcode::kNoError);
  response.header.aa = true;
  dcc::ResourceRecord a;
  a.name = qname;
  a.type = dcc::RecordType::kA;
  a.ttl = 600;
  a.rdata = dcc::HostAddress{0x7f000001};
  response.answers.push_back(a);
  response.EnsureEdns();
  return response;
}

void BenchCodec(const LayerContext& context, Value* metrics) {
  std::vector<dcc::Message> messages;
  for (const std::string& shape : context.workload->shapes) {
    for (int i = 0; i < 64; ++i) {
      messages.push_back(MakeShape(shape, i));
    }
  }
  constexpr int kRounds = 300;
  const double ops = static_cast<double>(messages.size()) * kRounds;
  std::vector<std::vector<uint8_t>> wires(messages.size());
  {
    ScopedSpan span("dns.encode", true);
    Put(metrics, "dns.encode_ns", MedianNsPerOp(5, ops, [&] {
          for (int round = 0; round < kRounds; ++round) {
            for (size_t i = 0; i < messages.size(); ++i) {
              wires[i] = dcc::EncodeMessage(messages[i]);
            }
          }
          g_sink = g_sink + wires.back().size();
        }));
  }
  {
    ScopedSpan span("dns.decode", true);
    Put(metrics, "dns.decode_ns", MedianNsPerOp(5, ops, [&] {
          for (int round = 0; round < kRounds; ++round) {
            for (const std::vector<uint8_t>& wire : wires) {
              g_sink = g_sink + dcc::DecodeMessage(wire).has_value();
            }
          }
        }));
  }
}

// --- dcc: MOPI-FQ at the workload's client and channel counts -------------------

void BenchMopi(const LayerContext& context, Value* metrics) {
  dcc::MopiFqConfig config;
  size_t sources = 1;
  size_t channels = 1;
  if (context.workload->kind == WorkloadKind::kScenario) {
    sources = std::max<size_t>(context.spec.clients.size(), 1);
    size_t auths = 0;
    for (const dcc::scenario::NodeSpec& node : context.spec.nodes) {
      auths += node.kind == dcc::scenario::NodeKind::kAuthoritative;
      if (node.dcc_enabled) {
        config = node.dcc.scheduler;
      }
    }
    channels = std::max<size_t>(auths, 1);
  }
  // Channels are provisioned well above the offered load so every enqueue is
  // admitted and every dequeue returns a message: this times the common path.
  constexpr int kRounds = 2000;
  const size_t batch = std::min<size_t>(64, static_cast<size_t>(config.max_poq_depth) *
                                                channels / 2 + 1);
  std::vector<double> enqueue_ns;
  std::vector<double> dequeue_ns;
  ScopedSpan span("dcc.mopi", true);
  for (int rep = 0; rep < 5; ++rep) {
    dcc::MopiFq fq(config);
    for (size_t c = 0; c < channels; ++c) {
      fq.SetChannelCapacity(static_cast<dcc::OutputId>(1000 + c), 1e9);
    }
    int64_t enqueue_total = 0;
    int64_t dequeue_total = 0;
    size_t dequeued = 0;
    uint64_t cookie = 0;
    dcc::Time now = 0;
    for (int round = 0; round < kRounds; ++round) {
      now += dcc::kMillisecond;
      int64_t start = WallNs();
      for (size_t i = 0; i < batch; ++i) {
        dcc::SchedMessage msg;
        msg.source = static_cast<dcc::SourceId>(1 + (cookie % sources));
        msg.output = static_cast<dcc::OutputId>(1000 + (cookie / sources) % channels);
        msg.arrival = now;
        msg.cookie = cookie++;
        g_sink = g_sink + static_cast<uint64_t>(fq.Enqueue(msg, now).result);
      }
      enqueue_total += WallNs() - start;
      start = WallNs();
      while (auto msg = fq.Dequeue(now)) {
        g_sink = g_sink + msg->cookie;
        ++dequeued;
      }
      dequeue_total += WallNs() - start;
    }
    enqueue_ns.push_back(static_cast<double>(enqueue_total) / static_cast<double>(cookie));
    dequeue_ns.push_back(static_cast<double>(dequeue_total) /
                         static_cast<double>(std::max<size_t>(dequeued, 1)));
  }
  Put(metrics, "dcc.mopi_enqueue_ns", Median(std::move(enqueue_ns)));
  Put(metrics, "dcc.mopi_dequeue_ns", Median(std::move(dequeue_ns)));
}

// --- common: FlatMap and TokenBucket ---------------------------------------------

void BenchCommon(const LayerContext& context, Value* metrics) {
  const size_t live = std::max<size_t>(context.live_table_size, 64);
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
  constexpr size_t kIterations = 300000;
  {
    // Steady-state churn at the live size: look up a live key, retire the
    // oldest, admit a new one (three operations per iteration).
    ScopedSpan span("common.flat_map", true);
    Put(metrics, "common.flat_map_op_ns", MedianNsPerOp(5, 3.0 * kIterations, [&] {
          dcc::FlatMap<uint64_t, uint64_t> map;
          map.reserve(live);
          for (uint64_t k = 0; k < live; ++k) {
            map.emplace(k * kMul, k);
          }
          uint64_t oldest = 0;
          uint64_t next = live;
          for (size_t i = 0; i < kIterations; ++i) {
            g_sink = g_sink + map.count((oldest + i % live) * kMul);
            map.erase(oldest++ * kMul);
            map.emplace(next++ * kMul, i);
          }
        }));
  }
  {
    ScopedSpan span("common.token_bucket", true);
    constexpr size_t kCalls = 2000000;
    Put(metrics, "common.token_bucket_ns", MedianNsPerOp(5, kCalls, [&] {
          dcc::TokenBucket bucket(1000.0, 50.0);
          dcc::Time now = 0;
          uint64_t granted = 0;
          for (size_t i = 0; i < kCalls; ++i) {
            now += 700;  // Offered 1.43x the refill rate.
            granted += bucket.TryConsume(now);
          }
          g_sink = g_sink + granted;
        }));
  }
}

}  // namespace

void RunLayerBenchmarks(const LayerContext& context, Value* metrics) {
  if (context.workload->kind == WorkloadKind::kScenario) {
    BenchSpec(context, metrics);
  }
  BenchZones(context, metrics);
  BenchEventLoop(context, metrics);
  BenchCodec(context, metrics);
  if (context.workload->kind == WorkloadKind::kScenario) {
    BenchMopi(context, metrics);
  }
  BenchCommon(context, metrics);
}

}  // namespace perfbench
