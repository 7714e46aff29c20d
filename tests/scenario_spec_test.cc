// Tests for the declarative scenario layer (src/scenario): JSON parse and
// validation diagnostics, write -> parse round-trip exactness, the example
// specs under examples/scenarios/, and golden equivalence between the legacy
// Run*Scenario entry points and the generic engine executing the compiled
// (and JSON-round-tripped) specs.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/scenario/engine.h"
#include "src/scenario/scenarios.h"
#include "src/scenario/spec.h"
#include "src/sim/event_loop.h"

#ifndef DCC_SOURCE_DIR
#define DCC_SOURCE_DIR "."
#endif

namespace dcc {
namespace scenario {
namespace {

// A minimal valid spec: one auth serving the target zone, one resolver, one
// client. Tests below perturb copies of it.
ScenarioSpec BaseSpec() {
  ScenarioSpec spec;
  spec.name = "base";
  spec.horizon = Seconds(5);
  ZoneSpec zone;
  zone.id = "target";
  zone.apex = "target-domain";
  spec.zones.push_back(zone);
  NodeSpec ans;
  ans.id = "ans";
  ans.kind = NodeKind::kAuthoritative;
  ans.zones.push_back("target");
  spec.nodes.push_back(ans);
  NodeSpec resolver;
  resolver.id = "resolver";
  resolver.kind = NodeKind::kResolver;
  resolver.hints.push_back({"target", "ans"});
  spec.nodes.push_back(resolver);
  ClientSpec client;
  client.label = "c";
  client.qps = 10;
  client.zone = "target";
  client.resolvers.push_back("resolver");
  spec.clients.push_back(client);
  return spec;
}

std::string ValidationError(ScenarioSpec spec) {
  std::string error;
  EXPECT_FALSE(ValidateScenarioSpec(&spec, &error));
  return error;
}

TEST(SpecParseTest, MalformedJsonReportsByteOffset) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(ParseScenarioSpec("{\"name\": }", &spec, &error));
  EXPECT_NE(error.find("offset"), std::string::npos) << error;
}

TEST(SpecParseTest, UnknownKeyReportsJsonPath) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(ParseScenarioSpec(
      "{\"nodes\": [{\"id\": \"a\", \"kind\": \"auth\", \"bogus\": 1}]}",
      &spec, &error));
  EXPECT_NE(error.find("nodes[0]"), std::string::npos) << error;
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;
}

TEST(SpecParseTest, WrongTypeReportsJsonPath) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(ParseScenarioSpec(
      "{\"clients\": [{\"label\": \"c\", \"qps\": \"fast\"}]}", &spec, &error));
  EXPECT_NE(error.find("clients[0]"), std::string::npos) << error;
}

TEST(SpecParseTest, BadPatternNameReportsPath) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(ParseScenarioSpec(
      "{\"clients\": [{\"label\": \"c\", \"pattern\": \"zz\"}]}", &spec,
      &error));
  EXPECT_NE(error.find("pattern"), std::string::npos) << error;
}

std::string ParseError(const std::string& text) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(ParseScenarioSpec(text, &spec, &error)) << text;
  return error;
}

// Integer members take only integral numbers that fit their type, and
// durations must fit in int64 microseconds: nothing is converted silently.
TEST(SpecParseTest, OutOfRangeIntegersAndDurationsAreRejected) {
  const auto resolver = [](const std::string& field) {
    return R"({"nodes": [{"id": "a", "kind": "auth"},
                         {"id": "r", "kind": "resolver", "resolver": {)" +
           field + "}}]}";
  };
  EXPECT_EQ(ParseError(resolver(R"("upstream_retries": 1e20)")),
            "nodes[1].resolver.upstream_retries: expected an integer in "
            "[-2147483648, 2147483647]");
  EXPECT_EQ(ParseError(resolver(R"("stale_answer_ttl": -1)")),
            "nodes[1].resolver.stale_answer_ttl: expected an integer in "
            "[0, 4294967295]");
  EXPECT_EQ(ParseError(resolver(R"("max_fetches_per_request": 2.7)")),
            "nodes[1].resolver.max_fetches_per_request: expected an integer "
            "in [-2147483648, 2147483647]");
  EXPECT_EQ(ParseError(R"({"clients": [{"seed": 18446744073709551616}]})"),
            "clients[0].seed: expected an integer in [0, 18446744073709551615]");
  EXPECT_EQ(ParseError(R"({"nodes": [{"id": "r", "kind": "resolver",
                                      "dcc": {"countdown_relay_decrement": 65536}}]})"),
            "nodes[0].dcc.countdown_relay_decrement: expected an integer in "
            "[0, 65535]");
  EXPECT_EQ(ParseError(R"({"run": {"horizon": 1e13}})"),
            "run.horizon: expected a duration in seconds that fits in int64 "
            "microseconds");
  EXPECT_EQ(ParseError(R"({"network": {"jitter": -1e400}})"),
            "network.jitter: expected a duration in seconds that fits in "
            "int64 microseconds");

  // The edges of each type still parse exactly.
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(ParseScenarioSpec(resolver(R"("upstream_retries": -2147483648,
                                            "stale_answer_ttl": 4294967295)"),
                                &spec, &error))
      << error;
  EXPECT_EQ(spec.nodes[1].resolver.upstream_retries, -2147483648LL);
  EXPECT_EQ(spec.nodes[1].resolver.stale_answer_ttl, 4294967295u);
  ASSERT_TRUE(ParseScenarioSpec(R"({"run": {"horizon": 1e12, "seed": 9007199254740992}})",
                                &spec, &error))
      << error;
  EXPECT_EQ(spec.horizon, Seconds(1000000000000LL));
  EXPECT_EQ(spec.seed, 9007199254740992ULL);
}

TEST(SpecValidateTest, AcceptsBaseSpecAndMaterializes) {
  ScenarioSpec spec = BaseSpec();
  std::string error;
  ASSERT_TRUE(ValidateScenarioSpec(&spec, &error)) << error;
  // Derived fields are pinned: client stop -> horizon, seed -> seed*101+i,
  // jitter seed -> seed*13+1.
  EXPECT_EQ(spec.clients[0].stop, spec.horizon);
  EXPECT_TRUE(spec.clients[0].has_seed);
  EXPECT_EQ(spec.clients[0].seed, spec.seed * 101);
  EXPECT_EQ(spec.network.jitter_seed, spec.seed * 13 + 1);
  // Idempotent: a second pass changes nothing.
  const std::string once = WriteScenarioSpec(spec);
  ASSERT_TRUE(ValidateScenarioSpec(&spec, &error)) << error;
  EXPECT_EQ(once, WriteScenarioSpec(spec));
}

TEST(SpecValidateTest, DanglingReferencesAreRejectedWithPaths) {
  {
    ScenarioSpec spec = BaseSpec();
    spec.clients[0].resolvers[0] = "nope";
    EXPECT_NE(ValidationError(spec).find("clients[0]"), std::string::npos);
  }
  {
    ScenarioSpec spec = BaseSpec();
    spec.nodes[1].hints[0].node = "nope";
    EXPECT_NE(ValidationError(spec).find("nodes[1]"), std::string::npos);
  }
  {
    ScenarioSpec spec = BaseSpec();
    spec.nodes[0].zones[0] = "nope";
    EXPECT_NE(ValidationError(spec).find("nodes[0]"), std::string::npos);
  }
  {
    ScenarioSpec spec = BaseSpec();
    spec.measure.trackers.push_back("nope");
    EXPECT_NE(ValidationError(spec).find("trackers"), std::string::npos);
  }
}

TEST(SpecValidateTest, KindMismatchesAreRejected) {
  {
    // DCC shim on an authoritative.
    ScenarioSpec spec = BaseSpec();
    spec.nodes[0].dcc_enabled = true;
    EXPECT_FALSE(ValidationError(spec).empty());
  }
  {
    // Forwarder without upstreams.
    ScenarioSpec spec = BaseSpec();
    NodeSpec fwd;
    fwd.id = "fwd";
    fwd.kind = NodeKind::kForwarder;
    spec.nodes.push_back(fwd);
    EXPECT_NE(ValidationError(spec).find("upstreams"), std::string::npos);
  }
  {
    // Clients cannot resolve via an authoritative.
    ScenarioSpec spec = BaseSpec();
    spec.clients[0].resolvers[0] = "ans";
    EXPECT_FALSE(ValidationError(spec).empty());
  }
  {
    // Bad ranges.
    ScenarioSpec spec = BaseSpec();
    spec.network.loss_probability = 1.5;
    EXPECT_NE(ValidationError(spec).find("loss_probability"), std::string::npos);
  }
}

// The field lists' bounds are ValidateScenarioSpec's single-field range
// checks, reported at the field's JSON path.
TEST(SpecValidateTest, RangeChecksNameTheField) {
  struct Case {
    void (*perturb)(ScenarioSpec*);
    const char* error;
  };
  const Case cases[] = {
      {[](ScenarioSpec* s) { s->horizon = 0; }, "run.horizon: must be > 0"},
      {[](ScenarioSpec* s) { s->network.jitter = -1; }, "network.jitter: must be >= 0"},
      {[](ScenarioSpec* s) { s->network.loss_probability = -0.5; },
       "network.loss_probability: must be in [0, 1]"},
      {[](ScenarioSpec* s) { s->network.pair_delays.push_back({"ans", "c", 0}); },
       "network.pair_delays[0].one_way: must be > 0"},
      {[](ScenarioSpec* s) { s->clients[0].qps = 0; }, "clients[0].qps: must be > 0"},
      {[](ScenarioSpec* s) { s->clients[0].ramp_to_qps = -1; },
       "clients[0].ramp_to_qps: must be >= 0"},
      {[](ScenarioSpec* s) {
         s->nodes[1].dcc_enabled = true;
         s->nodes[1].channels.push_back({"ans", 0});
       },
       "nodes[1].channels[0].qps: must be > 0"},
      {[](ScenarioSpec* s) {
         NodeSpec frontend;
         frontend.id = "fe";
         frontend.kind = NodeKind::kFrontend;
         frontend.replicate = 1025;
         frontend.has_member_template = true;
         s->nodes.push_back(frontend);
       },
       "nodes[2].replicate: must be in [0, 1024]"},
  };
  for (const Case& c : cases) {
    ScenarioSpec spec = BaseSpec();
    c.perturb(&spec);
    EXPECT_EQ(ValidationError(spec), c.error);
  }
}

TEST(SpecRoundTripTest, WriteParseReproducesExactly) {
  ScenarioSpec spec = CompileResilienceSpec(ResilienceOptions{});
  std::string error;
  ASSERT_TRUE(ValidateScenarioSpec(&spec, &error)) << error;
  const std::string text = WriteScenarioSpec(spec);
  ScenarioSpec reparsed;
  ASSERT_TRUE(ParseScenarioSpec(text, &reparsed, &error)) << error;
  EXPECT_EQ(text, WriteScenarioSpec(reparsed));
}

// An attacker zone's derived instance count (max FF QPS x horizon + 8) must
// fit its int member rather than overflow the conversion.
TEST(SpecValidateTest, DerivedFfInstanceCountMustFitAnInt) {
  ScenarioSpec spec = BaseSpec();
  ZoneSpec attacker;
  attacker.id = "atk";
  attacker.kind = ZoneKind::kAttacker;
  attacker.apex = "atk-domain";
  attacker.target_zone = "target";
  attacker.attacker.instances = 0;
  spec.zones.push_back(attacker);
  ClientSpec ff = spec.clients[0];
  ff.label = "ff";
  ff.pattern = QueryPattern::kFf;
  ff.zone = "atk";
  ff.qps = 1e12;
  spec.clients.push_back(ff);
  EXPECT_EQ(ValidationError(spec),
            "zones[1].instances: FF QPS x horizon + 8 does not fit in an int; set it");
  spec.clients[1].qps = 50;
  std::string error;
  ASSERT_TRUE(ValidateScenarioSpec(&spec, &error)) << error;
  EXPECT_EQ(spec.zones[1].attacker.instances, 50 * 5 + 8);
}

// Every committed spec validates, and its validated form is a write ->
// parse -> write fixed point. The files already stored materialized must
// equal that form byte for byte (what `dcc_sim validate` prints).
TEST(SpecRoundTripTest, ExampleSpecsParseAndValidate) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(DCC_SOURCE_DIR) / "examples" / "scenarios";
  std::vector<fs::path> files;
  for (const fs::path& dir : {root, root / "found"}) {
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".json") {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files.size(), 8u);
  const std::vector<std::string> materialized = {
      "resilience", "validation", "signaling", "chaos", "found-benign-worst-001"};
  size_t compared = 0;
  for (const fs::path& file : files) {
    const std::string name = file.stem().string();
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(LoadScenarioSpecFile(file.string(), &spec, &error)) << error;
    ASSERT_TRUE(ValidateScenarioSpec(&spec, &error)) << name << ": " << error;
    EXPECT_FALSE(spec.nodes.empty()) << name;
    EXPECT_FALSE(spec.clients.empty()) << name;
    const std::string written = WriteScenarioSpec(spec);
    ScenarioSpec reparsed;
    ASSERT_TRUE(ParseScenarioSpec(written, &reparsed, &error)) << name << ": " << error;
    EXPECT_EQ(WriteScenarioSpec(reparsed), written) << name;
    if (std::find(materialized.begin(), materialized.end(), name) !=
        materialized.end()) {
      std::ifstream in(file);
      std::stringstream on_disk;
      on_disk << in.rdbuf();
      EXPECT_EQ(on_disk.str(), written) << name;
      ++compared;
    }
  }
  EXPECT_EQ(compared, materialized.size());
}

// Runs `spec` via the engine, returning the outcome plus the exact number of
// loop events the run executed (from the global event counter).
ScenarioOutcome RunCounted(const ScenarioSpec& spec, uint64_t* events) {
  const uint64_t before = EventLoop::TotalEventsExecuted();
  ScenarioOutcome outcome;
  std::string error;
  EXPECT_TRUE(RunScenarioSpec(spec, {}, &outcome, &error)) << error;
  *events = EventLoop::TotalEventsExecuted() - before;
  return outcome;
}

// Compiled spec and its JSON round-trip must replay the legacy entry point
// event-for-event with identical headline metrics.
template <typename Options, typename Result>
void ExpectGoldenEquivalence(const Options& options,
                             ScenarioSpec (*compile)(const Options&),
                             Result (*run)(const Options&),
                             uint64_t* legacy_events,
                             Result* legacy_result,
                             ScenarioOutcome* outcome) {
  const uint64_t before = EventLoop::TotalEventsExecuted();
  *legacy_result = run(options);
  *legacy_events = EventLoop::TotalEventsExecuted() - before;

  const ScenarioSpec spec = compile(options);
  uint64_t direct_events = 0;
  *outcome = RunCounted(spec, &direct_events);
  EXPECT_EQ(direct_events, *legacy_events);

  ScenarioSpec validated = spec;
  std::string error;
  ASSERT_TRUE(ValidateScenarioSpec(&validated, &error)) << error;
  ScenarioSpec reparsed;
  ASSERT_TRUE(ParseScenarioSpec(WriteScenarioSpec(validated), &reparsed, &error))
      << error;
  uint64_t roundtrip_events = 0;
  const ScenarioOutcome rt = RunCounted(reparsed, &roundtrip_events);
  EXPECT_EQ(roundtrip_events, *legacy_events);
  ASSERT_EQ(rt.clients.size(), outcome->clients.size());
  for (size_t i = 0; i < rt.clients.size(); ++i) {
    EXPECT_EQ(rt.clients[i].sent, outcome->clients[i].sent);
    EXPECT_EQ(rt.clients[i].succeeded, outcome->clients[i].succeeded);
  }
}

TEST(GoldenEquivalenceTest, Resilience) {
  ResilienceOptions options;
  options.horizon = Seconds(12);
  options.clients = Table2Clients(QueryPattern::kNx, 1100);
  for (auto& client : options.clients) {
    client.stop = std::min(client.stop, options.horizon);
  }
  uint64_t legacy_events = 0;
  ScenarioResult legacy;
  ScenarioOutcome outcome;
  ExpectGoldenEquivalence(options, CompileResilienceSpec,
                          RunResilienceScenario, &legacy_events, &legacy,
                          &outcome);
  ASSERT_EQ(outcome.clients.size(), legacy.clients.size());
  for (size_t i = 0; i < legacy.clients.size(); ++i) {
    EXPECT_EQ(outcome.clients[i].sent, legacy.clients[i].sent);
    EXPECT_EQ(outcome.clients[i].succeeded, legacy.clients[i].succeeded);
    EXPECT_EQ(outcome.clients[i].effective_qps, legacy.clients[i].effective_qps);
  }
  EXPECT_EQ(outcome.ans[0].qps, legacy.ans_qps);
  EXPECT_EQ(outcome.dcc_convictions, legacy.dcc_convictions);
  EXPECT_EQ(outcome.dcc_policed_drops, legacy.dcc_policed_drops);
  EXPECT_EQ(outcome.dcc_servfails, legacy.dcc_servfails);
}

TEST(GoldenEquivalenceTest, ValidationRedundantResolverFf) {
  ValidationOptions options;
  options.setup = ValidationSetup::kRedundantResolver;
  options.attacker_qps = 8;
  uint64_t legacy_events = 0;
  ValidationResult legacy;
  ScenarioOutcome outcome;
  ExpectGoldenEquivalence(options, CompileValidationSpec,
                          RunValidationScenario, &legacy_events, &legacy,
                          &outcome);
  EXPECT_EQ(outcome.clients[0].success_ratio, legacy.attacker_success_ratio);
  double peak = 0;
  for (const auto& ans : outcome.ans) {
    peak = std::max(peak, ans.peak_qps);
  }
  EXPECT_EQ(peak, legacy.ans_peak_qps);
}

TEST(GoldenEquivalenceTest, SignalingNx) {
  SignalingOptions options;
  options.horizon = Seconds(12);
  options.attacker_qps = 150;
  uint64_t legacy_events = 0;
  ScenarioResult legacy;
  ScenarioOutcome outcome;
  ExpectGoldenEquivalence(options, CompileSignalingSpec, RunSignalingScenario,
                          &legacy_events, &legacy, &outcome);
  ASSERT_EQ(outcome.clients.size(), legacy.clients.size());
  for (size_t i = 0; i < legacy.clients.size(); ++i) {
    EXPECT_EQ(outcome.clients[i].sent, legacy.clients[i].sent);
    EXPECT_EQ(outcome.clients[i].succeeded, legacy.clients[i].succeeded);
  }
  EXPECT_EQ(outcome.dcc_signals_attached, legacy.dcc_signals_attached);
}

TEST(GoldenEquivalenceTest, ChaosWithDefaultBlackout) {
  ChaosOptions options;
  options.horizon = Seconds(20);
  options.blackout_start = Seconds(5);
  options.blackout_end = Seconds(12);
  uint64_t legacy_events = 0;
  ChaosResult legacy;
  ScenarioOutcome outcome;
  ExpectGoldenEquivalence(options, CompileChaosSpec, RunChaosScenario,
                          &legacy_events, &legacy, &outcome);
  EXPECT_EQ(outcome.clients[0].sent, legacy.client.sent);
  EXPECT_EQ(outcome.clients[0].succeeded, legacy.client.succeeded);
  ASSERT_EQ(outcome.resolver_series.size(), 1u);
  EXPECT_EQ(outcome.resolver_series[0].stale_responses, legacy.stale_served);
  EXPECT_EQ(outcome.resolver_series[0].holddowns, legacy.holddowns);
  EXPECT_EQ(outcome.resolver_series[0].upstream_send_qps,
            legacy.upstream_send_qps);
  EXPECT_EQ(outcome.fault_activations, legacy.fault_activations);
}

}  // namespace
}  // namespace scenario
}  // namespace dcc
