// Tests for the declarative scenario layer (src/scenario): JSON parse and
// validation diagnostics, write -> parse round-trip exactness, the example
// specs under examples/scenarios/, the paper-topology builders (their
// defaults are the committed specs), and PATH=VALUE overrides (dcc_sim's
// --set) resolved against the parser's own JSON paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/scenario/engine.h"
#include "src/scenario/scenarios.h"
#include "src/scenario/spec.h"

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
  ScenarioSpec spec = MakeResilienceSpec();
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
  EXPECT_EQ(files.size(), 9u);
  const std::vector<std::string> materialized = {
      "resilience",   "validation", "signaling", "chaos", "ff_forensics",
      "found-benign-worst-001"};
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

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

ScenarioOutcome Simulate(const ScenarioSpec& spec) {
  ScenarioOutcome outcome;
  std::string error;
  EXPECT_TRUE(RunScenarioSpec(spec, {}, &outcome, &error)) << error;
  return outcome;
}

// Each builder's default is the committed spec: validated, it writes byte
// for byte as the file. Its write -> parse round trip runs the same
// simulation as the built struct (checked on a 12 s cut to stay quick).
TEST(SpecBuilderTest, DefaultsAreTheCommittedSpecsAndRoundTrip) {
  const std::pair<std::string, ScenarioSpec> builders[] = {
      {"resilience", MakeResilienceSpec()},
      {"validation", MakeValidationSpec()},
      {"signaling", MakeSignalingSpec()},
  };
  for (const auto& [name, built] : builders) {
    ScenarioSpec validated = built;
    std::string error;
    ASSERT_TRUE(ValidateScenarioSpec(&validated, &error)) << name << ": " << error;
    EXPECT_EQ(WriteScenarioSpec(validated),
              ReadFile(DCC_SOURCE_DIR "/examples/scenarios/" + name + ".json"))
        << name;

    ScenarioSpec cut = built;
    cut.horizon = Seconds(12);
    ASSERT_TRUE(ValidateScenarioSpec(&cut, &error)) << name << ": " << error;
    ScenarioSpec reparsed;
    ASSERT_TRUE(ParseScenarioSpec(WriteScenarioSpec(cut), &reparsed, &error))
        << name << ": " << error;
    const ScenarioOutcome direct = Simulate(cut);
    EXPECT_GT(direct.events_executed, 0u) << name;
    EXPECT_EQ(Simulate(reparsed).events_executed, direct.events_executed) << name;
  }
}

// Applies `assignments` to BaseSpec's document, then parses and validates
// it; returns the first diagnostic, or "" with the result in `spec`.
std::string Override(const std::vector<std::string>& assignments,
                     ScenarioSpec* spec) {
  json::Value document = ScenarioSpecToJson(BaseSpec());
  std::string error;
  for (const std::string& assignment : assignments) {
    if (!SetSpecField(&document, assignment, &error)) {
      return error;
    }
  }
  if (!ParseScenarioSpec(json::Write(document), spec, &error) ||
      !ValidateScenarioSpec(spec, &error)) {
    return error;
  }
  return "";
}

TEST(SpecOverrideTest, SetsLeavesOfEveryKindByPath) {
  ScenarioSpec spec;
  ASSERT_EQ(Override({"clients[0].qps=75", "clients[0].pattern=nx",
                      "measure.client_series=false", "run.horizon=2.5",
                      "run.seed=9", "nodes[1].resolver.upstream_retries=3",
                      "clients[0].resolvers[0]=resolver", "name=123",
                      "clients[0].ramp_to_qps=150"},
                     &spec),
            "");
  EXPECT_EQ(spec.clients[0].qps, 75);
  EXPECT_EQ(spec.clients[0].pattern, QueryPattern::kNx);
  EXPECT_FALSE(spec.measure.client_series);
  EXPECT_EQ(spec.horizon, Milliseconds(2500));
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.nodes[1].resolver.upstream_retries, 3);
  EXPECT_EQ(spec.name, "123");  // A string field takes VALUE verbatim.
  EXPECT_EQ(spec.clients[0].ramp_to_qps, 150);  // Absent key: created.

  // Objects missing along the path are created: a whole block can be set.
  ASSERT_EQ(Override({R"(nodes[1].dcc={"signaling_enabled": false})",
                      R"(nodes[1].channels=[{"node": "ans", "qps": 500}])"},
                     &spec),
            "");
  EXPECT_TRUE(spec.nodes[1].dcc_enabled);
  EXPECT_FALSE(spec.nodes[1].dcc.signaling_enabled);
  ASSERT_EQ(spec.nodes[1].channels.size(), 1u);
  EXPECT_EQ(spec.nodes[1].channels[0].qps, 500);

  // `null` removes a key, as in a JSON merge patch.
  ASSERT_EQ(Override({R"(nodes[1].dcc={})", "nodes[1].dcc=null",
                      "clients[0].qps=null"},
                     &spec),
            "");
  EXPECT_FALSE(spec.nodes[1].dcc_enabled);
  EXPECT_EQ(spec.clients[0].qps, ClientSpec().qps);
}

TEST(SpecOverrideTest, ErrorsNameThePath) {
  struct Case {
    std::string assignment;
    std::string error;
  };
  const Case cases[] = {
      // Range, integer and duration rules are the parser's and validator's.
      {"clients[0].qps=0", "clients[0].qps: must be > 0"},
      {"run.seed=12abc", "run.seed: expected an integer in [0, 18446744073709551615]"},
      {"run.seed=-1", "run.seed: expected an integer in [0, 18446744073709551615]"},
      {"run.horizon=1e300",
       "run.horizon: expected a duration in seconds that fits in int64 microseconds"},
      {"clients[0].pattern=zz",
       "clients[0].pattern: unknown value 'zz' (wc|nx|cq|ff|nx_then_wc)"},
      {"clients[0].attacker=yes", "clients[0].attacker: expected true or false"},
      // Unknown keys are the parser's unknown-key rejection.
      {"clients[0].qpz=3", "clients[0].qpz: unknown key"},
      {"bogus.deeper=1", "bogus: unknown key"},
      // Indices and steps are checked while walking the path.
      {"clients[1].qps=3", "clients[1]: index out of range (1 elements)"},
      {"nodes[1].hints[7].node=ans", "nodes[1].hints[7]: index out of range (1 elements)"},
      {"run.horizon.x=1", "run.horizon: not an object"},
      {"run[0]=1", "run: not an array"},
      // Malformed assignments.
      {"run.horizon", "expected PATH=VALUE, got 'run.horizon'"},
      {"=5", "expected PATH=VALUE, got '=5'"},
      {"clients[x].qps=1", "expected PATH=VALUE, got 'clients[x].qps=1'"},
      {"clients[0]qps=1", "expected PATH=VALUE, got 'clients[0]qps=1'"},
      {"run..seed=1", "expected PATH=VALUE, got 'run..seed=1'"},
      {"[0]=1", "expected PATH=VALUE, got '[0]=1'"},
  };
  for (const Case& c : cases) {
    ScenarioSpec spec;
    EXPECT_EQ(Override({c.assignment}, &spec), c.error) << c.assignment;
  }
}

TEST(SpecOverrideTest, FileOverridesApplyInOrderAndPrefixThePath) {
  const std::string path = DCC_SOURCE_DIR "/examples/scenarios/resilience.json";
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(LoadScenarioSpecFile(path, &spec, &error,
                                   {"run.horizon=30", "run.horizon=20",
                                    "clients[3].pattern=nx"}))
      << error;
  EXPECT_EQ(spec.horizon, Seconds(20));
  EXPECT_EQ(spec.clients[3].pattern, QueryPattern::kNx);
  EXPECT_FALSE(LoadScenarioSpecFile(path, &spec, &error, {"clients[4].qps=1"}));
  EXPECT_EQ(error, path + ": clients[4]: index out of range (4 elements)");
}

}  // namespace
}  // namespace scenario
}  // namespace dcc
