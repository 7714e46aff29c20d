// End-to-end chaos acceptance test on examples/scenarios/chaos.json: a
// blackout of every authoritative server against a serve-stale resolver.
// Verifies graceful degradation (stale answers confined to the outage,
// bounded staleness), hold-down cutting the upstream send rate,
// bounded-time recovery, and deterministic replay.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/scenario/engine.h"
#include "src/scenario/spec.h"

#ifndef DCC_SOURCE_DIR
#define DCC_SOURCE_DIR "."
#endif

namespace dcc {
namespace scenario {
namespace {

// The committed chaos spec with `overrides` applied (dcc_sim's --set).
ScenarioSpec ChaosSpec(const std::vector<std::string>& overrides = {}) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_TRUE(LoadScenarioSpecFile(DCC_SOURCE_DIR "/examples/scenarios/chaos.json",
                                   &spec, &error, overrides))
      << error;
  return spec;
}

// A 30 s run with both authoritatives dark over [8 s, blackout_end).
std::vector<std::string> ShortBlackout(const std::string& blackout_end = "18s") {
  return {"run.horizon=30", "clients[0].stop=30",
          "faults.plan[1]=blackout start=8s end=" + blackout_end + " host=10.0.0.1",
          "faults.plan[2]=blackout start=8s end=" + blackout_end + " host=10.0.0.2"};
}

ScenarioOutcome Simulate(const ScenarioSpec& spec) {
  ScenarioOutcome outcome;
  std::string error;
  EXPECT_TRUE(RunScenarioSpec(spec, {}, &outcome, &error)) << error;
  EXPECT_EQ(outcome.clients.size(), 1u);
  EXPECT_EQ(outcome.resolver_series.size(), 1u);
  return outcome;
}

int SecondOf(Time t) { return static_cast<int>(t / kSecond); }

double MeanOver(const std::vector<double>& series, int begin, int end) {
  double sum = 0;
  int n = 0;
  for (int s = begin; s < end && s < static_cast<int>(series.size()); ++s) {
    sum += series[s];
    ++n;
  }
  return n > 0 ? sum / n : 0;
}

TEST(ChaosScenarioTest, GracefulDegradationAndRecovery) {
  const ScenarioSpec spec = ChaosSpec();
  ASSERT_EQ(spec.faults.plan.events.size(), 2u);
  const ScenarioOutcome outcome = Simulate(spec);
  const ClientOutcome& client = outcome.clients[0];
  const ResolverSeriesOutcome& resolver = outcome.resolver_series[0];
  const int blackout_start = SecondOf(spec.faults.plan.events[0].start);
  const int blackout_end = SecondOf(spec.faults.plan.events[0].end);
  const int horizon = SecondOf(spec.horizon);
  const double client_qps = spec.clients[0].qps;

  // The client barely notices the outage: stale answers keep it whole.
  EXPECT_GT(client.success_ratio, 0.98);
  EXPECT_GT(client.sent, 1000u);

  // Degradation: stale answers appear only while the authoritatives are
  // dark (after the short zone TTL runs out) and stop once they return.
  EXPECT_GT(resolver.stale_responses, 100u);
  EXPECT_NEAR(MeanOver(resolver.stale_qps, 0, blackout_start), 0.0, 0.01);
  EXPECT_GT(MeanOver(resolver.stale_qps, blackout_start + 2, blackout_end),
            client_qps * 0.5);
  // Recovery: fresh answers within a couple of seconds of the blackout
  // lifting.
  EXPECT_NEAR(MeanOver(resolver.stale_qps, blackout_end + 2, horizon), 0.0, 0.01);

  // Hold-down collapses the upstream send rate instead of retry-storming.
  // As the geometric windows grow, most late-blackout seconds see zero
  // upstream transmissions (only brief re-probe bursts at window expiry),
  // and the blackout total stays far below a retry storm's.
  EXPECT_GT(MeanOver(resolver.upstream_send_qps, 2, blackout_start), 1.0);
  int suppressed_seconds = 0;
  double dark_total = 0;
  for (int s = blackout_start + 2; s < blackout_end; ++s) {
    if (resolver.upstream_send_qps[s] == 0) {
      ++suppressed_seconds;
    }
    dark_total += resolver.upstream_send_qps[s];
  }
  EXPECT_GE(suppressed_seconds, (blackout_end - blackout_start) / 2);
  EXPECT_LT(dark_total, client_qps * (blackout_end - blackout_start) * 0.5);
  EXPECT_GE(resolver.holddowns, 2u);
  EXPECT_GT(resolver.upstream_timeouts, 0u);
  EXPECT_EQ(outcome.fault_activations, spec.faults.plan.events.size());

  // After recovery the resolver talks upstream again.
  EXPECT_GT(MeanOver(resolver.upstream_send_qps, blackout_end + 1, horizon), 0.5);
}

TEST(ChaosScenarioTest, ReplayIsDeterministic) {
  const ScenarioSpec spec = ChaosSpec(ShortBlackout());
  const ScenarioOutcome a = Simulate(spec);
  const ScenarioOutcome b = Simulate(spec);
  EXPECT_EQ(a.clients[0].sent, b.clients[0].sent);
  EXPECT_EQ(a.clients[0].succeeded, b.clients[0].succeeded);
  const ResolverSeriesOutcome& ra = a.resolver_series[0];
  const ResolverSeriesOutcome& rb = b.resolver_series[0];
  EXPECT_EQ(ra.stale_responses, rb.stale_responses);
  EXPECT_EQ(ra.upstream_timeouts, rb.upstream_timeouts);
  EXPECT_EQ(ra.holddowns, rb.holddowns);
  EXPECT_EQ(ra.upstream_send_qps, rb.upstream_send_qps);
  EXPECT_EQ(ra.stale_qps, rb.stale_qps);

  // A different fault timeline actually changes the run (guards against the
  // comparison above passing vacuously on constant series).
  const ScenarioOutcome c = Simulate(ChaosSpec(ShortBlackout("24s")));
  EXPECT_NE(ra.stale_qps, c.resolver_series[0].stale_qps);
}

TEST(ChaosScenarioTest, DccResolverSurvivesChaosToo) {
  std::vector<std::string> overrides = ShortBlackout();
  // A DCC shim with the paper's scheduler sizing and the capacity estimator
  // (hold-down -> capacity-collapse feedback), one channel per authoritative.
  overrides.push_back(
      R"(nodes[2].dcc={"scheduler": {"pool_capacity": 100000, "max_poq_depth": 100,)"
      R"( "max_rounds": 75, "default_channel_qps": 1000}, "capacity": {"enabled": true}})");
  overrides.push_back(
      R"(nodes[2].channels=[{"node": "ans0", "qps": 1000}, {"node": "ans1", "qps": 1000}])");
  const ScenarioSpec spec = ChaosSpec(overrides);
  ASSERT_TRUE(spec.nodes[2].dcc_enabled);
  ASSERT_TRUE(spec.nodes[2].dcc.capacity.enabled);
  const ScenarioOutcome outcome = Simulate(spec);
  EXPECT_GT(outcome.clients[0].success_ratio, 0.95);
  EXPECT_GT(outcome.resolver_series[0].stale_responses, 0u);
  EXPECT_GE(outcome.resolver_series[0].holddowns, 1u);
}

TEST(ChaosScenarioTest, CustomFaultPlanOverridesDefaultBlackout) {
  ScenarioSpec spec = ChaosSpec({"run.horizon=20", "clients[0].stop=20"});
  // Lossy queries towards both authoritatives (SRTT steering would route
  // around a single degraded server).
  spec.faults.plan.events.clear();
  for (HostAddress auth : {SpecNodeAddress(spec, 0), SpecNodeAddress(spec, 1)}) {
    fault::FaultEvent event;
    event.type = fault::FaultType::kLinkLoss;
    event.start = Seconds(5);
    event.end = Seconds(15);
    event.a = fault::kAnyHost;
    event.b = auth;
    event.probability = 0.5;
    spec.faults.plan.events.push_back(event);
  }
  const ScenarioOutcome outcome = Simulate(spec);
  // Loss instead of blackout: adaptive retry absorbs it without SERVFAILs.
  EXPECT_EQ(outcome.fault_activations, 2u);
  EXPECT_GT(outcome.clients[0].success_ratio, 0.95);
  EXPECT_GT(outcome.resolver_series[0].upstream_timeouts, 0u);
}

}  // namespace
}  // namespace scenario
}  // namespace dcc
