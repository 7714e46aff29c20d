// Smoke tests for the paper-topology spec builders (src/scenario/scenarios):
// shortened versions of the Fig. 4/8/9 runs asserting the headline shapes
// (vanilla congests, DCC shares fairly, signaling protects the innocent).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/measure/fairness.h"
#include "src/scenario/engine.h"
#include "src/scenario/scenarios.h"

namespace dcc {
namespace scenario {
namespace {

ScenarioOutcome Simulate(const ScenarioSpec& spec) {
  ScenarioOutcome outcome;
  std::string error;
  EXPECT_TRUE(RunScenarioSpec(spec, {}, &outcome, &error)) << error;
  return outcome;
}

// Shortens a spec's run, trimming every client schedule to the new horizon.
ScenarioSpec Trimmed(ScenarioSpec spec, Duration horizon) {
  spec.horizon = horizon;
  for (ClientSpec& client : spec.clients) {
    client.stop = std::min(client.stop, horizon);
  }
  return spec;
}

double BenignSuccess(ValidationSetup setup, double attacker_qps) {
  return measure::PooledBenignSuccess(
      Simulate(MakeValidationSpec(setup, attacker_qps)).clients);
}

TEST(Table2Test, ClientMixMatchesPaper) {
  const auto clients = MakeResilienceSpec(QueryPattern::kNx, 1100).clients;
  ASSERT_EQ(clients.size(), 4u);
  EXPECT_EQ(clients[0].label, "Heavy");
  EXPECT_EQ(clients[0].qps, 600);
  EXPECT_EQ(clients[0].pattern, QueryPattern::kNxThenWc);  // NX attacker case.
  EXPECT_EQ(clients[1].qps, 350);
  EXPECT_EQ(clients[1].stop, Seconds(50));
  EXPECT_EQ(clients[2].qps, 150);
  EXPECT_EQ(clients[2].start, Seconds(20));
  EXPECT_TRUE(clients[3].is_attacker);
  EXPECT_EQ(clients[3].start, Seconds(10));
}

TEST(Table2Test, WcAttackerKeepsHeavyOnWc) {
  const auto clients = MakeResilienceSpec(QueryPattern::kWc, 1100).clients;
  EXPECT_EQ(clients[0].pattern, QueryPattern::kWc);
}

// One shortened WC scenario pair; asserts DCC's fairness edge over vanilla.
TEST(ResilienceScenarioTest, DccProtectsBenignClients) {
  double medium_vanilla = 0;
  double medium_dcc = 0;
  for (bool dcc_enabled : {false, true}) {
    const ScenarioOutcome result = Simulate(Trimmed(
        MakeResilienceSpec(QueryPattern::kWc, 1100, dcc_enabled), Seconds(25)));
    ASSERT_EQ(result.clients.size(), 4u);
    const double medium = result.clients[1].success_ratio;
    (dcc_enabled ? medium_dcc : medium_vanilla) = medium;
    if (dcc_enabled) {
      EXPECT_GT(result.dcc_servfails, 0u);
    }
  }
  EXPECT_GT(medium_dcc, medium_vanilla + 0.2);
}

TEST(ResilienceScenarioTest, FairShareMatchesWaterFilling) {
  ScenarioSpec spec = Trimmed(MakeResilienceSpec(), Seconds(20));
  for (ClientSpec& client : spec.clients) {
    client.stop = Seconds(20);
    client.start = std::min(client.start, Seconds(10));
  }
  const ScenarioOutcome result = Simulate(spec);
  // During 10-20 s all four clients are active on a 1000-QPS channel:
  // light (150) is satisfied; the rest share (1000-150)/3 = 283 each.
  const auto& heavy = result.clients[0];
  double heavy_rate = 0;
  for (size_t t = 14; t < 19; ++t) {
    heavy_rate += heavy.effective_qps[t] / 5;
  }
  EXPECT_NEAR(heavy_rate, 283, 45);
}

TEST(ValidationScenarioTest, CongestionGrowsWithAttackRate) {
  const double benign_weak = BenignSuccess(ValidationSetup::kRedundantAuth, 1);
  const double benign_strong = BenignSuccess(ValidationSetup::kRedundantAuth, 8);
  EXPECT_GT(benign_weak, 0.8);
  EXPECT_LT(benign_strong, benign_weak - 0.3);
}

TEST(ValidationScenarioTest, ForwarderSetupTracksChannelCapacity) {
  // Below and above the 100-QPS RR channel.
  EXPECT_GT(BenignSuccess(ValidationSetup::kForwarder, 60), 0.9);
  EXPECT_LT(BenignSuccess(ValidationSetup::kForwarder, 130), 0.6);
}

TEST(SignalingScenarioTest, SignalsReduceCollateralDamage) {
  double light_off = 0;
  double light_on = 0;
  for (bool signaling : {false, true}) {
    ScenarioSpec spec = MakeSignalingSpec(QueryPattern::kFf, 20, signaling);
    spec.horizon = Seconds(45);
    const ScenarioOutcome result = Simulate(spec);
    // clients: Heavy, Medium, Light, Attacker.
    const double light = result.clients[2].success_ratio;
    (signaling ? light_on : light_off) = light;
    if (!signaling) {
      EXPECT_EQ(result.dcc_signals_attached, 0u);
    }
  }
  EXPECT_GT(light_on, light_off + 0.25);
}

TEST(DeterminismTest, IdenticalRunsProduceIdenticalResults) {
  // The README promises bit-reproducible experiments: two runs of the same
  // scenario with the same seed must match event-for-event.
  const ScenarioSpec spec = Trimmed(MakeResilienceSpec(), Seconds(15));
  const ScenarioOutcome a = Simulate(spec);
  const ScenarioOutcome b = Simulate(spec);
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (size_t c = 0; c < a.clients.size(); ++c) {
    EXPECT_EQ(a.clients[c].sent, b.clients[c].sent);
    EXPECT_EQ(a.clients[c].succeeded, b.clients[c].succeeded);
    EXPECT_EQ(a.clients[c].effective_qps, b.clients[c].effective_qps);
  }
  EXPECT_EQ(a.ans[0].qps, b.ans[0].qps);
  EXPECT_EQ(a.dcc_servfails, b.dcc_servfails);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(DeterminismTest, SeedChangesResults) {
  auto run = [](uint64_t seed) {
    ScenarioSpec spec = Trimmed(
        MakeResilienceSpec(QueryPattern::kWc, 1100, /*dcc_enabled=*/false),
        Seconds(10));
    spec.seed = seed;
    return Simulate(spec);
  };
  const ScenarioOutcome a = run(1);
  const ScenarioOutcome b = run(2);
  // Different jitter seeds shift per-second outcomes.
  EXPECT_NE(a.clients[0].effective_qps, b.clients[0].effective_qps);
}

}  // namespace
}  // namespace scenario
}  // namespace dcc
