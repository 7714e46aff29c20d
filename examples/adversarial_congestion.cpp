// Adversarial congestion demo (paper §2.3, setup of Fig. 3a).
//
// An attacker with a few requests per second of FF-amplified queries chokes
// the 100-QPS channel between a vanilla resolver and the victim's
// authoritative server, knocking out three benign clients — then the same
// attack is repeated against a DCC-enabled resolver.
//
// Build & run:  ./build/examples/adversarial_congestion

#include <algorithm>
#include <cstdio>
#include <string>

#include "src/measure/fairness.h"
#include "src/scenario/engine.h"
#include "src/scenario/scenarios.h"

namespace {

dcc::scenario::ScenarioOutcome Run(const dcc::scenario::ScenarioSpec& spec) {
  dcc::scenario::ScenarioOutcome outcome;
  std::string error;
  if (!dcc::scenario::RunScenarioSpec(spec, {}, &outcome, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
  }
  return outcome;
}

}  // namespace

int main() {
  using namespace dcc;

  std::printf("Adversarial congestion on a 100-QPS resolver->ANS channel\n");
  std::printf("(FF amplification, MAF ~50: each attack request costs the\n");
  std::printf(" victim's nameserver ~50 queries)\n\n");

  std::printf("%-14s %-22s %-22s\n", "attacker QPS", "benign success (ratio)",
              "load on victim ANS");
  for (double rate : {0.0, 1.0, 2.0, 4.0, 8.0}) {
    const scenario::ScenarioOutcome outcome = Run(scenario::MakeValidationSpec(
        scenario::ValidationSetup::kRedundantAuth,
        rate > 0 ? rate : 0.001));  // ~0 = baseline.
    double ans_peak = 0;
    for (const scenario::AnsOutcome& ans : outcome.ans) {
      ans_peak = std::max(ans_peak, ans.peak_qps);
    }
    std::printf("%-14.0f %-22.2f %-22.0f\n", rate,
                measure::PooledBenignSuccess(outcome.clients), ans_peak);
  }

  std::printf("\nSame attack against a DCC-enabled resolver (channel 1000 QPS,\n");
  std::printf("attacker 50 QPS, Table 2 benign mix):\n\n");
  for (bool dcc_enabled : {false, true}) {
    const scenario::ScenarioOutcome outcome = Run(scenario::MakeResilienceSpec(
        scenario::QueryPattern::kFf, 50, dcc_enabled));
    std::printf("%-22s", dcc_enabled ? "DCC-enabled resolver:" : "vanilla resolver:");
    for (const auto& client : outcome.clients) {
      std::printf("  %s=%.2f", client.label.c_str(), client.success_ratio);
    }
    if (dcc_enabled) {
      std::printf("  (attacker convicted %llu times, %llu queries policed)",
                  (unsigned long long)outcome.dcc_convictions,
                  (unsigned long long)outcome.dcc_policed_drops);
    }
    std::printf("\n");
  }
  return 0;
}
