// Fig. 4 — empirical validation of adversarial congestion (§2.3).
//
// Reproduces the four resolution setups of Fig. 3 with vanilla (non-DCC)
// servers and 100-QPS inter-server channels, sweeping the attacker's request
// rate and reporting the benign clients' average request success ratio:
//   (a) one resolver, two redundant authoritative servers, FF amplification;
//   (b) two redundant resolvers (clients retry across them), FF;
//   (c) a forwarder in front of an upstream resolver, WC pattern at rates
//       around the RR channel capacity;
//   (d) a large resolver system load-balancing over 4/16/25/60 egresses, FF.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/benches.h"
#include "src/measure/fairness.h"
#include "src/scenario/engine.h"
#include "src/scenario/scenarios.h"

namespace dcc {
namespace {

using scenario::ValidationSetup;

void Sweep(const char* title, ValidationSetup setup,
           const std::vector<double>& attacker_rates, int seeds,
           int egress_count = 4) {
  // The builder's RA/RR channel capacity (paper: 100).
  std::printf("\n--- %s (channel %.0f QPS", title, 100.0);
  if (setup == ValidationSetup::kLargeResolver) {
    std::printf(", %d egresses", egress_count);
  }
  std::printf(") ---\n");
  std::printf("%-14s %-16s %-16s %-12s\n", "attacker QPS", "benign success",
              "attacker success", "ANS peak QPS");
  for (double rate : attacker_rates) {
    // Average over several seeds: the punitive-RRL dynamics make single runs
    // noisy, exactly as the paper's cloud measurements were.
    double benign = 0;
    double attacker = 0;
    double ans_peak = 0;
    for (uint64_t seed = 1; seed <= static_cast<uint64_t>(seeds); ++seed) {
      scenario::ScenarioOutcome outcome;
      std::string error;
      if (!scenario::RunScenarioSpec(
              scenario::MakeValidationSpec(setup, rate, egress_count, seed), {},
              &outcome, &error)) {
        std::fprintf(stderr, "fig4 spec invalid: %s\n", error.c_str());
        std::abort();
      }
      double peak = 0;
      for (const scenario::AnsOutcome& ans : outcome.ans) {
        peak = std::max(peak, ans.peak_qps);
      }
      benign += measure::PooledBenignSuccess(outcome.clients) / seeds;
      attacker += outcome.clients[0].success_ratio / seeds;
      ans_peak += peak / seeds;
    }
    std::printf("%-14.0f %-16.2f %-16.2f %-12.0f\n", rate, benign, attacker,
                ans_peak);
    std::fflush(stdout);
  }
}

}  // namespace

namespace bench {

int RunFig4Validation(const BenchOptions& options) {
  std::printf("Fig. 4 — attack validation: benign request success ratio vs\n");
  std::printf("attacker QPS (vanilla resolvers, 100-QPS channels, FF MAF ~50)\n");

  const int seeds = options.quick ? 1 : 3;
  const std::vector<double> ff_rates =
      options.quick ? std::vector<double>{2, 5, 8}
                    : std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8};
  Sweep("(a) redundant authoritative servers", ValidationSetup::kRedundantAuth,
        ff_rates, seeds);
  Sweep("(b) redundant resolvers", ValidationSetup::kRedundantResolver, ff_rates,
        seeds);
  const std::vector<double> wc_rates =
      options.quick ? std::vector<double>{80, 110}
                    : std::vector<double>{60, 70, 80, 90, 100, 110, 120, 130};
  Sweep("(c) forwarding resolver", ValidationSetup::kForwarder, wc_rates, seeds);
  const std::vector<double> lr_rates =
      options.quick ? std::vector<double>{10, 30, 50}
                    : std::vector<double>{5, 10, 15, 20, 25, 30, 35, 40, 45, 50};
  for (int egresses : options.quick ? std::vector<int>{4}
                                    : std::vector<int>{4, 16, 25}) {
    Sweep("(d) large resolver system", ValidationSetup::kLargeResolver, lr_rates,
          seeds, egresses);
  }
  return 0;
}

}  // namespace bench
}  // namespace dcc
