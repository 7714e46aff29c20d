// Fig. 8 / Table 2 — DCC attack resilience.
//
// Reproduces the three §5.1 scenarios with the Table 2 client mix against a
// 1000-QPS resolver→nameserver channel, printing per-second effective QPS
// for each client, vanilla resolver vs DCC-enabled resolver:
//   (a) attacker exploiting the WC pattern at 1100 QPS,
//   (b) attacker (and initially the heavy client) using NX at 1100 QPS,
//   (c) attacker exploiting FF amplification at 50 QPS.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/benches.h"
#include "src/common/ids.h"
#include "src/measure/fairness.h"
#include "src/scenario/engine.h"
#include "src/scenario/scenarios.h"
#include "src/telemetry/span_tree.h"
#include "src/telemetry/telemetry.h"

namespace dcc {
namespace {

using scenario::QueryPattern;

void RunScenario(const char* title, QueryPattern pattern, double attacker_qps) {
  std::printf("\n=== Scenario: %s (attacker %.0f QPS) ===\n", title, attacker_qps);
  const bool ff = pattern == QueryPattern::kFf;
  for (bool dcc_enabled : {false, true}) {
    // Accounting flows through the telemetry registry (one vocabulary with
    // the dcc_sim --metrics-out dump) rather than ad-hoc member counters.
    telemetry::TelemetrySink sink;
    scenario::EngineHooks hooks;
    hooks.telemetry = &sink;
    scenario::ScenarioOutcome result;
    std::string error;
    if (!scenario::RunScenarioSpec(
            scenario::MakeResilienceSpec(pattern, attacker_qps, dcc_enabled),
            hooks, &result, &error)) {
      std::fprintf(stderr, "fig8 spec invalid: %s\n", error.c_str());
      std::abort();
    }
    std::printf("\n--- %s ---\n", dcc_enabled ? "DCC-enabled resolver" : "vanilla resolver");
    bench::PrintSeries(result, ff);
    const telemetry::MetricsSnapshot snap = sink.metrics.Snapshot();
    std::printf("summary:");
    for (const auto& client : result.clients) {
      std::printf("  %s=%.2f", client.label.c_str(), client.success_ratio);
    }
    if (dcc_enabled) {
      std::printf(
          "  [convictions=%.0f policer_rejects=%.0f servfails=%.0f "
          "enqueue_congested=%.0f dcc_mem=%.0fB]",
          snap.Sum("dcc_convictions_total"), snap.Sum("dcc_policer_rejects_total"),
          snap.Sum("dcc_servfails_synthesized_total"),
          snap.Value("dcc_scheduler_enqueue_total",
                     {{"outcome", "FAIL_CHANNEL_CONGESTED"}}),
          snap.Sum("dcc_memory_bytes"));
    }
    std::printf("\n");
    const measure::BenignCollateral collateral =
        measure::SummarizeBenignCollateral(measure::FairnessSamples(result.clients));
    std::printf(
        "collateral: worst benign %s=%.2f mean=%.2f jain=%.3f starved=%zus\n",
        collateral.worst_label.c_str(), collateral.worst_ratio,
        collateral.mean_ratio, collateral.jain_index,
        collateral.max_starved_seconds);
    if (ff) {
      // Causal-tree view of the same run: who amplified, and by how much.
      // With DCC on, policing should push the attacker's realized fan-out
      // well below the vanilla number.
      const telemetry::AmplificationReport report =
          telemetry::Attribute(telemetry::BuildSpanTrees(sink.trace));
      if (!report.clients.empty()) {
        const telemetry::ClientAmplification& worst = report.clients.front();
        std::printf(
            "amplification: worst client %s at %.1f subqueries/request "
            "(max %zu, depth %d, %zu retries over %zu traced requests)\n",
            FormatAddress(worst.client).c_str(), worst.mean_amplification,
            worst.max_amplification, worst.max_depth, worst.retries,
            worst.requests);
      }
    }
  }
}

}  // namespace

namespace bench {

int RunFig8Resilience(const BenchOptions& options) {
  std::printf("Fig. 8 — client dynamics under adversarial congestion\n");
  std::printf("(channel capacity 1000 QPS; Table 2 client mix; effective QPS\n");
  std::printf(" = successful responses per second)\n");
  RunScenario("(a) WC wildcard pattern", QueryPattern::kWc, 1100);
  if (!options.quick) {
    RunScenario("(b) NX pseudo-random subdomain pattern", QueryPattern::kNx, 1100);
    RunScenario("(c) FF amplification pattern", QueryPattern::kFf, 50);
  }
  return 0;
}

}  // namespace bench
}  // namespace dcc
