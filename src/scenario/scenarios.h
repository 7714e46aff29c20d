// Spec builders for the paper's evaluation topologies, shared by the
// Fig. 4/8/9 benches, dcc_search's seed specs and the tests:
//  * MakeResilienceSpec — the §5.1 single-resolver evaluation (Table 2 /
//    Fig. 8): the Table 2 client mix against a vanilla or DCC-enabled
//    resolver on a 1000-QPS channel.
//  * MakeValidationSpec — the §2.3 attack-validation setups (Fig. 3/4):
//    vanilla resolvers behind 100-QPS channels.
//  * MakeSignalingSpec  — the §5.1 signaling evaluation (Fig. 9): forwarder
//    -> resolver path, both DCC-enabled, signaling on or off.
//
// Each builder takes only what its callers sweep and returns a plain
// scenario::ScenarioSpec; anything else (horizon, seed, client schedules,
// DCC parameters) is changed on the returned struct. Run a spec with
// scenario::RunScenarioSpec and read the ScenarioOutcome. Validated, each
// builder's defaults write byte-for-byte as the committed
// examples/scenarios/{resilience,validation,signaling}.json.
//
// Address layout for hand-written fault plans: nodes in spec order from
// 10.0.0.1, then one address per client (see SpecNodeAddress).

#ifndef SRC_SCENARIO_SCENARIOS_H_
#define SRC_SCENARIO_SCENARIOS_H_

#include <cstdint>

#include "src/scenario/spec.h"

namespace dcc {
namespace scenario {

// Table 2 clients (Heavy, Medium, Light, Attacker, in that order) with the
// attacker on `pattern` at `attacker_qps`; with an NX attacker the heavy
// client starts on NX too (Fig. 8b). Paper §5 DCC defaults. Client seeds are
// left to validation (run seed x 101 + index).
ScenarioSpec MakeResilienceSpec(QueryPattern pattern = QueryPattern::kWc,
                                double attacker_qps = 1100,
                                bool dcc_enabled = true);

enum class ValidationSetup {
  kRedundantAuth,      // (a) 2 authoritative servers, 1 resolver, FF attack.
  kRedundantResolver,  // (b) 2 resolvers, clients retry across them, FF.
  kForwarder,          // (c) forwarder before a rate-limited resolver, WC.
  kLargeResolver,      // (d) ingress LB over E egress resolvers, FF attack.
};

// One attacker (0-50 s, every entry point) and three 3-QPS benign clients
// (5-35 s). `egress_count` applies to setup (d) only. Client seeds are
// pinned from `seed` (attacker seed x 31, benign seed x 1000 + i).
ScenarioSpec MakeValidationSpec(
    ValidationSetup setup = ValidationSetup::kRedundantAuth,
    double attacker_qps = 5, int egress_count = 4, uint64_t seed = 1);

// Table 2 clients with Heavy always on WC; Medium queries the resolver
// directly, the others go through the forwarder. Client seeds are pinned to
// 77 + index (run seed 1).
ScenarioSpec MakeSignalingSpec(QueryPattern pattern = QueryPattern::kNx,
                               double attacker_qps = 200,
                               bool signaling_enabled = true);

}  // namespace scenario
}  // namespace dcc

#endif  // SRC_SCENARIO_SCENARIOS_H_
