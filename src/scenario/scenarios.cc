#include "src/scenario/scenarios.h"

#include <string>
#include <utility>
#include <vector>

namespace dcc {
namespace scenario {
namespace {

constexpr char kTargetApex[] = "target-domain";
constexpr char kAttackerApex[] = "attacker-com";
constexpr char kTargetZone[] = "target";
constexpr char kAttackerZone[] = "attacker";

// Channel capacities: Table 2 / Fig. 9 resolver -> nameserver, and the
// Fig. 4 RA/RR channels.
constexpr double kResilienceChannelQps = 1000;
constexpr double kValidationChannelQps = 100;

ZoneSpec TargetZone() {
  ZoneSpec zone;
  zone.id = kTargetZone;
  zone.kind = ZoneKind::kTarget;
  zone.apex = kTargetApex;
  return zone;
}

// Short-TTL attacker zone; instances <= 0 is materialized by validation to
// the "every FF request misses the cache" sizing.
ZoneSpec AttackerZone() {
  ZoneSpec zone;
  zone.id = kAttackerZone;
  zone.kind = ZoneKind::kAttacker;
  zone.apex = kAttackerApex;
  zone.target_zone = kTargetZone;
  zone.attacker.ttl = 1;
  zone.attacker.instances = 0;
  return zone;
}

// Channel capacity enforced at the authoritative end via RRL (the paper's
// validation setups configure ingress RL at the nameserver).
ResponseRateLimitConfig ChannelRrl(double channel_qps) {
  ResponseRateLimitConfig rrl;
  rrl.enabled = true;
  rrl.noerror_qps = channel_qps;
  rrl.nxdomain_qps = channel_qps;
  rrl.burst = channel_qps / 50 + 4;
  rrl.per_class = false;  // One channel capacity in total (§5.1).
  return rrl;
}

NodeSpec AuthNode(const std::string& id, const std::string& zone,
                  AuthoritativeConfig config = {}) {
  NodeSpec node;
  node.id = id;
  node.kind = NodeKind::kAuthoritative;
  node.auth = config;
  node.zones.push_back(zone);
  return node;
}

ResolverConfig PaperResolver() {
  ResolverConfig resolver;
  resolver.upstream_timeout = Milliseconds(800);
  resolver.upstream_retries = 1;
  return resolver;
}

// Paper §5 defaults: per-queue capacity 100, 75 rounds, 100K pool; anomaly
// window 2 s, 10 alarms within a 60 s suspicion to convict; NX policy = rate
// limit 100 QPS for 20 s; amplification policy = block for 30 s; inactive
// state removed after 10 s.
DccConfig PaperDcc() {
  DccConfig dcc;
  dcc.scheduler.pool_capacity = 100000;
  dcc.scheduler.max_poq_depth = 100;
  dcc.scheduler.max_rounds = 75;
  dcc.scheduler.default_channel_qps = kResilienceChannelQps;
  dcc.anomaly.window = Seconds(2);
  dcc.anomaly.alarms_to_convict = 10;
  dcc.anomaly.suspicion_period = Seconds(60);
  dcc.nx_policy_qps = 100;
  dcc.nx_policy_duration = Seconds(20);
  dcc.amp_policy_duration = Seconds(30);
  dcc.state_idle_timeout = Seconds(10);
  return dcc;
}

// The §5.1 Table 2 client mix, attacker last. Zones follow the pattern;
// entry points and seeds are the caller's.
std::vector<ClientSpec> Table2Mix(QueryPattern pattern, double attacker_qps) {
  struct Row {
    const char* label;
    double qps;
    int start_s;
    int stop_s;
    QueryPattern pattern;
  };
  const Row rows[] = {
      {"Heavy", 600, 0, 60,
       pattern == QueryPattern::kNx ? QueryPattern::kNxThenWc : QueryPattern::kWc},
      {"Medium", 350, 0, 50, QueryPattern::kWc},
      {"Light", 150, 20, 60, QueryPattern::kWc},
      {"Attacker", attacker_qps, 10, 60, pattern},
  };
  std::vector<ClientSpec> clients;
  for (const Row& row : rows) {
    ClientSpec client;
    client.label = row.label;
    client.qps = row.qps;
    client.start = Seconds(row.start_s);
    client.stop = Seconds(row.stop_s);
    client.pattern = row.pattern;
    client.zone = row.pattern == QueryPattern::kFf ? kAttackerZone : kTargetZone;
    clients.push_back(std::move(client));
  }
  clients.back().is_attacker = true;
  return clients;
}

}  // namespace

ScenarioSpec MakeResilienceSpec(QueryPattern pattern, double attacker_qps,
                                bool dcc_enabled) {
  ScenarioSpec spec;
  spec.name = "resilience";
  const bool has_ff = pattern == QueryPattern::kFf;
  spec.zones.push_back(TargetZone());
  if (has_ff) {
    spec.zones.push_back(AttackerZone());
  }

  AuthoritativeConfig auth_config;
  auth_config.rrl = ChannelRrl(kResilienceChannelQps);
  spec.nodes.push_back(AuthNode("target-ans", kTargetZone, auth_config));
  if (has_ff) {
    spec.nodes.push_back(AuthNode("attacker-ans", kAttackerZone));
  }

  NodeSpec resolver;
  resolver.id = "resolver";
  resolver.kind = NodeKind::kResolver;
  resolver.resolver = PaperResolver();
  resolver.hints.push_back({kTargetZone, "target-ans"});
  if (has_ff) {
    resolver.hints.push_back({kAttackerZone, "attacker-ans"});
  }
  if (dcc_enabled) {
    resolver.dcc_enabled = true;
    resolver.dcc = PaperDcc();
    resolver.channels.push_back({"target-ans", kResilienceChannelQps});
  }
  spec.nodes.push_back(std::move(resolver));

  spec.clients = Table2Mix(pattern, attacker_qps);
  for (ClientSpec& client : spec.clients) {
    client.resolvers.push_back("resolver");
  }

  spec.measure.client_series = true;
  spec.measure.ans.push_back({"target-ans", "target"});
  spec.measure.trackers.push_back("resolver");
  return spec;
}

ScenarioSpec MakeValidationSpec(ValidationSetup setup, double attacker_qps,
                                int egress_count, uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "validation";
  spec.horizon = Seconds(50);
  spec.seed = seed;

  const bool amplified = setup != ValidationSetup::kForwarder;
  const int ans_count = setup == ValidationSetup::kRedundantAuth ||
                                setup == ValidationSetup::kRedundantResolver
                            ? 2
                            : 1;

  spec.zones.push_back(TargetZone());
  if (amplified) {
    spec.zones.push_back(AttackerZone());
  }

  AuthoritativeConfig auth_config;
  auth_config.rrl = ChannelRrl(kValidationChannelQps);
  // Public resolvers were observed to lower their limits or temporarily
  // block clients that exceed them (§2.2.1); the validation setups model
  // that punitive behavior.
  auth_config.rrl.penalty = Milliseconds(300);
  std::vector<std::string> ans_ids;
  for (int i = 0; i < ans_count; ++i) {
    const std::string id = "ans" + std::to_string(i);
    spec.nodes.push_back(AuthNode(id, kTargetZone, auth_config));
    ans_ids.push_back(id);
  }
  if (amplified) {
    spec.nodes.push_back(AuthNode("attacker-ans", kAttackerZone));
  }

  int resolver_count = 0;
  auto make_resolver = [&](double ingress_limit) {
    NodeSpec node;
    node.id = "r" + std::to_string(resolver_count++);
    node.kind = NodeKind::kResolver;
    node.resolver = PaperResolver();
    if (ingress_limit > 0) {
      node.resolver.ingress_rrl = ChannelRrl(ingress_limit);
      node.resolver.ingress_rrl.penalty = Milliseconds(300);
    }
    for (const std::string& ans : ans_ids) {
      node.hints.push_back({kTargetZone, ans});
    }
    if (amplified) {
      node.hints.push_back({kAttackerZone, "attacker-ans"});
    }
    return node;
  };

  // Entry points the clients talk to. Node order is address order: in setup
  // (d) the forwarder precedes its egress resolvers and references them
  // forward.
  std::vector<std::string> entry_points;
  int client_retries = 0;
  switch (setup) {
    case ValidationSetup::kRedundantAuth:
    case ValidationSetup::kRedundantResolver: {
      const int resolvers = setup == ValidationSetup::kRedundantAuth ? 1 : 2;
      for (int i = 0; i < resolvers; ++i) {
        NodeSpec r = make_resolver(0);
        entry_points.push_back(r.id);
        spec.nodes.push_back(std::move(r));
      }
      // Setup (b): failed requests are retried at the other resolver.
      client_retries = resolvers - 1;
      break;
    }
    case ValidationSetup::kForwarder: {
      // The RR channel capacity is the upstream resolver's ingress limit.
      NodeSpec upstream = make_resolver(kValidationChannelQps);
      NodeSpec fwd;
      fwd.id = "fwd";
      fwd.kind = NodeKind::kForwarder;
      fwd.upstreams.push_back(upstream.id);
      spec.nodes.push_back(std::move(upstream));
      entry_points.push_back(fwd.id);
      spec.nodes.push_back(std::move(fwd));
      break;
    }
    case ValidationSetup::kLargeResolver: {
      // Ingress load balancer over `egress_count` recursive egresses, each
      // with its own (rate-limited) channel to the target ANS.
      NodeSpec fwd;
      fwd.id = "fwd";
      fwd.kind = NodeKind::kForwarder;
      fwd.forwarder.cache_enabled = false;  // Large systems: internal layers.
      for (int i = 0; i < egress_count; ++i) {
        fwd.upstreams.push_back("r" + std::to_string(i));
      }
      entry_points.push_back(fwd.id);
      spec.nodes.push_back(std::move(fwd));
      for (int i = 0; i < egress_count; ++i) {
        spec.nodes.push_back(make_resolver(0));
      }
      break;
    }
  }

  // The attacker targets every available entry point (the paper's setup (b)
  // observation: congestion arises at both resolvers).
  ClientSpec attacker;
  attacker.label = "attacker";
  attacker.qps = attacker_qps;
  attacker.start = 0;
  attacker.stop = spec.horizon;
  attacker.rotate_resolvers = true;
  attacker.is_attacker = true;
  attacker.pattern = amplified ? QueryPattern::kFf : QueryPattern::kWc;
  attacker.zone = amplified ? kAttackerZone : kTargetZone;
  attacker.seed = seed * 31;
  attacker.has_seed = true;
  attacker.resolvers = entry_points;
  spec.clients.push_back(std::move(attacker));

  for (int i = 0; i < 3; ++i) {
    ClientSpec benign;
    benign.label = "benign" + std::to_string(i);
    benign.qps = 3;
    benign.start = Seconds(5);
    benign.stop = Seconds(35);
    benign.retries = client_retries;
    benign.zone = kTargetZone;
    benign.seed = seed * 1000 + i;
    benign.has_seed = true;
    benign.resolvers = entry_points;
    spec.clients.push_back(std::move(benign));
  }

  // Only the target-ANS rate is sampled (the Fig. 4 saturation signal).
  spec.measure.client_series = false;
  for (int i = 0; i < ans_count; ++i) {
    spec.measure.ans.push_back({ans_ids[i], std::to_string(i)});
  }
  return spec;
}

ScenarioSpec MakeSignalingSpec(QueryPattern pattern, double attacker_qps,
                               bool signaling_enabled) {
  ScenarioSpec spec;
  spec.name = "signaling";
  const bool has_ff = pattern == QueryPattern::kFf;
  spec.zones.push_back(TargetZone());
  if (has_ff) {
    spec.zones.push_back(AttackerZone());
  }
  spec.nodes.push_back(AuthNode("target-ans", kTargetZone));
  if (has_ff) {
    spec.nodes.push_back(AuthNode("attacker-ans", kAttackerZone));
  }

  // Recursive resolver (egress), DCC-enabled.
  NodeSpec resolver;
  resolver.id = "resolver";
  resolver.kind = NodeKind::kResolver;
  resolver.resolver = PaperResolver();
  resolver.hints.push_back({kTargetZone, "target-ans"});
  if (has_ff) {
    resolver.hints.push_back({kAttackerZone, "attacker-ans"});
  }
  resolver.dcc_enabled = true;
  resolver.dcc = PaperDcc();
  resolver.dcc.signaling_enabled = signaling_enabled;
  resolver.channels.push_back({"target-ans", kResilienceChannelQps});
  spec.nodes.push_back(std::move(resolver));

  // Forwarder (ingress), DCC-enabled. Its own anomaly detection is disabled:
  // the experiment isolates the effect of the signaling mechanism, as in the
  // paper where the forwarder reacts to upstream signals with the default
  // block policy and a countdown threshold of 5.
  NodeSpec forwarder;
  forwarder.id = "forwarder";
  forwarder.kind = NodeKind::kForwarder;
  forwarder.upstreams.push_back("resolver");
  forwarder.dcc_enabled = true;
  forwarder.dcc = PaperDcc();
  forwarder.dcc.signaling_enabled = signaling_enabled;
  forwarder.dcc.countdown_police_threshold = 5;
  forwarder.dcc.anomaly.nx_ratio_threshold = 10.0;       // Never fires locally.
  forwarder.dcc.anomaly.amplification_threshold = 1e12;  // Never fires locally.
  forwarder.channels.push_back({"resolver", kResilienceChannelQps});
  spec.nodes.push_back(std::move(forwarder));

  // Clients per §5.1: attacker, heavy and light behind the forwarder; medium
  // directly at the recursive resolver; heavy always WC.
  spec.clients = Table2Mix(pattern, attacker_qps);
  spec.clients[0].pattern = QueryPattern::kWc;
  for (size_t i = 0; i < spec.clients.size(); ++i) {
    ClientSpec& client = spec.clients[i];
    client.seed = 77 + i;
    client.has_seed = true;
    client.resolvers.push_back(client.label == "Medium" ? "resolver" : "forwarder");
  }

  spec.measure.client_series = true;
  spec.measure.ans.push_back({"target-ans", "target"});
  spec.measure.trackers.push_back("resolver");
  spec.measure.trackers.push_back("forwarder");
  return spec;
}

}  // namespace scenario
}  // namespace dcc
