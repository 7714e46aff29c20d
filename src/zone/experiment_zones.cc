#include "src/zone/experiment_zones.h"

#include <string>

#include "src/telemetry/profiler.h"

namespace dcc {
namespace {

SoaData DefaultSoa(const Name& apex, uint32_t minimum) {
  SoaData soa;
  soa.mname = *Name::Parse("ans." + apex.ToString());
  soa.rname = *Name::Parse("hostmaster." + apex.ToString());
  soa.serial = 2024110401;
  soa.refresh = 3600;
  soa.retry = 600;
  soa.expire = 86400;
  soa.minimum = minimum;
  return soa;
}

// Builds "<labels>.<labels-1>...1.r<chain>-<instance>.cq.<apex>".
Name CqName(const Name& apex, int instance, int chain_index, int labels) {
  std::string text;
  for (int l = labels; l >= 1; --l) {
    text += std::to_string(l);
    text += '.';
  }
  text += "r" + std::to_string(chain_index) + "-" + std::to_string(instance);
  text += ".";
  text += kCnameSubtree;
  if (!apex.IsRoot()) {
    text += "." + apex.ToString();
  }
  return *Name::Parse(text);
}

}  // namespace

Name CqChainHead(const Name& apex, int instance, int chain_index, int labels) {
  return CqName(apex, instance, chain_index, labels);
}

Zone MakeTargetZone(const Name& apex, HostAddress self_addr,
                    const TargetZoneOptions& options) {
  DCC_PROF_SCOPE("zone.build");
  Zone zone(apex, DefaultSoa(apex, options.ttl), options.ttl);
  const Name ans_name = *apex.Prepend("ans");
  zone.AddNs(apex, ans_name);
  zone.AddA(ans_name, self_addr);

  // WC subtree: "*.wc.<apex>" answers every pseudo-random query name.
  const Name wc_subtree = *apex.Prepend(kWildcardSubtree);
  zone.AddA(*wc_subtree.Prepend("*"), options.wildcard_addr);

  // NX subtree intentionally holds no records: any query under it yields
  // NXDOMAIN. An anchor TXT at the subtree apex keeps the subtree itself
  // resolvable (NODATA) without shadowing descendants.
  const Name nx_subtree = *apex.Prepend(kNxSubtree);
  zone.AddTxt(nx_subtree, {"nxdomain test subtree"});

  // CQ chains (Fig. 12a): r1-i -> r2-i -> ... -> rN-i -> A.
  for (int i = 1; i <= options.cq_instances; ++i) {
    for (int k = 1; k < options.cq_chain_length; ++k) {
      zone.AddCname(CqName(apex, i, k, options.cq_labels),
                    CqName(apex, i, k + 1, options.cq_labels));
    }
    zone.AddA(CqName(apex, i, options.cq_chain_length, options.cq_labels),
              options.wildcard_addr);
  }
  return zone;
}

Zone MakeAttackerZone(const Name& apex, const Name& target_apex,
                      const AttackerZoneOptions& options) {
  DCC_PROF_SCOPE("zone.build");
  Zone zone(apex, DefaultSoa(apex, options.ttl), options.ttl);
  const Name ans_name = *apex.Prepend("ans");
  zone.AddNs(apex, ans_name);
  // No A record for the attacker's own nameserver name is needed in-zone;
  // the hosting server is configured with the zone directly.

  const Name target_wc = *target_apex.Prepend(kWildcardSubtree);
  for (int i = 1; i <= options.instances; ++i) {
    const Name q = FfQueryName(apex, i);
    for (int a = 1; a <= options.fanout_a; ++a) {
      const std::string ns_a_label = "ns-a" + std::to_string(a) + "-" + std::to_string(i);
      const Name ns_a = *apex.Prepend(ns_a_label);
      zone.AddNs(q, ns_a);
      for (int t = 1; t <= options.fanout_t; ++t) {
        const std::string ns_t_label =
            "ns-t" + std::to_string(a) + std::to_string(t) + "-" + std::to_string(i);
        zone.AddNs(ns_a, *target_wc.Prepend(ns_t_label));
      }
    }
  }
  return zone;
}

Name FfQueryName(const Name& attacker_apex, int instance) {
  return *attacker_apex.Prepend("q-" + std::to_string(instance));
}

}  // namespace dcc
