// Differential test of the zone store: seeded random zones, the target zone
// with CQ chains and the FF attacker zone are each built twice, once in
// dcc::Zone and once in a reference zone kept here (the ordered-map store
// that preceded the hashed one, written for clarity rather than speed), and
// thousands of queries must agree on every LookupResult field, name
// spellings included, and on RrSetCount().

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/zone/experiment_zones.h"
#include "src/zone/zone.h"

namespace dcc {
namespace {

// --- reference store ---------------------------------------------------------

class ReferenceZone {
 public:
  ReferenceZone(Name apex, SoaData soa, uint32_t default_ttl)
      : apex_(std::move(apex)), soa_(std::move(soa)), default_ttl_(default_ttl) {
    nodes_[apex_][RecordType::kSoa] = {MakeSoa(apex_, default_ttl_, soa_)};
  }

  bool Add(ResourceRecord rr) {
    if (!rr.name.IsSubdomainOf(apex_)) {
      return false;
    }
    nodes_[rr.name][rr.type].push_back(std::move(rr));
    return true;
  }
  bool AddA(const Name& name, HostAddress addr) {
    return Add(MakeA(name, default_ttl_, addr));
  }
  bool AddNs(const Name& name, const Name& nsdname) {
    return Add(MakeNs(name, default_ttl_, nsdname));
  }
  bool AddCname(const Name& name, const Name& target) {
    return Add(MakeCname(name, default_ttl_, target));
  }
  bool AddTxt(const Name& name, std::vector<std::string> strings) {
    return Add(MakeTxt(name, default_ttl_, std::move(strings)));
  }
  void EnableNsec() { nsec_enabled_ = true; }

  size_t RrSetCount() const {
    size_t count = 0;
    for (const auto& [name, types] : nodes_) {
      count += types.size();
    }
    return count;
  }

  LookupResult Lookup(const Name& qname, RecordType qtype) const {
    LookupResult result;
    if (!qname.IsSubdomainOf(apex_)) {
      return result;
    }
    for (size_t count = apex_.LabelCount() + 1; count <= qname.LabelCount(); ++count) {
      const TypeMap* node = FindNode(qname.Suffix(count));
      if (node != nullptr && node->count(RecordType::kNs) > 0) {
        result.status = LookupStatus::kDelegation;
        result.records = node->at(RecordType::kNs);
        for (const auto& ns : result.records) {
          const TypeMap* glue = FindNode(ns.target());
          if (glue != nullptr && glue->count(RecordType::kA) > 0) {
            const RrSet& a = glue->at(RecordType::kA);
            result.glue.insert(result.glue.end(), a.begin(), a.end());
          }
        }
        return result;
      }
    }
    if (const TypeMap* node = FindNode(qname); node != nullptr) {
      return Answer(*node, qtype, nullptr);
    }
    if (HasDescendants(qname)) {
      return Negative(LookupStatus::kNoData);
    }
    Name closest = qname;
    while (closest.LabelCount() > apex_.LabelCount()) {
      closest = closest.Parent();
      if (FindNode(closest) != nullptr || HasDescendants(closest)) {
        break;
      }
    }
    const auto wildcard_name = closest.Prepend("*");
    if (const TypeMap* wild = wildcard_name ? FindNode(*wildcard_name) : nullptr) {
      result = Answer(*wild, qtype, &qname);
      result.wildcard = true;
      return result;
    }
    result = Negative(LookupStatus::kNxDomain);
    if (nsec_enabled_) {
      auto successor = nodes_.upper_bound(qname);
      const Name next = successor != nodes_.end() ? successor->first : apex_;
      const Name owner = successor != nodes_.begin() ? std::prev(successor)->first : apex_;
      result.nsec = MakeNsec(owner, std::min(default_ttl_, soa_.minimum), next);
    }
    return result;
  }

 private:
  using TypeMap = std::map<RecordType, RrSet>;

  const TypeMap* FindNode(const Name& name) const {
    auto it = nodes_.find(name);
    return it != nodes_.end() ? &it->second : nullptr;
  }

  bool HasDescendants(const Name& name) const {
    auto it = nodes_.upper_bound(name);
    return it != nodes_.end() && it->first.IsSubdomainOf(name);
  }

  LookupResult Negative(LookupStatus status) const {
    LookupResult result;
    result.status = status;
    result.soa = MakeSoa(apex_, std::min(default_ttl_, soa_.minimum), soa_);
    return result;
  }

  // Exact or wildcard (`synthesized` owner) answer from an existing node.
  LookupResult Answer(const TypeMap& node, RecordType qtype, const Name* synthesized) const {
    auto rename = [synthesized](RrSet rrs) {
      for (ResourceRecord& rr : rrs) {
        rr.name = synthesized != nullptr ? *synthesized : rr.name;
      }
      return rrs;
    };
    LookupResult result;
    if (auto it = node.find(qtype); it != node.end()) {
      result.status = LookupStatus::kSuccess;
      result.records = rename(it->second);
    } else if (auto cname = node.find(RecordType::kCname);
               qtype != RecordType::kCname && cname != node.end()) {
      result.status = LookupStatus::kCname;
      result.records = rename(cname->second);
    } else {
      result = Negative(LookupStatus::kNoData);
    }
    return result;
  }

  Name apex_;
  SoaData soa_;
  uint32_t default_ttl_;
  bool nsec_enabled_ = false;
  std::map<Name, TypeMap> nodes_;
};

// --- comparison ---------------------------------------------------------------

// Names compare case-insensitively; the spelling is compared on its own.
std::string Spelling(const ResourceRecord& rr) {
  std::string out = rr.name.ToString();
  if (const Name* target = std::get_if<Name>(&rr.rdata)) {
    out += " " + target->ToString();
  } else if (const SoaData* soa = std::get_if<SoaData>(&rr.rdata)) {
    out += " " + soa->mname.ToString() + " " + soa->rname.ToString();
  }
  return out;
}

std::vector<std::string> Spellings(const RrSet& rrs) {
  std::vector<std::string> out;
  for (const ResourceRecord& rr : rrs) {
    out.push_back(Spelling(rr));
  }
  return out;
}

void ExpectSameResult(const LookupResult& got, const LookupResult& want,
                      const std::string& query) {
  SCOPED_TRACE(query);
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.wildcard, want.wildcard);
  EXPECT_EQ(got.records, want.records);
  EXPECT_EQ(Spellings(got.records), Spellings(want.records));
  EXPECT_EQ(got.glue, want.glue);
  EXPECT_EQ(Spellings(got.glue), Spellings(want.glue));
  EXPECT_EQ(got.soa, want.soa);
  ASSERT_EQ(got.nsec.has_value(), want.nsec.has_value());
  if (got.nsec.has_value()) {
    EXPECT_EQ(*got.nsec, *want.nsec);
    EXPECT_EQ(Spelling(*got.nsec), Spelling(*want.nsec));
  }
}

// Runs `query` against both stores, returning false once a mismatch was
// reported so a broken store fails fast instead of flooding the log.
bool Agree(const Zone& zone, const ReferenceZone& reference, const Name& qname,
           RecordType qtype) {
  const std::string query =
      qname.ToString() + " " + std::to_string(static_cast<int>(qtype));
  ExpectSameResult(zone.Lookup(qname, qtype), reference.Lookup(qname, qtype), query);
  return !::testing::Test::HasFailure();
}

constexpr RecordType kOpaqueType = static_cast<RecordType>(99);  // >= 64 on purpose.
constexpr RecordType kQueryTypes[] = {RecordType::kA,    RecordType::kNs,
                                      RecordType::kCname, RecordType::kSoa,
                                      RecordType::kTxt,  RecordType::kAaaa,
                                      RecordType::kNsec, kOpaqueType};

RecordType AnyQueryType(Rng& rng) {
  return kQueryTypes[rng.NextBelow(std::size(kQueryTypes))];
}

Name Respell(Rng& rng, const Name& name) {
  std::vector<std::string> labels = name.labels();
  for (std::string& label : labels) {
    for (char& c : label) {
      if (c >= 'a' && c <= 'z' && rng.NextBool(0.3)) {
        c = static_cast<char>(c - 'a' + 'A');
      }
    }
  }
  return Name::FromLabels(std::move(labels));
}

// --- seeded random zones ----------------------------------------------------------

// Applies each mutation to both stores; the Add result must agree too.
struct Pair {
  Zone zone;
  ReferenceZone reference;

  void Add(const ResourceRecord& rr) {
    EXPECT_EQ(zone.Add(rr), reference.Add(rr)) << rr.ToString();
  }
  void EnableNsec() {
    zone.EnableNsec();
    reference.EnableNsec();
  }
};

class ZoneDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ZoneDifferentialTest, RandomZonesMatchReference) {
  Rng rng(GetParam());
  const Name apex = *Name::Parse("Diff.Example");
  SoaData soa;
  soa.mname = *apex.Prepend("ns");
  soa.rname = *apex.Prepend("hostmaster");
  soa.minimum = static_cast<uint32_t>(rng.NextBelow(900));
  const auto default_ttl = static_cast<uint32_t>(1 + rng.NextBelow(900));
  Pair stores{Zone(apex, soa, default_ttl), ReferenceZone(apex, soa, default_ttl)};

  // A small label alphabet makes names collide into shared subtrees.
  const std::vector<std::string> alphabet = {"a", "b", "c", "www", "ns", "*", "x1"};
  auto random_name = [&](const Name& base, int max_depth) {
    Name name = base;
    for (int d = 0, n = 1 + static_cast<int>(rng.NextBelow(max_depth)); d < n; ++d) {
      name = *name.Prepend(alphabet[rng.NextBelow(alphabet.size())]);
    }
    return rng.NextBool(0.3) ? Respell(rng, name) : name;
  };

  std::vector<Name> owners = {apex};
  const bool nsec = rng.NextBool(0.5);
  const int records = 20 + static_cast<int>(rng.NextBelow(60));
  const int enable_nsec_at = nsec ? static_cast<int>(rng.NextBelow(records)) : -1;
  for (int i = 0; i < records; ++i) {
    if (i == enable_nsec_at) {
      stores.EnableNsec();
    }
    // Reuse an owner (possibly respelled) or make a new one.
    Name owner = rng.NextBool(0.4) ? owners[rng.NextBelow(owners.size())]
                                   : random_name(apex, 4);
    if (rng.NextBool(0.2)) {
      owner = Respell(rng, owner);
    }
    owners.push_back(owner);
    const auto ttl = static_cast<uint32_t>(rng.NextBelow(1000));
    const auto addr = static_cast<HostAddress>(rng.Next());
    switch (rng.NextBelow(10)) {
      case 0:
      case 1:
        stores.Add(MakeA(owner, ttl, addr));
        break;
      case 2: {
        // A delegation, to an in-zone nameserver with glue about half the time.
        const Name ns = rng.NextBool(0.6) ? random_name(owner, 2)
                                          : *Name::Parse("ns.elsewhere.net");
        stores.Add(MakeNs(owner, ttl, ns));
        if (rng.NextBool(0.5)) {
          stores.Add(MakeA(ns, ttl, addr));
        }
        break;
      }
      case 3:
        stores.Add(MakeCname(owner, ttl, random_name(apex, 3)));
        break;
      case 4:
        stores.Add(MakeTxt(owner, ttl, {"t" + std::to_string(i)}));
        break;
      case 5:
        stores.Add(ResourceRecord{owner, RecordType::kAaaa, ttl, addr});
        break;
      case 6:
        stores.Add(ResourceRecord{owner, kOpaqueType, ttl,
                                  std::vector<uint8_t>{1, 2, static_cast<uint8_t>(i)}});
        break;
      case 7: {
        // A wildcard, possibly one level under another wildcard.
        const Name wild = *random_name(owner, 1).Prepend("*");
        owners.push_back(wild);
        stores.Add(rng.NextBool(0.7) ? MakeA(wild, ttl, addr)
                                     : MakeCname(wild, ttl, random_name(apex, 2)));
        break;
      }
      case 8:
        // Outside the zone: both refuse it.
        stores.Add(MakeA(*Name::Parse("other.test"), ttl, addr));
        break;
      default: {
        // A target no wire label can carry (an overlong label).
        const Name odd = Name::FromLabels({std::string(70, 'q'), "odd"});
        stores.Add(MakeCname(owner, ttl, odd));
        break;
      }
    }
  }
  EXPECT_EQ(stores.zone.RrSetCount(), stores.reference.RrSetCount());

  for (int q = 0; q < 600; ++q) {
    Name qname;
    switch (rng.NextBelow(5)) {
      case 0:
        qname = owners[rng.NextBelow(owners.size())];
        break;
      case 1:
        qname = random_name(owners[rng.NextBelow(owners.size())], 2);
        break;
      case 2: {
        qname = owners[rng.NextBelow(owners.size())];
        if (qname.LabelCount() > 0) {
          qname = qname.Parent();
        }
        break;
      }
      case 3:
        qname = random_name(apex, 5);
        break;
      default:
        qname = random_name(*Name::Parse("other.test"), 2);
        break;
    }
    if (rng.NextBool(0.5)) {
      qname = Respell(rng, qname);
    }
    if (!Agree(stores.zone, stores.reference, qname, AnyQueryType(rng))) {
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZoneDifferentialTest, ::testing::Range<uint64_t>(1, 25));

// --- experiment zones ---------------------------------------------------------------

// The reference builds follow experiment_zones.cc record for record.
ReferenceZone ReferenceTargetZone(const Name& apex, HostAddress self,
                                  const TargetZoneOptions& options, const Zone& built) {
  const ResourceRecord soa = built.SoaRecord();
  ReferenceZone zone(apex, soa.soa(), options.ttl);
  const Name ans = *apex.Prepend("ans");
  zone.AddNs(apex, ans);
  zone.AddA(ans, self);
  zone.AddA(*apex.Prepend(kWildcardSubtree)->Prepend("*"), options.wildcard_addr);
  zone.AddTxt(*apex.Prepend(kNxSubtree), {"nxdomain test subtree"});
  for (int i = 1; i <= options.cq_instances; ++i) {
    for (int k = 1; k < options.cq_chain_length; ++k) {
      zone.AddCname(CqChainHead(apex, i, k, options.cq_labels),
                    CqChainHead(apex, i, k + 1, options.cq_labels));
    }
    zone.AddA(CqChainHead(apex, i, options.cq_chain_length, options.cq_labels),
              options.wildcard_addr);
  }
  return zone;
}

TEST(ZoneDifferentialTest, TargetZoneWithCqChainsMatchesReference) {
  const Name apex = *Name::Parse("target-domain");
  TargetZoneOptions options;
  options.cq_instances = 40;
  options.cq_chain_length = 8;
  options.cq_labels = 6;
  for (const bool nsec : {false, true}) {
    Zone zone = MakeTargetZone(apex, 0x0a000001, options);
    ReferenceZone reference = ReferenceTargetZone(apex, 0x0a000001, options, zone);
    if (nsec) {
      zone.EnableNsec();
      reference.EnableNsec();
    }
    EXPECT_EQ(zone.RrSetCount(), reference.RrSetCount());
    Rng rng(nsec ? 11 : 10);
    for (int q = 0; q < 3000; ++q) {
      const int instance = 1 + static_cast<int>(rng.NextBelow(options.cq_instances + 2));
      const int element = 1 + static_cast<int>(rng.NextBelow(options.cq_chain_length + 1));
      Name qname = CqChainHead(apex, instance, element, options.cq_labels);
      // Walk towards the apex: chain heads, their empty non-terminals, the
      // cq subtree; or below them, into names that do not exist.
      for (uint64_t up = rng.NextBelow(options.cq_labels + 3); up > 0; --up) {
        qname = qname.Parent();
      }
      switch (rng.NextBelow(4)) {
        case 0:
          qname = *qname.Prepend(rng.NextLabel(3));
          break;
        case 1:
          qname = *apex.Prepend(kWildcardSubtree)->Prepend(rng.NextLabel(8));
          break;
        case 2:
          qname = *apex.Prepend(kNxSubtree)->Prepend(rng.NextLabel(8));
          break;
        default:
          break;
      }
      if (!Agree(zone, reference, Respell(rng, qname), AnyQueryType(rng))) {
        return;
      }
    }
  }
}

TEST(ZoneDifferentialTest, AttackerZoneMatchesReference) {
  const Name apex = *Name::Parse("attacker-com");
  const Name target = *Name::Parse("target-domain");
  AttackerZoneOptions options;
  options.ttl = 1;
  options.instances = 300;
  const Zone zone = MakeAttackerZone(apex, target, options);

  ReferenceZone reference(apex, zone.SoaRecord().soa(), options.ttl);
  reference.AddNs(apex, *apex.Prepend("ans"));
  const Name target_wc = *target.Prepend(kWildcardSubtree);
  for (int i = 1; i <= options.instances; ++i) {
    for (int a = 1; a <= options.fanout_a; ++a) {
      const Name ns_a = *apex.Prepend("ns-a" + std::to_string(a) + "-" + std::to_string(i));
      reference.AddNs(FfQueryName(apex, i), ns_a);
      for (int t = 1; t <= options.fanout_t; ++t) {
        reference.AddNs(ns_a, *target_wc.Prepend("ns-t" + std::to_string(a) +
                                                  std::to_string(t) + "-" +
                                                  std::to_string(i)));
      }
    }
  }
  EXPECT_EQ(zone.RrSetCount(), reference.RrSetCount());

  Rng rng(3008);
  for (int q = 0; q < 3000; ++q) {
    const int i = 1 + static_cast<int>(rng.NextBelow(options.instances + 20));
    Name qname;
    switch (rng.NextBelow(4)) {
      case 0:
        qname = FfQueryName(apex, i);
        break;
      case 1:
        qname = *apex.Prepend("ns-a" + std::to_string(1 + rng.NextBelow(8)) + "-" +
                              std::to_string(i));
        break;
      case 2:
        qname = *FfQueryName(apex, i).Prepend(rng.NextLabel(4));
        break;
      default:
        qname = rng.NextBool(0.5) ? apex : *apex.Prepend(rng.NextLabel(5));
        break;
    }
    if (!Agree(zone, reference, Respell(rng, qname), AnyQueryType(rng))) {
      return;
    }
  }
}

}  // namespace
}  // namespace dcc
