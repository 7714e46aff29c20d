// Authoritative zone data and lookup.
//
// Implements the parts of RFC 1034 §4.3.2 needed by the paper's experiments:
// exact matches, delegation cuts (referrals with optional glue), CNAME
// indirection, wildcard synthesis (RFC 4592), empty non-terminals (NODATA),
// and NXDOMAIN with the zone SOA for negative caching (RFC 2308).
//
// Storage is built for large, write-once experiment zones (the FF attacker
// zone holds ~170k NS records): one hash index from owner name to node, with
// every strict ancestor of an owner present as an (empty) node; records kept
// per node in insertion order without their owner names; owner and
// name-valued rdata spellings as length-prefixed labels in one per-zone byte
// arena. Lookup builds the RRsets it returns from that storage and mutates
// nothing, so a const Zone may be shared across threads.

#ifndef SRC_ZONE_ZONE_H_
#define SRC_ZONE_ZONE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/flat_map.h"
#include "src/dns/name.h"
#include "src/dns/rr.h"

namespace dcc {

enum class LookupStatus {
  kSuccess,     // `records` holds the answer RRset.
  kNoData,      // Name exists but has no RRset of the queried type.
  kNxDomain,    // Name does not exist; `soa` holds the negative-caching SOA.
  kCname,       // `records` holds a single CNAME to follow.
  kDelegation,  // `records` holds the NS RRset of the cut; `glue` the glue A's.
  kNotInZone,   // QNAME is not at or below this zone's apex.
};

struct LookupResult {
  LookupStatus status = LookupStatus::kNotInZone;
  RrSet records;
  RrSet glue;
  std::optional<ResourceRecord> soa;
  // NSEC denial-of-existence proof for NXDOMAIN (when the zone has NSEC
  // enabled); served in the authority section.
  std::optional<ResourceRecord> nsec;
  bool wildcard = false;  // Answer was synthesized from a wildcard.
};

class Zone {
 public:
  explicit Zone(Name apex, SoaData soa, uint32_t default_ttl = 600);

  const Name& apex() const { return apex_; }
  uint32_t default_ttl() const { return default_ttl_; }

  // Adds a record; `rr.name` must be at or below the apex (checked).
  // Returns false (and ignores the record) otherwise.
  bool Add(ResourceRecord rr);

  // Convenience helpers using the zone default TTL.
  bool AddA(const Name& name, HostAddress addr);
  bool AddNs(const Name& name, const Name& nsdname);
  bool AddCname(const Name& name, const Name& target);
  bool AddTxt(const Name& name, std::vector<std::string> strings);

  // Enables NSEC generation: NXDOMAIN results carry an NSEC record whose
  // (owner, next) interval covers the denied name (RFC 4034, minus the type
  // bitmap), enabling RFC 8198 aggressive negative caching downstream.
  void EnableNsec();
  bool nsec_enabled() const { return nsec_enabled_; }

  // Performs an authoritative lookup per RFC 1034 §4.3.2.
  LookupResult Lookup(const Name& qname, RecordType qtype) const;

  // Number of (name, type) RRsets stored.
  size_t RrSetCount() const { return rrset_count_; }

  // The zone SOA as a resource record.
  ResourceRecord SoaRecord() const;

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  // Where a record's rdata lives.
  enum class Form : uint8_t {
    kAddress,  // `data` is the address itself.
    kName,     // `data` is the offset of the target name in `names_`.
    kSide,     // `data` indexes `side_`, which holds the whole record.
  };

  // A record without its owner: the node supplies it. A record whose owner
  // is spelled differently from the node's (names compare
  // case-insensitively) is kept whole in `side_`, so every record reads back
  // exactly as added.
  struct Record {
    RecordType type;
    Form form;
    uint32_t ttl;
    uint32_t data;
    uint32_t next;  // The node's next record, or kNone.
  };

  // A node without records is an empty non-terminal: an owner lies below.
  struct Node {
    uint32_t head = kNone;   // First record, or kNone.
    uint32_t tail = kNone;
    uint32_t owner = kNone;  // The owner as first spelled, in `names_`.
    uint32_t types = 0;      // Bit t set if the node holds type t (t < 32).
  };

  // Nodes are keyed by the owner's labels below the apex, lowercased and
  // length-prefixed (see zone.cc), so an ancestor's key is a suffix of its
  // descendant's and lookups probe with string views.
  using NodeMap =
      FlatMap<std::string, Node, std::hash<std::string_view>, std::equal_to<>>;

  std::string KeyOf(const Name& name) const;

  // The node for `key`, created (with any missing ancestors) when absent.
  Node& Upsert(std::string key);

  // Appends a record at `owner` whose rdata is `*addr`, `*target` or, when
  // both are null, `whole->rdata`. It is stored compactly when it can be;
  // otherwise `whole` (built from the other arguments if null) goes to
  // `side_`. Returns false for an owner outside the zone.
  bool Store(const Name& owner, RecordType type, uint32_t ttl, const HostAddress* addr,
             const Name* target, ResourceRecord* whole);

  uint32_t AppendName(const Name& name);
  Name ReadName(uint32_t offset) const;
  bool SpelledAs(uint32_t offset, const Name& name) const;

  const Node* Find(std::string_view key) const;
  bool HasType(const Node& node, RecordType type) const;

  // Appends the node's `type` records to `out`, owned by the node's owner,
  // or by `synthesized` for a wildcard answer.
  void AppendRrSet(const Node& node, RecordType type, const Name* synthesized,
                   RrSet* out) const;

  LookupResult MakeNegative(LookupStatus status) const;

  Name apex_;
  SoaData soa_;
  uint32_t default_ttl_;
  bool nsec_enabled_ = false;
  size_t rrset_count_ = 0;
  NodeMap nodes_;
  std::vector<Record> records_;
  std::string names_;                 // Owners and NS/CNAME/NSEC targets.
  std::vector<ResourceRecord> side_;  // SOA, TXT, opaque and respelled records.
  // Owners holding records, in canonical order; kept only with NSEC on.
  std::vector<Name> nsec_order_;
};

}  // namespace dcc

#endif  // SRC_ZONE_ZONE_H_
