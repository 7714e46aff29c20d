#include "src/zone/zone.h"

#include <algorithm>

namespace dcc {
namespace {

// Names are stored as length-prefixed labels, each length in LEB128: one
// octet for any label a DNS name can hold, and no label is unrepresentable.
// A node key is the owner's labels below the apex, lowercased; a stored
// spelling in `names_` is the label count, then the labels as spelled.
void PutLength(std::string* out, size_t n) {
  for (; n >= 0x80; n >>= 7) {
    out->push_back(static_cast<char>(0x80 | (n & 0x7f)));
  }
  out->push_back(static_cast<char>(n));
}

size_t GetLength(std::string_view in, size_t* at) {
  size_t n = 0;
  for (int shift = 0;; shift += 7) {
    const auto byte = static_cast<uint8_t>(in[(*at)++]);
    n |= static_cast<size_t>(byte & 0x7f) << shift;
    if (byte < 0x80) {
      return n;
    }
  }
}

// The key offset just past the label starting at `at`.
size_t NextLabel(std::string_view key, size_t at) {
  const size_t length = GetLength(key, &at);
  return at + length;
}

char ToLowerAscii(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

uint32_t TypeBit(RecordType type) {
  const auto value = static_cast<uint16_t>(type);
  return value < 32 ? uint32_t{1} << value : 0;
}

}  // namespace

Zone::Zone(Name apex, SoaData soa, uint32_t default_ttl)
    : apex_(std::move(apex)), soa_(std::move(soa)), default_ttl_(default_ttl) {
  nodes_.emplace(std::string());  // The apex, where every walk up ends.
  Add(MakeSoa(apex_, default_ttl_, soa_));
}

bool Zone::Add(ResourceRecord rr) {
  // `rr` is moved into side_ only after its name and rdata have been read.
  return Store(rr.name, rr.type, rr.ttl, std::get_if<HostAddress>(&rr.rdata),
               std::get_if<Name>(&rr.rdata), &rr);
}

bool Zone::AddA(const Name& name, HostAddress addr) {
  return Store(name, RecordType::kA, default_ttl_, &addr, nullptr, nullptr);
}

bool Zone::AddNs(const Name& name, const Name& nsdname) {
  return Store(name, RecordType::kNs, default_ttl_, nullptr, &nsdname, nullptr);
}

bool Zone::AddCname(const Name& name, const Name& target) {
  return Store(name, RecordType::kCname, default_ttl_, nullptr, &target, nullptr);
}

bool Zone::AddTxt(const Name& name, std::vector<std::string> strings) {
  return Add(MakeTxt(name, default_ttl_, std::move(strings)));
}

void Zone::EnableNsec() {
  if (nsec_enabled_) {
    return;
  }
  nsec_enabled_ = true;
  for (const auto& [key, node] : nodes_) {
    if (node.head != kNone) {
      nsec_order_.push_back(ReadName(node.owner));
    }
  }
  std::sort(nsec_order_.begin(), nsec_order_.end());
}

std::string Zone::KeyOf(const Name& name) const {
  std::string key;
  for (size_t i = 0; i + apex_.LabelCount() < name.LabelCount(); ++i) {
    const std::string& label = name.Label(i);
    PutLength(&key, label.size());
    for (const char c : label) {
      key.push_back(ToLowerAscii(c));
    }
  }
  return key;
}

Zone::Node& Zone::Upsert(std::string key) {
  if (auto it = nodes_.find(key); it != nodes_.end()) {
    return it->second;
  }
  // Every strict ancestor gets a node, so a name exists (RFC 1034 §4.3.2:
  // has records or descendants) exactly when it has a node. The walk stops
  // at the first ancestor already present, whose own ancestors are; the
  // apex, with the empty key, always is.
  const std::string_view view = key;
  for (size_t at = NextLabel(view, 0); at < view.size(); at = NextLabel(view, at)) {
    if (!nodes_.emplace(view.substr(at)).second) {
      break;
    }
  }
  return nodes_.emplace(std::move(key)).first->second;
}

uint32_t Zone::AppendName(const Name& name) {
  const auto offset = static_cast<uint32_t>(names_.size());
  PutLength(&names_, name.LabelCount());
  for (const std::string& label : name.labels()) {
    PutLength(&names_, label.size());
    names_ += label;
  }
  return offset;
}

Name Zone::ReadName(uint32_t offset) const {
  size_t at = offset;
  std::vector<std::string> labels(GetLength(names_, &at));
  for (std::string& label : labels) {
    const size_t length = GetLength(names_, &at);
    label.assign(names_, at, length);
    at += length;
  }
  return Name::FromLabels(std::move(labels));
}

bool Zone::SpelledAs(uint32_t offset, const Name& name) const {
  size_t at = offset;
  if (GetLength(names_, &at) != name.LabelCount()) {
    return false;
  }
  for (const std::string& label : name.labels()) {
    const size_t length = GetLength(names_, &at);
    if (std::string_view(names_).substr(at, length) != label) {
      return false;
    }
    at += length;
  }
  return true;
}

bool Zone::Store(const Name& owner, RecordType type, uint32_t ttl, const HostAddress* addr,
                 const Name* target, ResourceRecord* whole) {
  if (!owner.IsSubdomainOf(apex_)) {
    return false;
  }
  Node& node = Upsert(KeyOf(owner));
  if (node.owner == kNone) {
    node.owner = AppendName(owner);
  }
  Record rec{type, Form::kSide, ttl, 0, kNone};
  const bool exact = SpelledAs(node.owner, owner);
  if (exact && addr != nullptr) {
    rec.form = Form::kAddress;
    rec.data = *addr;
  } else if (exact && target != nullptr) {
    rec.form = Form::kName;
    rec.data = AppendName(*target);
  } else {
    rec.data = static_cast<uint32_t>(side_.size());
    if (whole != nullptr) {
      side_.push_back(std::move(*whole));
    } else {
      side_.push_back(ResourceRecord{
          owner, type, ttl, addr != nullptr ? Rdata(*addr) : Rdata(*target)});
    }
  }

  if (!HasType(node, type)) {
    ++rrset_count_;
    node.types |= TypeBit(type);
  }
  const auto index = static_cast<uint32_t>(records_.size());
  if (node.head == kNone) {
    node.head = index;
    if (nsec_enabled_) {
      Name name = ReadName(node.owner);
      auto at = std::lower_bound(nsec_order_.begin(), nsec_order_.end(), name);
      nsec_order_.insert(at, std::move(name));
    }
  } else {
    records_[node.tail].next = index;
  }
  node.tail = index;
  records_.push_back(rec);
  return true;
}

const Zone::Node* Zone::Find(std::string_view key) const {
  auto it = nodes_.find(key);
  return it != nodes_.end() ? &it->second : nullptr;
}

bool Zone::HasType(const Node& node, RecordType type) const {
  if (const uint32_t bit = TypeBit(type); bit != 0) {
    return (node.types & bit) != 0;
  }
  for (uint32_t i = node.head; i != kNone; i = records_[i].next) {
    if (records_[i].type == type) {
      return true;
    }
  }
  return false;
}

void Zone::AppendRrSet(const Node& node, RecordType type, const Name* synthesized,
                       RrSet* out) const {
  std::optional<Name> owner;
  for (uint32_t i = node.head; i != kNone; i = records_[i].next) {
    const Record& rec = records_[i];
    if (rec.type != type) {
      continue;
    }
    if (rec.form == Form::kSide) {
      out->push_back(side_[rec.data]);
      if (synthesized != nullptr) {
        out->back().name = *synthesized;
      }
      continue;
    }
    if (synthesized == nullptr && !owner.has_value()) {
      owner = ReadName(node.owner);
    }
    out->push_back(ResourceRecord{
        synthesized != nullptr ? *synthesized : *owner, rec.type, rec.ttl,
        rec.form == Form::kAddress ? Rdata(HostAddress{rec.data})
                                   : Rdata(ReadName(rec.data))});
  }
}

LookupResult Zone::MakeNegative(LookupStatus status) const {
  LookupResult result;
  result.status = status;
  result.soa = MakeSoa(apex_, std::min(default_ttl_, soa_.minimum), soa_);
  return result;
}

LookupResult Zone::Lookup(const Name& qname, RecordType qtype) const {
  if (!qname.IsSubdomainOf(apex_)) {
    LookupResult result;
    result.status = LookupStatus::kNotInZone;
    return result;
  }

  // One walk from qname up to (not including) the apex finds the node of
  // qname itself, the closest encloser (the nearest existing proper
  // ancestor, else the apex) and the highest delegation cut. A cut at the
  // apex is the zone's own NS RRset, not a delegation.
  const std::string key = KeyOf(qname);
  const std::string_view view = key;
  const Node* exact = Find(view);
  const Node* cut = nullptr;
  size_t encloser = view.size();
  for (size_t at = 0; at < view.size(); at = NextLabel(view, at)) {
    const Node* node = at == 0 ? exact : Find(view.substr(at));
    if (node == nullptr) {
      continue;
    }
    if (at != 0 && encloser == view.size()) {
      encloser = at;
    }
    if (HasType(*node, RecordType::kNs)) {
      cut = node;
    }
  }

  // Delegations take precedence over everything below the cut.
  if (cut != nullptr) {
    // A query for the NS RRset exactly at the cut would be answered by the
    // child zone; the parent serves a referral either way.
    LookupResult result;
    result.status = LookupStatus::kDelegation;
    AppendRrSet(*cut, RecordType::kNs, nullptr, &result.records);
    for (const auto& ns : result.records) {
      const Node* glue =
          ns.target().IsSubdomainOf(apex_) ? Find(KeyOf(ns.target())) : nullptr;
      if (glue != nullptr) {
        AppendRrSet(*glue, RecordType::kA, nullptr, &result.glue);
      }
    }
    return result;
  }

  // An exact match or an empty non-terminal: the name exists.
  if (exact != nullptr) {
    LookupResult result;
    if (HasType(*exact, qtype)) {
      result.status = LookupStatus::kSuccess;
      AppendRrSet(*exact, qtype, nullptr, &result.records);
      return result;
    }
    if (qtype != RecordType::kCname && HasType(*exact, RecordType::kCname)) {
      result.status = LookupStatus::kCname;
      AppendRrSet(*exact, RecordType::kCname, nullptr, &result.records);
      return result;
    }
    return MakeNegative(LookupStatus::kNoData);
  }

  // Wildcard synthesis (RFC 4592): the "*" child of the closest encloser
  // answers, unless it is an empty non-terminal.
  std::string wildcard_key = "\x01*";
  wildcard_key += view.substr(encloser);
  const Node* wild = Find(wildcard_key);
  if (wild != nullptr && wild->head != kNone) {
    LookupResult result;
    if (HasType(*wild, qtype)) {
      result.status = LookupStatus::kSuccess;
      AppendRrSet(*wild, qtype, &qname, &result.records);
      result.wildcard = true;
      return result;
    }
    if (qtype != RecordType::kCname && HasType(*wild, RecordType::kCname)) {
      result.status = LookupStatus::kCname;
      AppendRrSet(*wild, RecordType::kCname, &qname, &result.records);
      result.wildcard = true;
      return result;
    }
    result = MakeNegative(LookupStatus::kNoData);
    result.wildcard = true;
    return result;
  }

  LookupResult negative = MakeNegative(LookupStatus::kNxDomain);
  if (nsec_enabled_) {
    // The denial interval is bounded by the nearest existing nodes in the
    // zone's canonical (suffix-first) order; `next` wraps to the apex at the
    // end of the zone (RFC 4034 §4.1.1).
    auto successor = std::upper_bound(nsec_order_.begin(), nsec_order_.end(), qname);
    const Name& next = successor != nsec_order_.end() ? *successor : apex_;
    const Name& owner = successor != nsec_order_.begin() ? *std::prev(successor) : apex_;
    negative.nsec = MakeNsec(owner, std::min(default_ttl_, soa_.minimum), next);
  }
  return negative;
}

ResourceRecord Zone::SoaRecord() const { return MakeSoa(apex_, default_ttl_, soa_); }

}  // namespace dcc
