#include "src/scenario/spec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_map>
#include <utility>

#include "src/dns/message.h"

namespace dcc {
namespace scenario {

HostAddress SpecNodeAddress(const ScenarioSpec& spec, size_t node_index) {
  (void)spec;
  return static_cast<HostAddress>(0x0a000001u + node_index);
}

HostAddress SpecClientAddress(const ScenarioSpec& spec, size_t client_index) {
  return static_cast<HostAddress>(0x0a000001u + spec.nodes.size() + client_index);
}

namespace {

// --- error plumbing ---------------------------------------------------------

struct Ctx {
  std::string* error = nullptr;
  bool ok = true;

  bool Fail(const std::string& path, const std::string& message) {
    if (ok && error != nullptr) {
      *error = path.empty() ? message : path + ": " + message;
    }
    ok = false;
    return false;
  }
};

std::string Sub(const std::string& path, const std::string& key) {
  return path.empty() ? key : path + "." + key;
}

std::string Idx(const std::string& path, size_t i) {
  return path + "[" + std::to_string(i) + "]";
}

// --- enum spellings ---------------------------------------------------------

template <class E>
struct EnumName {
  const char* name;
  E value;
};

constexpr EnumName<QueryPattern> kQueryPatterns[] = {
    {"wc", QueryPattern::kWc},
    {"nx", QueryPattern::kNx},
    {"cq", QueryPattern::kCq},
    {"ff", QueryPattern::kFf},
    {"nx_then_wc", QueryPattern::kNxThenWc},
};
constexpr EnumName<RateLimitAction> kRateLimitActions[] = {
    {"drop", RateLimitAction::kDrop},
    {"servfail", RateLimitAction::kServFail},
    {"refused", RateLimitAction::kRefused},
};
constexpr EnumName<PolicyType> kPolicyTypes[] = {
    {"none", PolicyType::kNone},
    {"ratelimit", PolicyType::kRateLimit},
    {"block", PolicyType::kBlock},
};
constexpr EnumName<NodeKind> kNodeKinds[] = {
    {"auth", NodeKind::kAuthoritative},
    {"resolver", NodeKind::kResolver},
    {"forwarder", NodeKind::kForwarder},
    {"frontend", NodeKind::kFrontend},
};
constexpr EnumName<ZoneKind> kZoneKinds[] = {
    {"target", ZoneKind::kTarget},
    {"attacker", ZoneKind::kAttacker},
};
constexpr EnumName<SteeringPolicy> kSteeringPolicies[] = {
    {"consistent_hash", SteeringPolicy::kConsistentHash},
    {"least_loaded", SteeringPolicy::kLeastLoaded},
    {"round_robin", SteeringPolicy::kRoundRobin},
};

template <class E, size_t N>
const char* NameOf(const EnumName<E> (&table)[N], E value) {
  for (const EnumName<E>& entry : table) {
    if (entry.value == value) {
      return entry.name;
    }
  }
  return table[0].name;
}

// A single-field range check, applied by ValidateScenarioSpec: the value must
// be > lo (open) or >= lo, and <= hi.
struct Bound {
  double lo = -std::numeric_limits<double>::infinity();
  bool open = false;
  double hi = std::numeric_limits<double>::infinity();
};

constexpr Bound Above(double lo) { return {lo, true}; }
constexpr Bound AtLeast(double lo) { return {lo, false}; }
constexpr Bound Within(double lo, double hi) { return {lo, false, hi}; }

// --- visitors ---------------------------------------------------------------
//
// A field list (VisitFields below) calls one method per JSON key on a visitor
// V. The kinds are Num (double), Int (any integer member), Secs (Duration as
// seconds), Bool, Str, Enum, StrList, Plan (fault-plan text, one array
// element per line), Obj (nested struct), List (array of structs) and Group
// (a nested object whose fields live in the enclosing struct). Two guards
// mark conditionally written keys: Opt(key, write) and Flag(key, present),
// which also sets `present` when reading. V::kReads is true only for the
// reader, the one visitor that may assign members.

// Shared by the visitors: a nested struct is a Group over its field list.
template <class Self>
class Visitor {
 public:
  template <class T>
  void Obj(const char* key, T& obj) {
    Self& self = static_cast<Self&>(*this);
    self.Group(key, [&] { VisitFields(self, obj); });
  }
};

// Reads JSON into a struct. Every key is optional (absent keeps the
// member's current value); a present key must have its kind's type and fit
// the member; and a key the field list does not visit is rejected, so typos
// surface instead of silently applying defaults.
class Reader : public Visitor<Reader> {
 public:
  static constexpr bool kReads = true;

  explicit Reader(Ctx& ctx) : ctx_(ctx) {}

  // Runs `fields` over `value` as an object at `path`, then rejects the
  // object's keys that no field visited.
  template <class Fn>
  void Descend(const json::Value& value, std::string path, Fn&& fields) {
    if (!value.is_object()) {
      ctx_.Fail(path, "expected an object");
      return;
    }
    const json::Value* outer = std::exchange(object_, &value);
    std::string outer_path = std::exchange(path_, std::move(path));
    const size_t first_seen = seen_.size();
    fields();
    for (const auto& [key, unused] : value.AsObject()) {
      (void)unused;
      if (std::none_of(seen_.begin() + static_cast<std::ptrdiff_t>(first_seen),
                       seen_.end(), [&](const char* seen) { return key == seen; })) {
        ctx_.Fail(Sub(path_, key), "unknown key");
        break;
      }
    }
    seen_.resize(first_seen);
    object_ = outer;
    path_ = std::move(outer_path);
  }

  bool Opt(const char* key, bool /*write*/) { return Has(key); }
  bool Flag(const char* key, bool& present) {
    present = Has(key);
    return present;
  }

  void Num(const char* key, double& out, Bound = {}) {
    if (const json::Value* v = Take(key); v != nullptr) {
      if (v->is_number() && std::isfinite(v->AsNumber())) {
        out = v->AsNumber();
      } else {
        Fail(key, "expected a finite number");
      }
    }
  }

  // Integral and within the member's type; 2^63 and 2^64 are exact doubles,
  // so `max + 1.0` is the exclusive upper bound for 64-bit types too.
  template <class T>
  void Int(const char* key, T& out, Bound = {}) {
    const json::Value* v = Take(key);
    if (v == nullptr) {
      return;
    }
    using Limits = std::numeric_limits<T>;
    const double n = v->is_number() ? v->AsNumber() : std::nan("");
    if (n >= static_cast<double>(Limits::min()) &&
        n < static_cast<double>(Limits::max()) + 1.0 && n == std::trunc(n)) {
      out = static_cast<T>(n);
    } else {
      Fail(key, "expected an integer in [" + std::to_string(Limits::min()) +
                    ", " + std::to_string(Limits::max()) + "]");
    }
  }

  // Seconds, finite and within int64 microseconds.
  void Secs(const char* key, Duration& out, Bound = {}) {
    const json::Value* v = Take(key);
    if (v == nullptr) {
      return;
    }
    const double us = v->is_number() ? v->AsNumber() * 1e6 : std::nan("");
    if (us >= -0x1p63 && us < 0x1p63) {
      out = static_cast<Duration>(std::llround(us));
    } else {
      Fail(key, "expected a duration in seconds that fits in int64 microseconds");
    }
  }

  void Bool(const char* key, bool& out) {
    if (const json::Value* v = Take(key); v != nullptr) {
      if (v->is_bool()) {
        out = v->AsBool();
      } else {
        Fail(key, "expected true or false");
      }
    }
  }

  void Str(const char* key, std::string& out) {
    if (const json::Value* v = Take(key); v != nullptr) {
      if (v->is_string()) {
        out = v->AsString();
      } else {
        Fail(key, "expected a string");
      }
    }
  }

  template <class E, size_t N>
  void Enum(const char* key, E& out, const EnumName<E> (&table)[N],
            bool required = false) {
    std::string text;
    if (Has(key)) {
      Str(key, text);
    } else if (!required) {
      return;
    }
    std::string names;
    for (const EnumName<E>& entry : table) {
      if (text == entry.name) {
        out = entry.value;
        return;
      }
      names += names.empty() ? entry.name : std::string("|") + entry.name;
    }
    Fail(key, "unknown value '" + text + "' (" + names + ")");
  }

  void StrList(const char* key, std::vector<std::string>& out) {
    const json::Value* list = TakeArray(key);
    if (list == nullptr) {
      return;
    }
    for (size_t i = 0; i < list->AsArray().size(); ++i) {
      const json::Value& item = list->AsArray()[i];
      if (!item.is_string()) {
        ctx_.Fail(Idx(Sub(path_, key), i), "expected a string");
        return;
      }
      out.push_back(item.AsString());
    }
  }

  void Plan(const char* key, fault::FaultPlan& plan) {
    const json::Value* lines = TakeArray(key);
    if (lines == nullptr) {
      return;
    }
    std::string text;
    for (size_t i = 0; i < lines->AsArray().size(); ++i) {
      const json::Value& line = lines->AsArray()[i];
      if (!line.is_string()) {
        ctx_.Fail(Idx(Sub(path_, key), i), "expected a string (one plan line)");
        return;
      }
      text += line.AsString();
      text += '\n';
    }
    std::string plan_error;
    if (!fault::ParseFaultPlan(text, &plan, &plan_error)) {
      Fail(key, plan_error);
    }
  }

  template <class Fn>
  void Group(const char* key, Fn&& fields) {
    if (const json::Value* v = Take(key); v != nullptr) {
      Descend(*v, Sub(path_, key), fields);
    }
  }

  template <class T>
  void List(const char* key, std::vector<T>& out) {
    const json::Value* list = TakeArray(key);
    if (list == nullptr) {
      return;
    }
    const std::string path = Sub(path_, key);
    for (size_t i = 0; i < list->AsArray().size(); ++i) {
      T item;
      Descend(list->AsArray()[i], Idx(path, i), [&] { VisitFields(*this, item); });
      out.push_back(std::move(item));
    }
  }

 private:
  bool Has(const char* key) const { return object_->Find(key) != nullptr; }

  // Looks `key` up and marks it as a declared key of the current object.
  const json::Value* Take(const char* key) {
    seen_.push_back(key);
    return object_->Find(key);
  }

  const json::Value* TakeArray(const char* key) {
    const json::Value* v = Take(key);
    if (v != nullptr && !v->is_array()) {
      Fail(key, "expected an array");
      return nullptr;
    }
    return v;
  }

  void Fail(const char* key, const std::string& message) {
    ctx_.Fail(Sub(path_, key), message);
  }

  Ctx& ctx_;
  const json::Value* object_ = nullptr;
  std::string path_;
  // Keys visited so far, innermost object last (one stack for all depths).
  std::vector<const char*> seen_;
};

// Writes a struct as JSON. The writer never assigns through the mutable
// references the field lists hand it.
class Writer : public Visitor<Writer> {
 public:
  static constexpr bool kReads = false;

  bool Opt(const char*, bool write) { return write; }
  bool Flag(const char*, bool& present) { return present; }

  void Num(const char* key, double& value, Bound = {}) {
    out_->Set(key, json::Value::OfNumber(value));
  }
  template <class T>
  void Int(const char* key, T& value, Bound = {}) {
    out_->Set(key, json::Value::OfNumber(static_cast<double>(value)));
  }
  void Secs(const char* key, Duration& value, Bound = {}) {
    out_->Set(key, json::Value::OfNumber(ToSeconds(value)));
  }
  void Bool(const char* key, bool& value) {
    out_->Set(key, json::Value::OfBool(value));
  }
  void Str(const char* key, std::string& value) {
    out_->Set(key, json::Value::OfString(value));
  }
  template <class E, size_t N>
  void Enum(const char* key, E& value, const EnumName<E> (&table)[N], bool = false) {
    out_->Set(key, json::Value::OfString(NameOf(table, value)));
  }

  void StrList(const char* key, std::vector<std::string>& values) {
    json::Value list = json::Value::MakeArray();
    for (const std::string& value : values) {
      list.PushBack(json::Value::OfString(value));
    }
    out_->Set(key, std::move(list));
  }

  void Plan(const char* key, fault::FaultPlan& plan) {
    json::Value lines = json::Value::MakeArray();
    std::string line;
    for (const char c : fault::FormatFaultPlan(plan)) {
      if (c == '\n') {
        lines.PushBack(json::Value::OfString(std::exchange(line, {})));
      } else {
        line.push_back(c);
      }
    }
    if (!line.empty()) {
      lines.PushBack(json::Value::OfString(line));
    }
    out_->Set(key, std::move(lines));
  }

  template <class Fn>
  void Group(const char* key, Fn&& fields) {
    out_->Set(key, Build(fields));
  }

  template <class T>
  void List(const char* key, std::vector<T>& items) {
    json::Value list = json::Value::MakeArray();
    for (T& item : items) {
      list.PushBack(Build([&] { VisitFields(*this, item); }));
    }
    out_->Set(key, std::move(list));
  }

  // Runs `fields` into a fresh object and returns it.
  template <class Fn>
  json::Value Build(Fn&& fields) {
    json::Value object = json::Value::MakeObject();
    json::Value* outer = std::exchange(out_, &object);
    fields();
    out_ = outer;
    return object;
  }

 private:
  json::Value* out_ = nullptr;
};

// Applies the fields' Bounds: ValidateScenarioSpec's single-field range
// checks. Conditionally written keys are checked whether written or not.
class Checker : public Visitor<Checker> {
 public:
  static constexpr bool kReads = false;

  explicit Checker(Ctx& ctx) : ctx_(ctx) {}

  bool Opt(const char*, bool) { return true; }
  bool Flag(const char*, bool&) { return true; }

  void Num(const char* key, double& value, Bound bound = {}) {
    Check(key, value, bound);
  }
  template <class T>
  void Int(const char* key, T& value, Bound bound = {}) {
    Check(key, static_cast<double>(value), bound);
  }
  void Secs(const char* key, Duration& value, Bound bound = {}) {
    Check(key, static_cast<double>(value), bound);
  }
  void Bool(const char*, bool&) {}
  void Str(const char*, std::string&) {}
  template <class E, size_t N>
  void Enum(const char*, E&, const EnumName<E> (&)[N], bool = false) {}
  void StrList(const char*, std::vector<std::string>&) {}
  void Plan(const char*, fault::FaultPlan&) {}

  template <class Fn>
  void Group(const char* key, Fn&& fields) {
    At(Sub(path_, key), fields);
  }

  template <class T>
  void List(const char* key, std::vector<T>& items) {
    const std::string path = Sub(path_, key);
    for (size_t i = 0; i < items.size(); ++i) {
      At(Idx(path, i), [&] { VisitFields(*this, items[i]); });
    }
  }

 private:
  template <class Fn>
  void At(std::string path, Fn&& fields) {
    std::string outer = std::exchange(path_, std::move(path));
    fields();
    path_ = std::move(outer);
  }

  void Check(const char* key, double value, Bound bound) {
    if (!(bound.open ? value <= bound.lo : value < bound.lo) && !(value > bound.hi)) {
      return;
    }
    char text[64];
    if (bound.hi < std::numeric_limits<double>::infinity()) {
      std::snprintf(text, sizeof(text), "must be in [%g, %g]", bound.lo, bound.hi);
    } else {
      std::snprintf(text, sizeof(text), "must be %s %g", bound.open ? ">" : ">=",
                    bound.lo);
    }
    ctx_.Fail(Sub(path_, key), text);
  }

  Ctx& ctx_;
  std::string path_;
};

// --- field lists ------------------------------------------------------------
//
// Each spec struct's JSON keys, declared once: one line per key names its
// kind, the member it maps to and, where it has one, the range
// ValidateScenarioSpec enforces. These lists alone drive parsing, writing,
// unknown-key rejection and the range checks; a new field is one added line.

template <class V>
void VisitFields(V& v, ResponseRateLimitConfig& c) {
  v.Bool("enabled", c.enabled);
  v.Num("noerror_qps", c.noerror_qps);
  v.Num("nxdomain_qps", c.nxdomain_qps);
  v.Num("burst", c.burst);
  v.Enum("action", c.action, kRateLimitActions);
  v.Bool("per_class", c.per_class);
  v.Secs("penalty", c.penalty);
}

template <class V>
void VisitFields(V& v, AuthoritativeConfig& c) {
  v.Obj("rrl", c.rrl);
  v.Secs("processing_delay", c.processing_delay);
}

template <class V>
void VisitFields(V& v, ResolverConfig& c) {
  v.Secs("upstream_timeout", c.upstream_timeout);
  v.Int("upstream_retries", c.upstream_retries);
  v.Secs("request_deadline", c.request_deadline);
  v.Int("max_fetches_per_request", c.max_fetches_per_request);
  v.Bool("qname_minimization", c.qname_minimization);
  v.Bool("aggressive_nsec", c.aggressive_nsec);
  v.Bool("attach_attribution", c.attach_attribution);
  v.Obj("ingress_rrl", c.ingress_rrl);
  v.Bool("egress_rl_enabled", c.egress_rl_enabled);
  v.Num("egress_qps", c.egress_qps);
  v.Num("egress_burst", c.egress_burst);
  v.Bool("adaptive_retry", c.adaptive_retry);
  v.Bool("serve_stale", c.serve_stale);
  v.Secs("max_stale", c.max_stale);
  v.Int("stale_answer_ttl", c.stale_answer_ttl);
}

template <class V>
void VisitFields(V& v, ForwarderConfig& c) {
  v.Secs("upstream_timeout", c.upstream_timeout);
  v.Int("upstream_attempts", c.upstream_attempts);
  v.Bool("cache_enabled", c.cache_enabled);
  v.Bool("attach_attribution", c.attach_attribution);
  v.Bool("adaptive_retry", c.adaptive_retry);
  v.Bool("serve_stale", c.serve_stale);
  v.Secs("max_stale", c.max_stale);
  v.Int("stale_answer_ttl", c.stale_answer_ttl);
}

template <class V>
void VisitFields(V& v, FrontendConfig& c) {
  v.Enum("steering", c.steering, kSteeringPolicies);
  v.Secs("processing_delay", c.processing_delay);
  v.Int("max_attempts", c.max_attempts, AtLeast(1));
  v.Secs("query_timeout", c.query_timeout);
  v.Num("retry_backoff_factor", c.retry_backoff_factor);
  v.Secs("retry_backoff_max", c.retry_backoff_max);
  v.Num("retry_jitter", c.retry_jitter);
  v.Bool("health_checks", c.health_checks);
  v.Secs("probe_interval", c.probe_interval);
  v.Str("probe_name", c.probe_name);
  v.Secs("probe_timeout", c.probe_timeout);
  v.Num("resteer_budget_qps", c.resteer_budget_qps);
  v.Num("resteer_budget_burst", c.resteer_budget_burst);
  v.Secs("rotation_period", c.rotation_period, AtLeast(0));
  v.Int("rotation_active", c.rotation_active);
  v.Bool("attach_attribution", c.attach_attribution);
  v.Int("holddown_after", c.upstream.holddown_after);
  v.Secs("holddown_initial", c.upstream.holddown_initial);
  v.Secs("holddown_max", c.upstream.holddown_max);
  v.Secs("min_rto", c.upstream.min_rto);
}

template <class V>
void VisitFields(V& v, MopiFqConfig& c) {
  v.Int("pool_capacity", c.pool_capacity);
  v.Int("max_poq_depth", c.max_poq_depth);
  v.Int("max_rounds", c.max_rounds);
  v.Num("default_channel_qps", c.default_channel_qps);
  v.Num("channel_burst", c.channel_burst);
}

template <class V>
void VisitFields(V& v, AnomalyConfig& c) {
  v.Secs("window", c.window);
  v.Int("window_buckets", c.window_buckets);
  v.Num("nx_ratio_threshold", c.nx_ratio_threshold);
  v.Int("nx_min_responses", c.nx_min_responses);
  v.Num("amplification_threshold", c.amplification_threshold);
  v.Int("amp_min_requests", c.amp_min_requests);
  v.Int("alarms_to_convict", c.alarms_to_convict);
  v.Secs("suspicion_period", c.suspicion_period);
}

template <class V>
void VisitFields(V& v, CapacityEstimatorConfig& c) {
  v.Bool("enabled", c.enabled);
  v.Num("initial_qps", c.initial_qps);
  v.Num("min_qps", c.min_qps);
  v.Num("max_qps", c.max_qps);
  v.Num("loss_threshold", c.loss_threshold);
  v.Num("decrease_factor", c.decrease_factor);
  v.Num("increase_qps", c.increase_qps);
  v.Num("utilization_threshold", c.utilization_threshold);
  v.Int("min_samples", c.min_samples);
  v.Secs("window", c.window);
}

template <class V>
void VisitFields(V& v, DccConfig& c) {
  v.Obj("scheduler", c.scheduler);
  v.Obj("anomaly", c.anomaly);
  v.Obj("capacity", c.capacity);
  v.Bool("signaling_enabled", c.signaling_enabled);
  v.Int("countdown_police_threshold", c.countdown_police_threshold);
  v.Int("countdown_relay_decrement", c.countdown_relay_decrement);
  v.Num("nx_policy_qps", c.nx_policy_qps);
  v.Secs("nx_policy_duration", c.nx_policy_duration);
  v.Secs("amp_policy_duration", c.amp_policy_duration);
  v.Enum("signal_policy", c.signal_policy, kPolicyTypes);
  v.Secs("signal_policy_duration", c.signal_policy_duration);
  v.Bool("emit_extended_errors", c.emit_extended_errors);
  v.Int("client_prefix_bits", c.client_prefix_bits);
  v.Secs("purge_interval", c.purge_interval);
  v.Secs("state_idle_timeout", c.state_idle_timeout);
  v.Secs("pending_query_ttl", c.pending_query_ttl);
}

template <class V>
void VisitFields(V& v, ZoneSpec& z) {
  v.Str("id", z.id);
  v.Enum("kind", z.kind, kZoneKinds);
  v.Str("apex", z.apex);
  if (z.kind == ZoneKind::kTarget) {
    v.Int("ttl", z.target.ttl);
    v.Int("cq_instances", z.target.cq_instances);
    v.Int("cq_chain_length", z.target.cq_chain_length);
    v.Int("cq_labels", z.target.cq_labels);
    return;
  }
  if constexpr (V::kReads) {
    z.attacker.instances = 0;  // Absent: derived by ValidateScenarioSpec.
  }
  v.Int("ttl", z.attacker.ttl);
  v.Str("target_zone", z.target_zone);
  v.Int("instances", z.attacker.instances);
  v.Int("fanout_a", z.attacker.fanout_a);
  v.Int("fanout_t", z.attacker.fanout_t);
}

template <class V>
void VisitFields(V& v, AuthorityHintSpec& h) {
  v.Str("zone", h.zone);
  v.Str("node", h.node);
}

template <class V>
void VisitFields(V& v, ChannelSpec& c) {
  v.Str("node", c.node);
  v.Num("qps", c.qps, Above(0));
}

template <class V>
void VisitFields(V& v, FleetMemberTemplateSpec& t) {
  v.Obj("resolver", t.resolver);
  v.List("hints", t.hints);
}

// Caps the members one `replicate` stamps out, so a hostile spec cannot make
// validation allocate without bound.
constexpr int kMaxReplicate = 1024;

// The kind selects which config block and lists a node carries; only
// resolvers and forwarders take a DCC shim.
template <class V>
void VisitFields(V& v, NodeSpec& n) {
  v.Str("id", n.id);
  v.Enum("kind", n.kind, kNodeKinds, /*required=*/true);
  switch (n.kind) {
    case NodeKind::kAuthoritative:
      v.StrList("zones", n.zones);
      v.Obj("auth", n.auth);
      return;
    case NodeKind::kResolver:
      v.Obj("resolver", n.resolver);
      v.List("hints", n.hints);
      break;
    case NodeKind::kForwarder:
      v.Obj("forwarder", n.forwarder);
      v.StrList("upstreams", n.upstreams);
      break;
    case NodeKind::kFrontend:
      v.Obj("frontend", n.frontend);
      v.StrList("members", n.members);
      if (v.Opt("replicate", n.replicate > 0)) {
        v.Int("replicate", n.replicate, Within(0, kMaxReplicate));
      }
      if (v.Flag("member_template", n.has_member_template)) {
        v.Obj("member_template", n.member_template);
      }
      return;
  }
  if (v.Flag("dcc", n.dcc_enabled)) {
    v.Obj("dcc", n.dcc);
  }
  if (v.Opt("channels", n.dcc_enabled)) {
    v.List("channels", n.channels);
  }
}

template <class V>
void VisitFields(V& v, ClientSpec& c) {
  v.Str("label", c.label);
  v.Num("qps", c.qps, Above(0));
  v.Secs("start", c.start);
  v.Secs("stop", c.stop);
  v.Secs("timeout", c.timeout);
  v.Int("retries", c.retries);
  v.Bool("dcc_aware", c.dcc_aware);
  v.Bool("rotate_resolvers", c.rotate_resolvers);
  v.Bool("attacker", c.is_attacker);
  v.Enum("pattern", c.pattern, kQueryPatterns);
  v.Str("zone", c.zone);
  v.StrList("resolvers", c.resolvers);
  // Absent seed: derived by ValidateScenarioSpec. The others are written
  // only when they do something.
  if (v.Flag("seed", c.has_seed)) {
    v.Int("seed", c.seed);
  }
  if (v.Opt("unique_names", c.unique_names != 0)) {
    v.Int("unique_names", c.unique_names);
  }
  if (v.Opt("nx_then_wc_switch", c.pattern == QueryPattern::kNxThenWc)) {
    v.Secs("nx_then_wc_switch", c.nx_then_wc_switch);
  }
  if (v.Opt("ramp_to_qps", c.ramp_to_qps > 0)) {
    v.Num("ramp_to_qps", c.ramp_to_qps, AtLeast(0));
  }
}

template <class V>
void VisitFields(V& v, PairDelaySpec& d) {
  v.Str("a", d.a);
  v.Str("b", d.b);
  v.Secs("one_way", d.one_way, Above(0));
}

template <class V>
void VisitFields(V& v, NetworkSpec& n) {
  v.Secs("jitter", n.jitter, AtLeast(0));
  v.Int("jitter_seed", n.jitter_seed);
  v.Num("loss_probability", n.loss_probability, Within(0, 1));
  v.Int("loss_seed", n.loss_seed);
  if (v.Opt("pair_delays", !n.pair_delays.empty())) {
    v.List("pair_delays", n.pair_delays);
  }
}

template <class V>
void VisitFields(V& v, AnsProbeSpec& a) {
  v.Str("node", a.node);
  v.Str("label", a.label);
}

template <class V>
void VisitFields(V& v, MeasureSpec& m) {
  v.Bool("client_series", m.client_series);
  v.List("ans", m.ans);
  v.StrList("resolver_series", m.resolver_series);
  v.StrList("trackers", m.trackers);
}

template <class V>
void VisitFields(V& v, FaultSpec& f) {
  v.Plan("plan", f.plan);
  v.Bool("arm_before_sampling", f.arm_before_sampling);
}

template <class V>
void VisitFields(V& v, ScenarioSpec& s) {
  v.Str("name", s.name);
  if (v.Opt("provenance", !s.provenance.empty())) {
    v.StrList("provenance", s.provenance);
  }
  v.Group("run", [&] {
    v.Secs("horizon", s.horizon, Above(0));
    v.Int("seed", s.seed);
  });
  v.Obj("network", s.network);
  v.List("zones", s.zones);
  v.List("nodes", s.nodes);
  v.List("clients", s.clients);
  if (v.Opt("faults", !s.faults.plan.empty())) {
    v.Obj("faults", s.faults);
  }
  v.Obj("measure", s.measure);
}

}  // namespace

// --- top-level parse / write ------------------------------------------------

namespace {

bool ReadScenarioSpec(const json::Value& root, ScenarioSpec* spec,
                      std::string* error) {
  *spec = ScenarioSpec();
  Ctx ctx;
  ctx.error = error;
  Reader reader(ctx);
  reader.Descend(root, "", [&] { VisitFields(reader, *spec); });
  return ctx.ok;
}

}  // namespace

bool ParseScenarioSpec(std::string_view json_text, ScenarioSpec* spec,
                       std::string* error) {
  json::Value root;
  return json::Parse(json_text, &root, error) &&
         ReadScenarioSpec(root, spec, error);
}

bool SetSpecField(json::Value* document, std::string_view assignment,
                  std::string* error) {
  Ctx ctx;
  ctx.error = error;
  const size_t eq = assignment.find('=');
  const std::string path(assignment.substr(0, eq == std::string_view::npos ? 0 : eq));
  const std::string malformed =
      "expected PATH=VALUE, got '" + std::string(assignment) + "'";
  if (path.empty()) {
    return ctx.Fail("", malformed);
  }
  json::Value* node = document;
  json::Value* parent = nullptr;  // Object holding `node` under `key`.
  std::string key;
  std::string walked;
  size_t pos = 0;
  while (pos < path.size()) {
    if (path[pos] == '[') {
      const size_t close = path.find(']', pos);
      const size_t digits = close == std::string::npos ? 0 : close - pos - 1;
      if (walked.empty() || digits == 0 || digits > 9 ||
          path.find_first_not_of("0123456789", pos + 1) != close) {
        return ctx.Fail("", malformed);
      }
      const size_t index = std::stoul(path.substr(pos + 1, digits));
      if (!node->is_array()) {
        return ctx.Fail(walked, "not an array");
      }
      if (index >= node->AsArray().size()) {
        return ctx.Fail(Idx(walked, index),
                        "index out of range (" +
                            std::to_string(node->AsArray().size()) + " elements)");
      }
      parent = nullptr;
      node = node->Element(index);
      walked = Idx(walked, index);
      pos = close + 1;
      continue;
    }
    if (!walked.empty()) {
      if (path[pos] != '.') {
        return ctx.Fail("", malformed);
      }
      ++pos;
    }
    const size_t end = std::min(path.find_first_of(".[", pos), path.size());
    if (end == pos) {
      return ctx.Fail("", malformed);
    }
    key = path.substr(pos, end - pos);
    json::Value* member = node->Member(key);
    if (member == nullptr) {
      return ctx.Fail(walked, "not an object");
    }
    parent = node;
    node = member;
    walked = Sub(walked, key);
    pos = end;
  }
  const std::string_view text = assignment.substr(eq + 1);
  json::Value value;
  if (node->is_string() || !json::Parse(text, &value)) {
    value = json::Value::OfString(std::string(text));
  }
  if (value.is_null() && parent != nullptr) {
    parent->Remove(key);
  } else {
    *node = std::move(value);
  }
  return true;
}

bool LoadScenarioSpecFile(const std::string& path, ScenarioSpec* spec,
                          std::string* error,
                          const std::vector<std::string>& overrides) {
  std::string text;
  std::FILE* f = path == "-" ? stdin : std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    text.append(buffer, n);
  }
  if (f != stdin) {
    std::fclose(f);
  }
  json::Value root;
  bool ok = json::Parse(text, &root, error);
  for (const std::string& assignment : overrides) {
    ok = ok && SetSpecField(&root, assignment, error);
  }
  if (!(ok && ReadScenarioSpec(root, spec, error))) {
    if (error != nullptr) {
      *error = path + ": " + *error;
    }
    return false;
  }
  return true;
}

// --- validation / materialization --------------------------------------------


bool ValidateScenarioSpec(ScenarioSpec* spec, std::string* error) {
  Ctx ctx;
  ctx.error = error;

  Checker ranges(ctx);
  VisitFields(ranges, *spec);
  if (!ctx.ok) {
    return false;
  }
  if (spec->network.jitter_seed == 0) {
    spec->network.jitter_seed = spec->seed * 13 + 1;
  }

  std::unordered_map<std::string, const ZoneSpec*> zones;
  for (size_t i = 0; i < spec->zones.size(); ++i) {
    ZoneSpec& zone = spec->zones[i];
    const std::string path = Idx("zones", i);
    if (zone.id.empty()) {
      return ctx.Fail(Sub(path, "id"), "required");
    }
    if (!zones.emplace(zone.id, &zone).second) {
      return ctx.Fail(Sub(path, "id"), "duplicate zone id '" + zone.id + "'");
    }
    if (!Name::Parse(zone.apex).has_value()) {
      return ctx.Fail(Sub(path, "apex"), "not a valid DNS name: '" + zone.apex + "'");
    }
  }
  for (size_t i = 0; i < spec->zones.size(); ++i) {
    ZoneSpec& zone = spec->zones[i];
    if (zone.kind != ZoneKind::kAttacker) {
      continue;
    }
    const std::string path = Idx("zones", i);
    auto it = zones.find(zone.target_zone);
    if (it == zones.end() || it->second->kind != ZoneKind::kTarget) {
      return ctx.Fail(Sub(path, "target_zone"),
                      "must reference a target-kind zone (got '" +
                          zone.target_zone + "')");
    }
    if (zone.attacker.instances <= 0) {
      // The default sizing: enough distinct instances that every FF request
      // misses the cache over the whole run.
      double ff_qps = 0;
      for (const ClientSpec& client : spec->clients) {
        if (client.pattern == QueryPattern::kFf && client.zone == zone.id) {
          ff_qps = std::max(ff_qps, client.qps);
        }
      }
      const double ff_queries = ff_qps * ToSeconds(spec->horizon);
      if (!(ff_queries < std::numeric_limits<int>::max() - 8)) {
        return ctx.Fail(Sub(path, "instances"),
                        "FF QPS x horizon + 8 does not fit in an int; set it");
      }
      zone.attacker.instances = ff_qps > 0 ? static_cast<int>(ff_queries) + 8
                                           : AttackerZoneOptions().instances;
    }
  }

  // Materialize replicate-stamped fleet members before any id or address
  // bookkeeping. Generated member nodes are inserted immediately after their
  // frontend in `nodes` — the vector order IS the address assignment, so
  // member addresses are a pure function of spec order, never of map
  // iteration order. Zeroing `replicate` afterwards keeps validation
  // idempotent (the appended member ids make re-expansion a no-op).
  for (size_t i = 0; i < spec->nodes.size(); ++i) {
    if (spec->nodes[i].kind != NodeKind::kFrontend ||
        spec->nodes[i].replicate == 0) {
      continue;
    }
    const std::string path = Idx("nodes", i);
    NodeSpec& node = spec->nodes[i];
    if (!node.has_member_template) {
      return ctx.Fail(Sub(path, "member_template"),
                      "required when replicate > 0");
    }
    const int replicate = node.replicate;
    std::vector<NodeSpec> generated;
    generated.reserve(static_cast<size_t>(replicate));
    for (int k = 0; k < replicate; ++k) {
      NodeSpec member;
      member.id = node.id + "-r" + std::to_string(k + 1);
      member.kind = NodeKind::kResolver;
      member.resolver = node.member_template.resolver;
      member.hints = node.member_template.hints;
      node.members.push_back(member.id);
      generated.push_back(std::move(member));
    }
    node.replicate = 0;
    // `node` is dead after this insert (possible reallocation).
    spec->nodes.insert(spec->nodes.begin() + static_cast<ptrdiff_t>(i) + 1,
                       std::make_move_iterator(generated.begin()),
                       std::make_move_iterator(generated.end()));
    i += static_cast<size_t>(replicate);
  }

  std::unordered_map<std::string, const NodeSpec*> nodes;
  for (size_t i = 0; i < spec->nodes.size(); ++i) {
    NodeSpec& node = spec->nodes[i];
    const std::string path = Idx("nodes", i);
    if (node.id.empty()) {
      return ctx.Fail(Sub(path, "id"), "required");
    }
    if (!nodes.emplace(node.id, &node).second) {
      return ctx.Fail(Sub(path, "id"), "duplicate node id '" + node.id + "'");
    }
    if (node.dcc_enabled && node.kind == NodeKind::kAuthoritative) {
      return ctx.Fail(Sub(path, "dcc"),
                      "DCC shims wrap resolvers and forwarders, not "
                      "authoritatives");
    }
  }
  // Reference checks (second pass: upstreams may point forward).
  for (size_t i = 0; i < spec->nodes.size(); ++i) {
    NodeSpec& node = spec->nodes[i];
    const std::string path = Idx("nodes", i);
    for (size_t z = 0; z < node.zones.size(); ++z) {
      if (zones.find(node.zones[z]) == zones.end()) {
        return ctx.Fail(Idx(Sub(path, "zones"), z),
                        "unknown zone '" + node.zones[z] + "'");
      }
    }
    for (size_t h = 0; h < node.hints.size(); ++h) {
      const AuthorityHintSpec& hint = node.hints[h];
      const std::string hint_path = Idx(Sub(path, "hints"), h);
      if (zones.find(hint.zone) == zones.end()) {
        return ctx.Fail(Sub(hint_path, "zone"), "unknown zone '" + hint.zone + "'");
      }
      auto it = nodes.find(hint.node);
      if (it == nodes.end() || it->second->kind != NodeKind::kAuthoritative) {
        return ctx.Fail(Sub(hint_path, "node"),
                        "must reference an auth node (got '" + hint.node + "')");
      }
    }
    for (size_t u = 0; u < node.upstreams.size(); ++u) {
      auto it = nodes.find(node.upstreams[u]);
      if (it == nodes.end() || it->second->kind == NodeKind::kAuthoritative) {
        return ctx.Fail(Idx(Sub(path, "upstreams"), u),
                        "must reference a resolver or forwarder node (got '" +
                            node.upstreams[u] + "')");
      }
    }
    for (size_t c = 0; c < node.channels.size(); ++c) {
      if (nodes.find(node.channels[c].node) == nodes.end()) {
        return ctx.Fail(Idx(Sub(path, "channels"), c),
                        "unknown node '" + node.channels[c].node + "'");
      }
    }
    if (node.kind == NodeKind::kForwarder && node.upstreams.empty()) {
      return ctx.Fail(Sub(path, "upstreams"), "a forwarder needs at least one upstream");
    }
    if (node.kind == NodeKind::kFrontend) {
      if (node.members.empty()) {
        return ctx.Fail(Sub(path, "members"),
                        "a frontend needs at least one fleet member");
      }
      for (size_t m = 0; m < node.members.size(); ++m) {
        auto it = nodes.find(node.members[m]);
        if (it == nodes.end() || (it->second->kind != NodeKind::kResolver &&
                                  it->second->kind != NodeKind::kForwarder)) {
          return ctx.Fail(Idx(Sub(path, "members"), m),
                          "must reference a resolver or forwarder node (got '" +
                              node.members[m] + "')");
        }
      }
      const std::string fpath = Sub(path, "frontend");
      FrontendConfig& fc = node.frontend;
      if (fc.health_checks && fc.probe_interval <= 0) {
        return ctx.Fail(Sub(fpath, "probe_interval"),
                        "must be > 0 when health_checks is on");
      }
      if (fc.rotation_active < 0 ||
          static_cast<size_t>(fc.rotation_active) > node.members.size()) {
        return ctx.Fail(Sub(fpath, "rotation_active"),
                        "must be in [0, member count]");
      }
      if (fc.probe_name.empty()) {
        // Default probe target: the in-bailiwick "ans.<apex>" A record every
        // target zone carries (cheap, cacheable at the member).
        for (const ZoneSpec& zone : spec->zones) {
          if (zone.kind == ZoneKind::kTarget) {
            fc.probe_name = "ans." + zone.apex;
            break;
          }
        }
      }
      if (fc.health_checks && !Name::Parse(fc.probe_name).has_value()) {
        return ctx.Fail(Sub(fpath, "probe_name"),
                        "not a valid DNS name: '" + fc.probe_name + "'");
      }
    }
  }

  std::unordered_map<std::string, size_t> client_labels;
  for (size_t i = 0; i < spec->clients.size(); ++i) {
    ClientSpec& client = spec->clients[i];
    const std::string path = Idx("clients", i);
    if (client.stop < 0) {
      client.stop = spec->horizon;
    }
    // stop <= start is allowed (the client simply never sends); callers
    // truncate schedules that way when shortening the horizon.
    if (!client.has_seed) {
      client.seed = spec->seed * 101 + i;
      client.has_seed = true;
    }
    if (client.resolvers.empty()) {
      return ctx.Fail(Sub(path, "resolvers"), "a client needs at least one entry point");
    }
    for (size_t e = 0; e < client.resolvers.size(); ++e) {
      auto it = nodes.find(client.resolvers[e]);
      if (it == nodes.end() || it->second->kind == NodeKind::kAuthoritative) {
        return ctx.Fail(Idx(Sub(path, "resolvers"), e),
                        "must reference a resolver, forwarder or frontend "
                        "node (got '" + client.resolvers[e] + "')");
      }
    }
    auto zone_it = zones.find(client.zone);
    if (zone_it == zones.end()) {
      return ctx.Fail(Sub(path, "zone"), "unknown zone '" + client.zone + "'");
    }
    const ZoneKind want = client.pattern == QueryPattern::kFf
                              ? ZoneKind::kAttacker
                              : ZoneKind::kTarget;
    if (zone_it->second->kind != want) {
      return ctx.Fail(Sub(path, "zone"),
                      std::string("pattern '") + NameOf(kQueryPatterns, client.pattern) +
                          (want == ZoneKind::kAttacker
                               ? "' needs an attacker-kind zone"
                               : "' needs a target-kind zone"));
    }
    if (client.pattern == QueryPattern::kCq &&
        zone_it->second->target.cq_instances <= 0) {
      return ctx.Fail(Sub(path, "zone"),
                      "cq pattern needs a zone with cq_instances > 0");
    }
    if (!client.label.empty()) {
      client_labels.emplace(client.label, i);
    }
  }

  auto endpoint_known = [&](const std::string& id) {
    return nodes.find(id) != nodes.end() ||
           client_labels.find(id) != client_labels.end();
  };
  for (size_t i = 0; i < spec->network.pair_delays.size(); ++i) {
    PairDelaySpec& delay = spec->network.pair_delays[i];
    const std::string path = Idx("network.pair_delays", i);
    if (!endpoint_known(delay.a)) {
      return ctx.Fail(Sub(path, "a"), "unknown node or client label '" + delay.a + "'");
    }
    if (!endpoint_known(delay.b)) {
      return ctx.Fail(Sub(path, "b"), "unknown node or client label '" + delay.b + "'");
    }
  }

  for (size_t i = 0; i < spec->measure.ans.size(); ++i) {
    AnsProbeSpec& probe = spec->measure.ans[i];
    const std::string path = Idx("measure.ans", i);
    auto it = nodes.find(probe.node);
    if (it == nodes.end() || it->second->kind != NodeKind::kAuthoritative) {
      return ctx.Fail(Sub(path, "node"),
                      "must reference an auth node (got '" + probe.node + "')");
    }
    if (probe.label.empty()) {
      probe.label = probe.node;
    }
  }
  for (size_t i = 0; i < spec->measure.resolver_series.size(); ++i) {
    auto it = nodes.find(spec->measure.resolver_series[i]);
    if (it == nodes.end() || it->second->kind != NodeKind::kResolver) {
      return ctx.Fail(Idx("measure.resolver_series", i),
                      "must reference a resolver node (got '" +
                          spec->measure.resolver_series[i] + "')");
    }
  }
  for (size_t i = 0; i < spec->measure.trackers.size(); ++i) {
    auto it = nodes.find(spec->measure.trackers[i]);
    if (it == nodes.end() || it->second->kind == NodeKind::kAuthoritative) {
      return ctx.Fail(Idx("measure.trackers", i),
                      "must reference a resolver, forwarder or frontend node "
                      "(got '" + spec->measure.trackers[i] + "')");
    }
  }
  return true;
}

// --- serialization -----------------------------------------------------------

json::Value ScenarioSpecToJson(const ScenarioSpec& spec) {
  Writer writer;
  // The writer only reads through the mutable reference.
  return writer.Build([&] { VisitFields(writer, const_cast<ScenarioSpec&>(spec)); });
}

std::string WriteScenarioSpec(const ScenarioSpec& spec, int indent) {
  return json::Write(ScenarioSpecToJson(spec), indent) + "\n";
}

}  // namespace scenario
}  // namespace dcc
