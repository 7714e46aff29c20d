// Tests for the scoped hot-path profiler (src/telemetry/profiler.h):
// nesting/self-time attribution, recursion, folded-stack structure,
// thread-local isolation, event-loop category stats with deterministic
// virtual lag, copy counters — and the load-bearing guarantee that
// profiling never perturbs the simulation (byte-identical outcomes and
// event counts with profiling on or off).

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/dns/codec.h"
#include "src/dns/message.h"
#include "src/scenario/engine.h"
#include "src/scenario/outcome_json.h"
#include "src/scenario/scenarios.h"
#include "src/sim/event_loop.h"
#include "src/telemetry/profiler.h"

namespace dcc {
namespace {

// Spins for roughly `us` microseconds of host wall time so self/total
// ordering assertions have real durations to bite on.
void Burn(int us) {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start <
         std::chrono::microseconds(us)) {
  }
}

const prof::SiteReport* FindSite(const prof::ProfileReport& report,
                                 const std::string& name) {
  for (const prof::SiteReport& site : report.sites) {
    if (site.name == name) {
      return &site;
    }
  }
  return nullptr;
}

const prof::PathReport* FindPath(const prof::ProfileReport& report,
                                 const std::vector<std::string>& stack) {
  for (const prof::PathReport& path : report.folded) {
    if (path.stack == stack) {
      return &path;
    }
  }
  return nullptr;
}

void Inner() {
  DCC_PROF_SCOPE("test.inner");
  Burn(200);
}

void Outer() {
  DCC_PROF_SCOPE("test.outer");
  Burn(200);
  Inner();
  Inner();
}

TEST(ProfilerTest, NestingAttributesSelfAndTotal) {
  prof::Reset();
  prof::Enable();
  Outer();
  prof::Disable();
  const prof::ProfileReport report = prof::Snapshot();

  const prof::SiteReport* outer = FindSite(report, "test.outer");
  const prof::SiteReport* inner = FindSite(report, "test.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->calls, 1u);
  EXPECT_EQ(inner->calls, 2u);
  // Outer's total includes both inner calls; its self excludes them.
  EXPECT_GT(outer->total_ns, outer->self_ns);
  EXPECT_GE(outer->total_ns, outer->self_ns + inner->total_ns);
  // Inner is a leaf: self == total.
  EXPECT_EQ(inner->total_ns, inner->self_ns);
  // Attributed time is the sum of self across sites and never exceeds the
  // enabled window.
  EXPECT_EQ(report.attributed_ns, outer->self_ns + inner->self_ns);
  EXPECT_LE(report.attributed_ns, report.enabled_wall_ns);

  prof::Reset();
}

void SharedNameHere() {
  DCC_PROF_SCOPE("test.shared");
  Burn(50);
}

void SharedNameThere() {
  DCC_PROF_SCOPE("test.shared");
  SharedNameHere();
}

TEST(ProfilerTest, CallSitesSharingANameShareOneRow) {
  prof::Reset();
  prof::Enable();
  SharedNameHere();
  SharedNameThere();
  prof::Disable();
  const prof::ProfileReport report = prof::Snapshot();

  int rows = 0;
  for (const prof::SiteReport& site : report.sites) {
    rows += site.name == "test.shared" ? 1 : 0;
  }
  EXPECT_EQ(rows, 1);
  const prof::SiteReport* shared = FindSite(report, "test.shared");
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->calls, 3u);
  // Nested under itself, the name's total counts the outermost entry only.
  EXPECT_EQ(shared->total_ns, shared->self_ns);

  prof::Reset();
}

TEST(ProfilerTest, FoldedStacksMatchCallStructure) {
  prof::Reset();
  prof::Enable();
  Outer();
  Inner();  // Also reachable as a root.
  prof::Disable();
  const prof::ProfileReport report = prof::Snapshot();

  const prof::PathReport* nested =
      FindPath(report, {"test.outer", "test.inner"});
  const prof::PathReport* root_inner = FindPath(report, {"test.inner"});
  const prof::PathReport* root_outer = FindPath(report, {"test.outer"});
  ASSERT_NE(nested, nullptr);
  ASSERT_NE(root_inner, nullptr);
  ASSERT_NE(root_outer, nullptr);
  EXPECT_EQ(nested->calls, 2u);
  EXPECT_EQ(root_inner->calls, 1u);
  EXPECT_EQ(root_outer->calls, 1u);
  // Path self times and site self times agree.
  const prof::SiteReport* inner = FindSite(report, "test.inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->self_ns, nested->self_ns + root_inner->self_ns);

  prof::Reset();
}

void Recurse(int depth) {
  DCC_PROF_SCOPE("test.recurse");
  Burn(50);
  if (depth > 0) {
    Recurse(depth - 1);
  }
}

TEST(ProfilerTest, RecursionDoesNotDoubleCountTotal) {
  prof::Reset();
  prof::Enable();
  Recurse(4);  // 5 nested entries of the same site.
  prof::Disable();
  const prof::ProfileReport report = prof::Snapshot();

  const prof::SiteReport* site = FindSite(report, "test.recurse");
  ASSERT_NE(site, nullptr);
  EXPECT_EQ(site->calls, 5u);
  // total_ns counts the outermost entry once; were inner entries also
  // counted, total would be ~3x self (sum of nested inclusive windows).
  EXPECT_GE(site->total_ns, site->self_ns);
  EXPECT_LT(site->total_ns, site->self_ns * 2);
  EXPECT_LE(site->total_ns, report.enabled_wall_ns);

  prof::Reset();
}

TEST(ProfilerTest, DisabledScopesAreInvisible) {
  prof::Reset();
  Outer();  // Not enabled: nothing may be recorded.
  const prof::ProfileReport report = prof::Snapshot();
  EXPECT_EQ(report.sites.size(), 0u);
  EXPECT_EQ(report.folded.size(), 0u);
  EXPECT_EQ(report.enabled_wall_ns, 0u);
  EXPECT_EQ(report.copies.msg_copies, 0u);
}

TEST(ProfilerTest, ThreadLocalIsolation) {
  prof::Reset();
  prof::Enable();
  Inner();

  // A second thread profiles (or not) entirely independently.
  prof::ProfileReport other_disabled;
  prof::ProfileReport other_enabled;
  std::thread worker([&other_disabled, &other_enabled]() {
    // Fresh thread: profiling starts off.
    Outer();
    other_disabled = prof::Snapshot();
    prof::Enable();
    Outer();
    prof::Disable();
    other_enabled = prof::Snapshot();
    prof::Reset();
  });
  worker.join();

  EXPECT_EQ(other_disabled.sites.size(), 0u);
  ASSERT_NE(FindSite(other_enabled, "test.outer"), nullptr);

  // This thread saw only its own Inner() call.
  prof::Disable();
  const prof::ProfileReport mine = prof::Snapshot();
  const prof::SiteReport* inner = FindSite(mine, "test.inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->calls, 1u);
  EXPECT_EQ(FindSite(mine, "test.outer"), nullptr);

  prof::Reset();
}

TEST(ProfilerTest, EventCategoriesRecordCountAndDeterministicLag) {
  prof::Reset();
  prof::Enable();

  EventLoop loop;
  // Two categorized events with known schedule-to-run lag (virtual time is
  // deterministic): one runs 50us after scheduling, one immediately.
  loop.ScheduleAfter(50, "test.timer", []() {});
  loop.ScheduleAfter(0, "test.deliver", []() {});
  loop.ScheduleAfter(10, []() {});  // Unlabeled: falls in the default bucket.
  loop.Run();

  prof::Disable();
  const prof::ProfileReport report = prof::Snapshot();

  const prof::EventCategoryReport* timer = nullptr;
  const prof::EventCategoryReport* deliver = nullptr;
  const prof::EventCategoryReport* uncategorized = nullptr;
  for (const prof::EventCategoryReport& cat : report.event_categories) {
    if (cat.category == "test.timer") timer = &cat;
    if (cat.category == "test.deliver") deliver = &cat;
    if (cat.category == "event.uncategorized") uncategorized = &cat;
  }
  ASSERT_NE(timer, nullptr);
  ASSERT_NE(deliver, nullptr);
  ASSERT_NE(uncategorized, nullptr);
  EXPECT_EQ(timer->count, 1u);
  EXPECT_EQ(timer->lag_us_sum, 50u);
  EXPECT_EQ(timer->lag_us_max, 50u);
  EXPECT_EQ(deliver->lag_us_sum, 0u);
  EXPECT_EQ(uncategorized->lag_us_sum, 10u);
  // Three events queued while one was pending at most: watermark covers the
  // deepest simultaneous backlog.
  EXPECT_GE(report.queue_depth_max, 3u);
  // Each category also shows up as a site, stacked under nothing (no
  // surrounding scope) — the loop ran outside sim.run here.
  EXPECT_NE(FindSite(report, "test.timer"), nullptr);

  prof::Reset();
}

TEST(ProfilerTest, CancelledEventsAreCountedApartFromExecutedOnes) {
  prof::Reset();
  prof::Enable();

  EventLoop loop;
  loop.ScheduleAfter(10, "test.timer", []() {});
  const TimerId dead = loop.ScheduleAfter(20, "test.timer", []() {});
  const TimerId only_dead = loop.ScheduleAfter(30, "test.answered", []() {});
  loop.Cancel(dead);
  loop.Cancel(only_dead);
  loop.Run();

  prof::Disable();
  const prof::ProfileReport report = prof::Snapshot();
  const prof::EventCategoryReport* timer = nullptr;
  const prof::EventCategoryReport* answered = nullptr;
  for (const prof::EventCategoryReport& cat : report.event_categories) {
    if (cat.category == "test.timer") timer = &cat;
    if (cat.category == "test.answered") answered = &cat;
  }
  ASSERT_NE(timer, nullptr);
  ASSERT_NE(answered, nullptr) << "a category with only dead events still shows";
  EXPECT_EQ(timer->count, 1u);
  EXPECT_EQ(timer->cancelled, 1u);
  EXPECT_EQ(timer->lag_us_sum, 10u) << "a skipped event adds no lag";
  EXPECT_EQ(answered->count, 0u);
  EXPECT_EQ(answered->cancelled, 1u);
  EXPECT_EQ(answered->wall_ns, 0u);
  EXPECT_EQ(FindSite(report, "test.answered"), nullptr)
      << "a skipped event opens no profiler scope";
  EXPECT_NE(prof::WriteProfileJson(report).find("\"cancelled\": 1"),
            std::string::npos);

  prof::Reset();
}

TEST(ProfilerTest, CopyCountersSeeMessageAndCodecChurn) {
  prof::Reset();
  prof::Enable();

  Message query = MakeQuery(7, *Name::Parse("example.com."), RecordType::kA);
  Message copy = query;          // 1 copy.
  Message moved = std::move(copy);  // 1 move.
  (void)moved;
  const std::vector<uint8_t> wire = EncodeMessage(query);
  auto decoded = DecodeMessage(wire);
  ASSERT_TRUE(decoded.has_value());

  prof::Disable();
  const prof::ProfileReport report = prof::Snapshot();
  EXPECT_GE(report.copies.msg_copies, 1u);
  EXPECT_GE(report.copies.msg_moves, 1u);
  EXPECT_EQ(report.copies.encode_calls, 1u);
  EXPECT_EQ(report.copies.encode_bytes, wire.size());
  EXPECT_EQ(report.copies.decode_calls, 1u);
  EXPECT_EQ(report.copies.decode_bytes, wire.size());

  prof::Reset();
}

TEST(ProfilerTest, WriteProfileJsonContainsSchema) {
  prof::Reset();
  prof::Enable();
  Outer();
  prof::Disable();
  const std::string json = prof::WriteProfileJson(prof::Snapshot());
  EXPECT_NE(json.find("\"tool\": \"dcc_prof\""), std::string::npos);
  EXPECT_NE(json.find("\"sites\""), std::string::npos);
  EXPECT_NE(json.find("\"folded\""), std::string::npos);
  EXPECT_NE(json.find("test.outer;test.inner"), std::string::npos);
  EXPECT_NE(json.find("\"attributed_fraction\""), std::string::npos);
  prof::Reset();
}

// The tentpole guarantee: running with the profiler enabled leaves the
// simulation byte-identical — same events executed, same full outcome JSON.
TEST(ProfilerDeterminismTest, ProfilingDoesNotPerturbScenario) {
  scenario::ScenarioSpec spec =
      scenario::MakeResilienceSpec(scenario::QueryPattern::kNx, /*attacker_qps=*/200);
  spec.horizon = Seconds(3);
  spec.seed = 42;

  auto run = [&spec](bool profiled) {
    prof::Reset();
    if (profiled) {
      prof::Enable();
    }
    scenario::ScenarioOutcome outcome;
    std::string error;
    EXPECT_TRUE(
        scenario::RunScenarioSpec(spec, scenario::EngineHooks{}, &outcome, &error))
        << error;
    prof::Disable();
    prof::Reset();
    return scenario::WriteScenarioOutcome(outcome);
  };

  const std::string baseline = run(/*profiled=*/false);
  const std::string profiled = run(/*profiled=*/true);
  const std::string again = run(/*profiled=*/false);
  EXPECT_EQ(baseline, again) << "scenario itself is not deterministic";
  EXPECT_EQ(baseline, profiled)
      << "profiling perturbed the simulation outcome";
}

}  // namespace
}  // namespace dcc
