// Seeded robustness tests for the scenario-spec parser and validator:
// write -> parse -> write is a fixed point over specs the dcc_search mutation
// operators reach, and byte- and token-mutated copies of the committed specs
// either parse and validate or fail with a diagnostic, never crash.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/scenario/spec.h"
#include "src/search/mutation.h"
#include "src/search/search.h"

#ifndef DCC_SOURCE_DIR
#define DCC_SOURCE_DIR "."
#endif

namespace dcc {
namespace scenario {
namespace {

std::vector<std::string> CommittedSpecTexts() {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(DCC_SOURCE_DIR) / "examples" / "scenarios";
  std::vector<std::string> texts;
  for (const fs::path& dir : {root, root / "found"}) {
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".json") {
        std::ifstream in(entry.path());
        std::stringstream text;
        text << in.rdbuf();
        texts.push_back(text.str());
      }
    }
  }
  return texts;
}

std::vector<ScenarioSpec> BaseSpecs() {
  std::vector<ScenarioSpec> bases;
  for (const search::SeedSpec& seed : search::DefaultSeedSpecs(Seconds(24), 1)) {
    bases.push_back(seed.spec);
  }
  for (const std::string& text : CommittedSpecTexts()) {
    ScenarioSpec spec;
    std::string error;
    EXPECT_TRUE(ParseScenarioSpec(text, &spec, &error)) << error;
    EXPECT_TRUE(ValidateScenarioSpec(&spec, &error)) << error;
    bases.push_back(std::move(spec));
  }
  return bases;
}

// Random walks of mutation steps; every valid offspring must serialize to a
// write -> parse -> write fixed point and re-validate unchanged.
TEST(SpecFuzzTest, MutatedSpecsRoundTrip) {
  const std::vector<ScenarioSpec> bases = BaseSpecs();
  ASSERT_EQ(bases.size(), 13u);  // 4 seed specs + 9 committed specs.
  Rng rng(20241017);
  ScenarioSpec current = bases[0];
  int valid = 0;
  for (int step = 0; step < 10000; ++step) {
    if (rng.NextBool(0.05)) {
      current = bases[rng.NextBelow(bases.size())];
    }
    search::MutationStep mutation;
    mutation.op = static_cast<search::MutationOp>(rng.NextBelow(search::kNumMutationOps));
    mutation.seed = rng.Next();
    ScenarioSpec child = current;
    std::string error;
    if (!search::ApplyMutation(&child, mutation, &error)) {
      continue;
    }
    ++valid;
    const std::string written = WriteScenarioSpec(child);
    ScenarioSpec reparsed;
    ASSERT_TRUE(ParseScenarioSpec(written, &reparsed, &error))
        << "step " << step << ": " << error;
    ASSERT_EQ(WriteScenarioSpec(reparsed), written) << "step " << step;
    ASSERT_TRUE(ValidateScenarioSpec(&reparsed, &error))
        << "step " << step << ": " << error;
    ASSERT_EQ(WriteScenarioSpec(reparsed), written) << "step " << step;
    current = std::move(child);
  }
  EXPECT_GT(valid, 5000);
}

// Parse, then validate what parsed: each call succeeds or explains itself.
void ExpectParseAndValidateContained(const std::string& text, int* parsed,
                                     int* validated) {
  ScenarioSpec spec;
  std::string error;
  if (!ParseScenarioSpec(text, &spec, &error)) {
    EXPECT_FALSE(error.empty()) << text;
    return;
  }
  ++*parsed;
  if (!ValidateScenarioSpec(&spec, &error)) {
    EXPECT_FALSE(error.empty()) << text;
    return;
  }
  ++*validated;
}

TEST(SpecFuzzTest, MutatedBytesNeverCrash) {
  const std::vector<std::string> texts = CommittedSpecTexts();
  Rng rng(4242);
  int parsed = 0;
  int validated = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text = texts[rng.NextBelow(texts.size())];
    for (uint64_t i = 0, n = 1 + rng.NextBelow(4); i < n && !text.empty(); ++i) {
      const size_t pos = rng.NextBelow(text.size());
      switch (rng.NextBelow(4)) {
        case 0:
          text[pos] = static_cast<char>(rng.Next());
          break;
        case 1:
          text.erase(pos, 1 + rng.NextBelow(8));
          break;
        case 2:
          text.insert(pos, 1, static_cast<char>(rng.Next()));
          break;
        default:
          text.resize(pos);
          break;
      }
    }
    ExpectParseAndValidateContained(text, &parsed, &validated);
  }
  EXPECT_GT(parsed, 0);
}

// Splits JSON text into tokens: strings, number/literal runs, single
// punctuation characters and whitespace runs.
std::vector<std::string> Tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < text.size()) {
    size_t j = i + 1;
    const char c = text[i];
    if (c == '"') {
      while (j < text.size() && text[j] != '"') {
        j += text[j] == '\\' ? 2 : 1;
      }
      j = std::min(j + 1, text.size());
    } else if (std::isalnum(static_cast<unsigned char>(c)) || c == '-') {
      while (j < text.size() && (std::isalnum(static_cast<unsigned char>(text[j])) ||
                                 text[j] == '.' || text[j] == '-' || text[j] == '+')) {
        ++j;
      }
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      while (j < text.size() && std::isspace(static_cast<unsigned char>(text[j]))) {
        ++j;
      }
    }
    tokens.push_back(text.substr(i, j - i));
    i = j;
  }
  return tokens;
}

// Replaces whole scalar tokens: a value with an edge value or another value
// from the document, a key with another string (often a key that belongs
// elsewhere). The edges sit on the parser's type and range boundaries.
TEST(SpecFuzzTest, MutatedTokensNeverCrash) {
  const char* const kEdges[] = {
      "0", "-1", "1", "2.7", "-0", "1e20", "-1e20", "1e400", "-1e400", "1e-400",
      "65536", "2147483648", "4294967296", "9223372036854775808",
      "18446744073709551616", "9007199254740993", "true", "false", "null",
      "[]", "{}", "\"\"", "\"frontend\"", "\"attacker\"", "\"nx_then_wc\"",
      "\"least_loaded\"", "\"servfail\"", "\"ratelimit\"", "[\"x\"]", "{\"x\": 1}"};
  const std::vector<std::string> texts = CommittedSpecTexts();
  std::vector<std::vector<std::string>> documents;
  for (const std::string& text : texts) {
    documents.push_back(Tokenize(text));
  }
  Rng rng(777);
  int parsed = 0;
  int validated = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::string> tokens = documents[rng.NextBelow(documents.size())];
    // Scalar positions, split into object keys (next token is ':') and values.
    std::vector<size_t> keys;
    std::vector<size_t> values;
    for (size_t i = 0; i < tokens.size(); ++i) {
      const char c = tokens[i][0];
      if (c != '"' && c != '-' && !std::isalnum(static_cast<unsigned char>(c))) {
        continue;
      }
      size_t next = i + 1;
      while (next < tokens.size() && std::isspace(static_cast<unsigned char>(tokens[next][0]))) {
        ++next;
      }
      (next < tokens.size() && tokens[next] == ":" ? keys : values).push_back(i);
    }
    for (uint64_t i = 0, n = 1 + rng.NextBelow(3); i < n; ++i) {
      if (rng.NextBool(0.2)) {
        tokens[keys[rng.NextBelow(keys.size())]] = tokens[keys[rng.NextBelow(keys.size())]];
      } else if (rng.NextBool(0.6)) {
        tokens[values[rng.NextBelow(values.size())]] = kEdges[rng.NextBelow(std::size(kEdges))];
      } else {
        tokens[values[rng.NextBelow(values.size())]] = tokens[values[rng.NextBelow(values.size())]];
      }
    }
  std::string text;
    for (const std::string& token : tokens) {
      text += token;
    }
    ExpectParseAndValidateContained(text, &parsed, &validated);
  }
  // The edits keep the document well-formed JSON, so the schema and
  // validation layers are reached, not just the syntax check.
  EXPECT_GT(parsed, 300);
  EXPECT_GT(validated, 100);
}

}  // namespace
}  // namespace scenario
}  // namespace dcc
