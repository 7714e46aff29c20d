// Unit tests for the minimal JSON parser and writer in src/common/json.h:
// document shapes, string escapes, strict number grammar, error reporting
// with byte offsets, the one-document rule, the recursion-depth guard, and
// Write() round-trips (stable key order, escaping, integer vs double
// formatting). The parser exists so src/telemetry can re-read JSONL dumps
// and so the scenario library can load ScenarioSpec documents; the writer
// backs spec round-trip tests and `dcc_sim run --dump-effective`.

#include <gtest/gtest.h>

#include <string>

#include "src/common/json.h"

namespace dcc {
namespace json {
namespace {

Value MustParse(const std::string& text) {
  Value out;
  std::string error;
  EXPECT_TRUE(Parse(text, &out, &error)) << text << ": " << error;
  return out;
}

bool Fails(const std::string& text) {
  Value out;
  return !Parse(text, &out);
}

TEST(JsonTest, ScalarDocuments) {
  EXPECT_TRUE(MustParse("null").is_null());
  EXPECT_TRUE(MustParse("true").AsBool());
  EXPECT_FALSE(MustParse("false").AsBool(true));
  EXPECT_DOUBLE_EQ(MustParse("42").AsNumber(), 42.0);
  EXPECT_DOUBLE_EQ(MustParse("-3.25").AsNumber(), -3.25);
  EXPECT_DOUBLE_EQ(MustParse("1e3").AsNumber(), 1000.0);
  EXPECT_DOUBLE_EQ(MustParse("2.5E-1").AsNumber(), 0.25);
  EXPECT_EQ(MustParse("\"hi\"").AsString(), "hi");
  EXPECT_TRUE(MustParse("  0  ").is_number());  // Surrounding whitespace OK.
}

TEST(JsonTest, StringEscapes) {
  EXPECT_EQ(MustParse(R"("a\"b\\c\/d")").AsString(), "a\"b\\c/d");
  EXPECT_EQ(MustParse(R"("line\nbreak\ttab")").AsString(), "line\nbreak\ttab");
  EXPECT_EQ(MustParse(R"("A")").AsString(), "A");
  EXPECT_EQ(MustParse(R"("é")").AsString(), "\xc3\xa9");  // UTF-8 é.
  EXPECT_TRUE(Fails(R"("\q")"));       // Unknown escape.
  EXPECT_TRUE(Fails(R"("\u12")"));     // Short unicode escape.
  EXPECT_TRUE(Fails("\"unterminated"));
}

TEST(JsonTest, StrictNumberGrammar) {
  EXPECT_TRUE(Fails("01"));     // No leading zeros.
  EXPECT_TRUE(Fails("1."));     // Digits required after the point.
  EXPECT_TRUE(Fails("-"));
  EXPECT_TRUE(Fails("+1"));     // No leading plus.
  EXPECT_TRUE(Fails("1e"));     // Exponent needs digits.
  EXPECT_TRUE(Fails(".5"));
  EXPECT_DOUBLE_EQ(MustParse("0.5").AsNumber(), 0.5);
  EXPECT_DOUBLE_EQ(MustParse("-0").AsNumber(), 0.0);
}

TEST(JsonTest, ArraysAndObjects) {
  const Value arr = MustParse(R"([1, "two", [true], {}])");
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.AsArray().size(), 4u);
  EXPECT_DOUBLE_EQ(arr.AsArray()[0].AsNumber(), 1.0);
  EXPECT_EQ(arr.AsArray()[1].AsString(), "two");
  EXPECT_TRUE(arr.AsArray()[2].AsArray()[0].AsBool());
  EXPECT_TRUE(arr.AsArray()[3].is_object());

  const Value obj = MustParse(R"({"a": 1, "nested": {"b": "x"}})");
  ASSERT_TRUE(obj.is_object());
  EXPECT_DOUBLE_EQ(obj.Number("a"), 1.0);
  EXPECT_DOUBLE_EQ(obj.Number("absent", -7.0), -7.0);
  ASSERT_NE(obj.Find("nested"), nullptr);
  EXPECT_EQ(obj.Find("nested")->String("b"), "x");
  EXPECT_EQ(obj.Find("missing"), nullptr);
  // Find on a non-object is a safe nullptr, not a crash.
  EXPECT_EQ(MustParse("[1]").Find("a"), nullptr);
  EXPECT_TRUE(MustParse("[]").AsArray().empty());
  EXPECT_TRUE(MustParse("{}").AsObject().empty());
}

TEST(JsonTest, MalformedDocumentsReportOffsets) {
  Value out;
  std::string error;
  EXPECT_FALSE(Parse("{\"a\": }", &out, &error));
  EXPECT_NE(error.find("offset"), std::string::npos) << error;
  EXPECT_TRUE(Fails("[1, 2"));        // Unclosed array.
  EXPECT_TRUE(Fails("{\"a\" 1}"));    // Missing colon.
  EXPECT_TRUE(Fails("[1,]"));         // Trailing comma.
  EXPECT_TRUE(Fails("{1: 2}"));       // Non-string key.
  EXPECT_TRUE(Fails(""));
  EXPECT_TRUE(Fails("   "));
}

TEST(JsonTest, ExactlyOneDocument) {
  EXPECT_TRUE(Fails("1 2"));
  EXPECT_TRUE(Fails("{} {}"));
  EXPECT_TRUE(Fails("null garbage"));
  EXPECT_TRUE(MustParse("{} \n\t ").is_object());  // Trailing whitespace OK.
}

TEST(JsonTest, DepthGuardRejectsPathologicalNesting) {
  std::string deep;
  for (int i = 0; i < kMaxDepth + 1; ++i) {
    deep += '[';
  }
  deep += "1";
  for (int i = 0; i < kMaxDepth + 1; ++i) {
    deep += ']';
  }
  EXPECT_TRUE(Fails(deep));
  // One level under the limit parses fine.
  std::string ok;
  for (int i = 0; i < kMaxDepth - 1; ++i) {
    ok += '[';
  }
  ok += "1";
  for (int i = 0; i < kMaxDepth - 1; ++i) {
    ok += ']';
  }
  EXPECT_TRUE(MustParse(ok).is_array());
}

TEST(JsonWriteTest, ScalarsAndContainers) {
  EXPECT_EQ(Write(Value()), "null");
  EXPECT_EQ(Write(Value::OfBool(true)), "true");
  EXPECT_EQ(Write(Value::OfBool(false)), "false");
  EXPECT_EQ(Write(Value::OfString("hi")), "\"hi\"");
  EXPECT_EQ(Write(Value::MakeArray()), "[]");
  EXPECT_EQ(Write(Value::MakeObject()), "{}");

  Value obj = Value::MakeObject();
  obj.Set("b", Value::OfNumber(2));
  obj.Set("a", Value::OfNumber(1));
  Value arr = Value::MakeArray();
  arr.PushBack(Value::OfNumber(3));
  arr.PushBack(Value::OfString("x"));
  obj.Set("list", arr);
  // Keys come out sorted regardless of insertion order.
  EXPECT_EQ(Write(obj), R"({"a":1,"b":2,"list":[3,"x"]})");
}

TEST(JsonWriteTest, NumberFormatting) {
  EXPECT_EQ(Write(Value::OfNumber(42)), "42");
  EXPECT_EQ(Write(Value::OfNumber(-7)), "-7");
  EXPECT_EQ(Write(Value::OfNumber(0)), "0");
  EXPECT_EQ(Write(Value::OfNumber(1e15)), "1000000000000000");
  EXPECT_EQ(Write(Value::OfNumber(2.5)), "2.5");
  EXPECT_EQ(Write(Value::OfNumber(-0.125)), "-0.125");
  // Shortest round-trip representation for an awkward double.
  const double third = 1.0 / 3.0;
  Value reparsed;
  ASSERT_TRUE(Parse(Write(Value::OfNumber(third)), &reparsed));
  EXPECT_EQ(reparsed.AsNumber(), third);
}

TEST(JsonWriteTest, StringEscaping) {
  EXPECT_EQ(Write(Value::OfString("a\"b\\c")), R"("a\"b\\c")");
  EXPECT_EQ(Write(Value::OfString("line\nbreak\ttab")),
            R"("line\nbreak\ttab")");
  EXPECT_EQ(Write(Value::OfString(std::string("ctl\x01", 4))),
            R"("ctl\u0001")");
  EXPECT_EQ(Write(Value::OfString("\xc3\xa9")), "\"\xc3\xa9\"");  // UTF-8 é.
}

TEST(JsonWriteTest, PrettyPrinting) {
  Value obj = Value::MakeObject();
  obj.Set("a", Value::OfNumber(1));
  Value arr = Value::MakeArray();
  arr.PushBack(Value::OfNumber(2));
  obj.Set("b", arr);
  EXPECT_EQ(Write(obj, 2), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
  EXPECT_EQ(Write(Value::MakeObject(), 2), "{}");
}

TEST(JsonWriteTest, BuildersConvertNullInPlace) {
  Value v;  // Starts null.
  v.PushBack(Value::OfNumber(1));
  ASSERT_TRUE(v.is_array());
  EXPECT_EQ(v.AsArray().size(), 1u);

  Value o;  // Starts null.
  o.Set("k", Value::OfBool(true));
  ASSERT_TRUE(o.is_object());
  EXPECT_TRUE(o.Find("k")->AsBool());
}

TEST(JsonWriteTest, ParseWriteParseRoundTrips) {
  const std::string docs[] = {
      R"({"zones":[{"apex":"target-domain","ttl":30}],"seed":7})",
      R"([1,2.5,"s",true,null,{"nested":{"deep":[[]]}}])",
      R"({"esc":"a\"b\\c\nd","num":-0.001,"big":123456789012345})",
  };
  for (const std::string& doc : docs) {
    const Value first = MustParse(doc);
    const std::string emitted = Write(first);
    const Value second = MustParse(emitted);
    // Writing the reparsed value must be byte-identical (fixed point).
    EXPECT_EQ(Write(second), emitted) << doc;
    // And pretty output reparses to the same fixed point.
    EXPECT_EQ(Write(MustParse(Write(first, 2))), emitted) << doc;
  }
}

TEST(JsonParseTest, IntegerMembersAreRangeChecked) {
  const Value doc = MustParse(
      R"({"u":4294967295,"big":4294967296,"neg":-1,"frac":2.5,"s":"7",)"
      R"("i64":9223372036854775807,"min":-9223372036854775808})");
  uint32_t u = 0;
  EXPECT_TRUE(doc.Integer("u", uint32_t{0}, &u));
  EXPECT_EQ(u, 4294967295u);
  EXPECT_TRUE(doc.Integer("absent", uint32_t{5}, &u));
  EXPECT_EQ(u, 5u);
  for (const char* key : {"big", "neg", "frac", "s"}) {
    EXPECT_FALSE(doc.Integer(key, uint32_t{0}, &u)) << key;
  }
  // 2^63 - 1 rounds to 2^63 as a double, one past the int64 range.
  int64_t i = 0;
  EXPECT_FALSE(doc.Integer("i64", int64_t{0}, &i));
  EXPECT_TRUE(doc.Integer("min", int64_t{0}, &i));
  EXPECT_EQ(i, INT64_MIN);
}

}  // namespace
}  // namespace json
}  // namespace dcc
