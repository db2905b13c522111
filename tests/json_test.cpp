// Tests for the JSON writer and parser.
#include <gtest/gtest.h>

#include <ostream>

#include "io/json.h"

namespace re::io {
namespace {

TEST(JsonEscape, EscapesControlAndQuotes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriter, FlatObject) {
  JsonWriter w;
  w.begin_object()
      .field("name", "R&E")
      .field("count", 42)
      .field("share", 0.5)
      .field("flag", true)
      .end_object();
  EXPECT_EQ(w.str(),
            R"({"name":"R&E","count":42,"share":0.5,"flag":true})");
}

TEST(JsonWriter, NestedStructures) {
  JsonWriter w;
  w.begin_object();
  w.key("rounds").begin_array().value("re").value("commodity").end_array();
  w.key("meta").begin_object().field("n", 2).end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"rounds":["re","commodity"],"meta":{"n":2}})");
}

TEST(JsonWriter, ArrayOfObjects) {
  JsonWriter w;
  w.begin_array();
  w.begin_object().field("a", 1).end_object();
  w.begin_object().field("b", 2).end_object();
  w.end_array();
  EXPECT_EQ(w.str(), R"([{"a":1},{"b":2}])");
}

TEST(JsonWriter, NullValue) {
  JsonWriter w;
  w.begin_object();
  w.key("x");
  w.null();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"x":null})");
}

TEST(JsonParser, Scalars) {
  EXPECT_TRUE(parse_json("null")->is_null());
  EXPECT_EQ(parse_json("true")->as_bool(), true);
  EXPECT_EQ(parse_json("false")->as_bool(), false);
  EXPECT_DOUBLE_EQ(parse_json("3.25")->as_number(), 3.25);
  EXPECT_DOUBLE_EQ(parse_json("-17")->as_number(), -17.0);
  EXPECT_DOUBLE_EQ(parse_json("1e3")->as_number(), 1000.0);
  EXPECT_EQ(parse_json(R"("hello")")->as_string(), "hello");
}

TEST(JsonParser, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\nd")")->as_string(), "a\"b\\c\nd");
  EXPECT_EQ(parse_json(R"("A")")->as_string(), "A");
  EXPECT_EQ(parse_json(R"("é")")->as_string(), "\xc3\xa9");  // é
}

TEST(JsonParser, ObjectsAndArrays) {
  const auto v = parse_json(R"({"a": [1, 2, {"b": "c"}], "d": null})");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  const JsonValue* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->as_array()[0].as_number(), 1.0);
  const JsonValue* b = a->as_array()[2].find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->as_string(), "c");
  EXPECT_TRUE(v->find("d")->is_null());
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(JsonParser, EmptyContainers) {
  EXPECT_TRUE(parse_json("{}")->as_object().empty());
  EXPECT_TRUE(parse_json("[]")->as_array().empty());
  EXPECT_TRUE(parse_json("  { }  ")->is_object());
}

// Each case carries a label, and PrintTo prints it: ctest names a
// value-parameterized test after the printed parameter, and gtest's default
// printout of this struct is its raw bytes (a pointer that moves every run).
struct BadJsonCase {
  const char* label;
  const char* text;
};
void PrintTo(const BadJsonCase& c, std::ostream* os) { *os << c.label; }

class JsonParserRejects : public ::testing::TestWithParam<BadJsonCase> {};

TEST_P(JsonParserRejects, Rejects) {
  EXPECT_FALSE(parse_json(GetParam().text).has_value()) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, JsonParserRejects,
    ::testing::Values(BadJsonCase{"empty", ""},
                      BadJsonCase{"open_object", "{"},
                      BadJsonCase{"open_array", "["},
                      BadJsonCase{"key_without_value", "{\"a\"}"},
                      BadJsonCase{"missing_value", "{\"a\":}"},
                      BadJsonCase{"array_trailing_comma", "[1,]"},
                      BadJsonCase{"object_trailing_comma", "{\"a\":1,}"},
                      BadJsonCase{"unterminated_string", "\"unterminated"},
                      BadJsonCase{"truncated_true", "tru"},
                      BadJsonCase{"truncated_null", "nul"},
                      BadJsonCase{"two_values", "1 2"},
                      BadJsonCase{"trailing_garbage", "{} extra"},
                      BadJsonCase{"bad_escape", "\"\\x\""},
                      BadJsonCase{"short_unicode_escape", "\"\\u12\""},
                      BadJsonCase{"double_minus", "--1"}));

TEST(JsonRoundTrip, WriterOutputParses) {
  JsonWriter w;
  w.begin_object()
      .field("prefix", "163.253.63.0/24")
      .field("origin", std::uint64_t{396955});
  w.key("rounds").begin_array();
  for (int i = 0; i < 9; ++i) w.value(i % 2 ? "re" : "commodity");
  w.end_array().end_object();
  const auto parsed = parse_json(w.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("prefix")->as_string(), "163.253.63.0/24");
  EXPECT_DOUBLE_EQ(parsed->find("origin")->as_number(), 396955.0);
  EXPECT_EQ(parsed->find("rounds")->as_array().size(), 9u);
}

}  // namespace
}  // namespace re::io
