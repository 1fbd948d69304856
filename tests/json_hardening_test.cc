// Hardening of obs::ParseJson for hostile/corrupt input (fault plans,
// benchmark files): duplicate-key rejection, double-overflow rejection,
// depth limiting, exact string escapes, and precise line:column error
// positions. LintJson stays deliberately lenient — it validates this repo's
// own exporters. The JsonCursor tests pin the pull API those two share.

#include <gtest/gtest.h>

#include <string>

#include "src/obs/json.h"

namespace wdmlat::obs {
namespace {

TEST(JsonHardeningTest, DuplicateObjectKeysRejectedWithPosition) {
  const std::string doc = "{\"a\": 1, \"b\": 2, \"a\": 3}";
  const JsonParseResult parsed = ParseJson(doc);
  ASSERT_FALSE(parsed.valid);
  EXPECT_NE(parsed.error.find("duplicate object key \"a\""), std::string::npos);
  // The position points at the offending (second) key, not the end.
  EXPECT_EQ(parsed.error_line, 1u);
  EXPECT_EQ(parsed.error_offset, doc.find("\"a\": 3"));

  // LintJson intentionally still accepts it (own-exporter validation only).
  EXPECT_TRUE(LintJson(doc).valid);
}

TEST(JsonHardeningTest, NestedDuplicatesAlsoRejected) {
  EXPECT_FALSE(ParseJson("{\"outer\": {\"k\": 1, \"k\": 2}}").valid);
  EXPECT_FALSE(ParseJson("[{\"k\": 1, \"k\": 2}]").valid);
  // Same key at different depths is fine.
  EXPECT_TRUE(ParseJson("{\"k\": {\"k\": 1}}").valid);
}

TEST(JsonHardeningTest, NumberOverflowRejected) {
  const JsonParseResult overflow = ParseJson("{\"x\": 1e999}");
  ASSERT_FALSE(overflow.valid);
  EXPECT_NE(overflow.error.find("overflows double"), std::string::npos);
  EXPECT_EQ(overflow.error_offset, std::string("{\"x\": ").size());

  EXPECT_FALSE(ParseJson("[-1e999]").valid);
  EXPECT_TRUE(ParseJson("{\"x\": 1e308}").valid);
  EXPECT_TRUE(ParseJson("{\"x\": -1.7976931348623157e308}").valid);
}

TEST(JsonHardeningTest, DepthLimitFailsCleanly) {
  std::string deep;
  for (int i = 0; i < 80; ++i) deep += '[';
  deep += "1";
  for (int i = 0; i < 80; ++i) deep += ']';
  const JsonParseResult parsed = ParseJson(deep);
  ASSERT_FALSE(parsed.valid);
  EXPECT_NE(parsed.error.find("nesting too deep"), std::string::npos);

  std::string shallow;
  for (int i = 0; i < 32; ++i) shallow += '[';
  shallow += "1";
  for (int i = 0; i < 32; ++i) shallow += ']';
  EXPECT_TRUE(ParseJson(shallow).valid);
}

TEST(JsonHardeningTest, ErrorPositionsAreOneBasedLineColumn) {
  const std::string doc = "{\n  \"a\": 1,\n  \"b\": bogus\n}";
  const JsonParseResult parsed = ParseJson(doc);
  ASSERT_FALSE(parsed.valid);
  EXPECT_EQ(parsed.error_line, 3u);
  EXPECT_EQ(parsed.error_column, 8u);
  EXPECT_EQ(parsed.error_offset, doc.find("bogus"));
}

TEST(JsonHardeningTest, TrailingCharactersReportPosition) {
  const JsonParseResult parsed = ParseJson("{\"a\": 1} extra");
  ASSERT_FALSE(parsed.valid);
  EXPECT_EQ(parsed.error_line, 1u);
  EXPECT_GT(parsed.error_column, 1u);
}

TEST(JsonHardeningTest, ValidDocumentsStillParse) {
  const JsonParseResult parsed =
      ParseJson("{\"s\": \"\\u00e9\", \"n\": -1.5e-3, \"a\": [true, false, null]}");
  ASSERT_TRUE(parsed.valid);
  EXPECT_TRUE(parsed.value.is_object());
  EXPECT_EQ(parsed.value.NumberOr("n", 0.0), -1.5e-3);
  ASSERT_NE(parsed.value.Find("a"), nullptr);
  EXPECT_EQ(parsed.value.Find("a")->items().size(), 3u);
}

TEST(JsonHardeningTest, EscapesDecodeExactly) {
  const JsonParseResult parsed = ParseJson(
      R"({"s": "\b\f\n\r\t\/\"\\", "u": "Aé€😀", "z": "a\u0000b"})");
  ASSERT_TRUE(parsed.valid) << parsed.error;
  EXPECT_EQ(parsed.value.StringOr("s", ""), "\b\f\n\r\t/\"\\");
  EXPECT_EQ(parsed.value.StringOr("u", ""), "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
  EXPECT_EQ(parsed.value.StringOr("z", ""), std::string("a\0b", 3));
  // Keys decode too, so an escaped spelling of a key is that key.
  EXPECT_FALSE(ParseJson(R"({"a": 1, "\u0061": 2})").valid);
}

TEST(JsonHardeningTest, RawControlCharactersRejectedInStrings) {
  for (const std::string& doc : {std::string("[\"a\tb\"]"), std::string("[\"0123456789abcdef\x01\"]"),
                                std::string("{\"0123456789\nabcdef\": 1}")}) {
    const JsonParseResult parsed = ParseJson(doc);
    ASSERT_FALSE(parsed.valid) << doc;
    EXPECT_NE(parsed.error.find("unescaped control character"), std::string::npos) << doc;
    EXPECT_EQ(parsed.error_offset, doc.find_first_of("\t\n\x01")) << doc;
    EXPECT_FALSE(LintJson(doc).valid) << doc;
  }
}

TEST(JsonHardeningTest, LoneSurrogatesRejectedWithPosition) {
  const char* lone[] = {R"(["\ud83d"])", R"(["\ud83dx"])", R"(["\ude00"])",
                        R"(["\ud83dA"])", R"(["\ud83d\ud83d"])"};
  for (const char* doc : lone) {
    const JsonParseResult parsed = ParseJson(doc);
    ASSERT_FALSE(parsed.valid) << doc;
    EXPECT_NE(parsed.error.find("lone surrogate"), std::string::npos) << doc;
    EXPECT_EQ(parsed.error_offset, 2u) << doc;  // the backslash opening the escape
    EXPECT_FALSE(LintJson(doc).valid) << doc;
  }
}

TEST(JsonHardeningTest, CursorPullsValuesInDocumentOrder) {
  JsonCursor cursor(R"( {"a": [1, "two", true, null], "b": {"c": -2.5e1}, "d": "x\"y"} )");
  ASSERT_TRUE(cursor.BeginObject());
  std::string_view key;
  ASSERT_TRUE(cursor.NextMember(&key));
  EXPECT_EQ(key, "a");
  ASSERT_TRUE(cursor.BeginArray());
  double number = 0.0;
  std::string_view text;
  bool flag = false;
  ASSERT_TRUE(cursor.NextItem() && cursor.ReadNumber(&number));
  EXPECT_EQ(number, 1.0);
  ASSERT_TRUE(cursor.NextItem() && cursor.ReadString(&text));
  EXPECT_EQ(text, "two");
  ASSERT_TRUE(cursor.NextItem() && cursor.ReadBool(&flag));
  EXPECT_TRUE(flag);
  ASSERT_TRUE(cursor.NextItem() && cursor.ReadNull());
  EXPECT_FALSE(cursor.NextItem());
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE(cursor.NextMember(&key));
  EXPECT_EQ(key, "b");
  EXPECT_EQ(cursor.Peek(), JsonCursor::Kind::kObject);
  ASSERT_TRUE(cursor.SkipValue());
  ASSERT_TRUE(cursor.NextMember(&key));
  EXPECT_EQ(key, "d");
  std::string copy;
  ASSERT_TRUE(cursor.ReadString(&copy));
  EXPECT_EQ(copy, "x\"y");
  EXPECT_FALSE(cursor.NextMember(&key));
  EXPECT_TRUE(cursor.Finish()) << cursor.error();

  // A type mismatch fails the cursor at the value, and the error sticks.
  JsonCursor mismatch(R"({"a": "text"})");
  ASSERT_TRUE(mismatch.BeginObject() && mismatch.NextMember(&key));
  EXPECT_FALSE(mismatch.ReadNumber(&number));
  EXPECT_EQ(mismatch.error_offset(), 6u);
  EXPECT_FALSE(mismatch.Finish());

  // Skipped values are checked as strictly as read ones.
  JsonCursor strict(R"({"skip": {"k": 1, "k": 2}})");
  EXPECT_FALSE(strict.SkipValue());
  EXPECT_NE(strict.error().find("duplicate object key"), std::string::npos);
  JsonCursor overflow(R"([1e999])");
  EXPECT_FALSE(overflow.SkipValue());
  JsonCursor lenient(R"({"skip": {"k": 1e999, "k": 2}})", /*strict=*/false);
  EXPECT_TRUE(lenient.SkipValue() && lenient.Finish());
}

}  // namespace
}  // namespace wdmlat::obs
