// Tests for JSON parsing/serialization and table/corpus/CSV io.
#include <gtest/gtest.h>

#include <cstdio>

#include "io/json.h"
#include "io/table_io.h"
#include "test_tables.h"

namespace tabbin {
namespace {

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(JsonTest, ParsePrimitives) {
  EXPECT_TRUE(Json::Parse("null").value().is_null());
  EXPECT_TRUE(Json::Parse("true").value().as_bool());
  EXPECT_FALSE(Json::Parse("false").value().as_bool());
  EXPECT_DOUBLE_EQ(Json::Parse("3.25").value().as_number(), 3.25);
  EXPECT_DOUBLE_EQ(Json::Parse("-17").value().as_number(), -17.0);
  EXPECT_EQ(Json::Parse("\"hi\"").value().as_string(), "hi");
}

TEST(JsonTest, ParseNestedStructures) {
  auto r = Json::Parse(R"({"a": [1, 2, {"b": "c"}], "d": null})");
  ASSERT_TRUE(r.ok());
  const Json& j = r.value();
  ASSERT_TRUE(j.is_object());
  ASSERT_TRUE(j["a"].is_array());
  EXPECT_EQ(j["a"].array_size(), 3u);
  EXPECT_EQ(j["a"].at(2)["b"].as_string(), "c");
  EXPECT_TRUE(j["d"].is_null());
}

TEST(JsonTest, ParseEscapes) {
  auto r = Json::Parse(R"("line\nbreak \"quoted\" A")");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().as_string(), "line\nbreak \"quoted\" A");
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]2").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("12 34").ok());
  EXPECT_FALSE(Json::Parse("").ok());
}

TEST(JsonTest, DumpParseRoundTrip) {
  Json obj = Json::Object();
  obj.Set("name", Json::Str("tab\"bin"));
  obj.Set("count", Json::Number(42));
  obj.Set("pi", Json::Number(3.5));
  Json arr = Json::Array();
  arr.Append(Json::Bool(true));
  arr.Append(Json::Null());
  obj.Set("list", std::move(arr));

  auto round = Json::Parse(obj.Dump());
  ASSERT_TRUE(round.ok());
  const Json& j = round.value();
  EXPECT_EQ(j.GetString("name"), "tab\"bin");
  EXPECT_DOUBLE_EQ(j.GetNumber("count"), 42);
  EXPECT_TRUE(j["list"].at(0).as_bool());
  EXPECT_TRUE(j["list"].at(1).is_null());
}

// A JSON string literal whose text is `body`; U(hex) spells one
// \uXXXX escape.
std::string Quoted(const std::string& body) { return "\"" + body + "\""; }
std::string U(const char* hex) { return std::string("\\u") + hex; }

// A UTF-16 surrogate pair is one astral code point: it must decode to
// one 4-byte UTF-8 sequence, not two 3-byte halves (CESU-8).
TEST(JsonTest, SurrogatePairDecodesToOneUtf8Sequence) {
  auto r = Json::Parse(Quoted(U("d83d") + U("de00")));  // U+1F600
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().as_string(), "\xF0\x9F\x98\x80");
  // Upper-case hex, text around the pair, and BMP escapes beside it.
  auto mixed = Json::Parse(
      Quoted("a" + U("D834") + U("DD1E") + "b" + U("00e9") + U("4e2d")));
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  EXPECT_EQ(mixed.value().as_string(),
            "a\xF0\x9D\x84\x9E"  // U+1D11E
            "b\xC3\xA9\xE4\xB8\xAD");
}

TEST(JsonTest, RejectsLoneAndUnpairedSurrogates) {
  const std::string bad[] = {
      Quoted(U("d83d")),              // lone high surrogate at the end
      Quoted(U("d83d") + "x"),        // high surrogate, then plain text
      Quoted(U("de00")),              // lone low surrogate
      Quoted(U("de00") + U("d83d")),  // a pair in the wrong order
      Quoted(U("d83d") + U("0041")),  // high surrogate, non-surrogate
      Quoted(U("d83d") + U("d83d")),  // high surrogate, another high
      Quoted(U("d83d") + "\\n"),     // high surrogate, another escape
  };
  for (const std::string& text : bad) {
    auto r = Json::Parse(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << text;
  }
}

TEST(JsonTest, AstralTextRoundTripsThroughDump) {
  auto parsed = Json::Parse("{\"caption\": " +
                            Quoted("smile " + U("d83d") + U("de00") +
                                   " done") +
                            "}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::string caption = parsed.value().GetString("caption");
  EXPECT_EQ(caption, "smile \xF0\x9F\x98\x80 done");
  // Dump writes the UTF-8 bytes as they are; parsing them back gives
  // the same string.
  auto again = Json::Parse(parsed.value().Dump());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().GetString("caption"), caption);
}

TEST(JsonTest, CheckedGettersUseFallbacks) {
  Json obj = Json::Object();
  obj.Set("x", Json::Str("not a number"));
  EXPECT_DOUBLE_EQ(obj.GetNumber("x", 5.0), 5.0);
  EXPECT_DOUBLE_EQ(obj.GetNumber("missing", 7.0), 7.0);
  EXPECT_EQ(obj.GetString("missing", "dflt"), "dflt");
}

// ---------------------------------------------------------------------------
// Table <-> JSON
// ---------------------------------------------------------------------------

TEST(TableIoTest, RelationalRoundTrip) {
  Table t = MakeRelationalTable();
  auto r = TableFromJson(TableToJson(t));
  ASSERT_TRUE(r.ok());
  const Table& u = r.value();
  EXPECT_EQ(u.rows(), t.rows());
  EXPECT_EQ(u.cols(), t.cols());
  EXPECT_EQ(u.hmd_rows(), 1);
  EXPECT_EQ(u.caption(), "People");
  EXPECT_EQ(u.cell(1, 0).value.text(), "Sam");
  EXPECT_DOUBLE_EQ(u.cell(1, 1).value.number(), 35.0);
}

TEST(TableIoTest, NestedAndTypedValuesRoundTrip) {
  Table t = MakeOncologyTable();
  auto r = TableFromJson(TableToJson(t));
  ASSERT_TRUE(r.ok());
  const Table& u = r.value();
  // Nested table preserved recursively.
  ASSERT_TRUE(u.cell(2, 7).has_nested());
  EXPECT_EQ(u.cell(2, 7).nested->cell(0, 0).value.text(), "OS");
  EXPECT_DOUBLE_EQ(u.cell(2, 7).nested->cell(1, 0).value.number(), 20.3);
  EXPECT_EQ(u.cell(2, 7).nested->cell(1, 0).value.unit(), UnitCategory::kTime);
  // Range and gaussian kinds survive.
  EXPECT_EQ(u.cell(3, 4).value.kind(), ValueKind::kRange);
  EXPECT_EQ(u.cell(4, 5).value.kind(), ValueKind::kGaussian);
  EXPECT_DOUBLE_EQ(u.cell(4, 5).value.stddev(), 1.1);
  EXPECT_EQ(u.topic(), "oncology");
}

TEST(TableIoTest, RejectsCorruptJson) {
  EXPECT_FALSE(TableFromJson(Json::Str("nope")).ok());
  Json j = Json::Object();
  j.Set("rows", Json::Number(0));
  j.Set("cols", Json::Number(3));
  EXPECT_FALSE(TableFromJson(j).ok());
}

TEST(TableIoTest, RejectsOutOfRangeCell) {
  Table t(2, 2, 1, 0);
  t.SetValue(0, 0, Value::String("a"));
  Json j = TableToJson(t);
  // Corrupt a cell coordinate.
  Json cells = Json::Array();
  Json bad = Json::Object();
  bad.Set("r", Json::Number(9));
  bad.Set("c", Json::Number(0));
  cells.Append(std::move(bad));
  j.Set("cells", std::move(cells));
  EXPECT_FALSE(TableFromJson(j).ok());
}

TEST(TableIoTest, CorpusFileRoundTrip) {
  Corpus corpus;
  corpus.name = "test-corpus";
  corpus.tables.push_back(MakeOncologyTable());
  corpus.tables.push_back(MakeRelationalTable());
  const std::string path = "/tmp/tabbin_corpus_test.json";
  ASSERT_TRUE(SaveCorpus(corpus, path).ok());
  auto r = LoadCorpus(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().name, "test-corpus");
  ASSERT_EQ(r.value().tables.size(), 2u);
  EXPECT_TRUE(r.value().tables[0].HasNesting());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

TEST(CsvTest, BasicImport) {
  auto r = TableFromCsv("Name,Age\nSam,35\nMia,29\n", "People");
  ASSERT_TRUE(r.ok());
  const Table& t = r.value();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_EQ(t.hmd_rows(), 1);
  EXPECT_EQ(t.cell(0, 0).value.text(), "Name");
  EXPECT_EQ(t.cell(1, 1).value.kind(), ValueKind::kNumber);
  EXPECT_DOUBLE_EQ(t.cell(1, 1).value.number(), 35.0);
}

TEST(CsvTest, QuotedFieldsWithCommasAndQuotes) {
  auto r = TableFromCsv("A,B\n\"x, y\",\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().cell(1, 0).value.text(), "x, y");
  EXPECT_EQ(r.value().cell(1, 1).value.text(), "say \"hi\"");
}

TEST(CsvTest, ParsesTypedValues) {
  auto r = TableFromCsv("Metric,Value\nOS,20.3 months\nAge,20-30\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().cell(1, 1).value.kind(), ValueKind::kNumber);
  EXPECT_EQ(r.value().cell(1, 1).value.unit(), UnitCategory::kTime);
  EXPECT_EQ(r.value().cell(2, 1).value.kind(), ValueKind::kRange);
}

TEST(CsvTest, HandlesCrLfAndBlankLines) {
  auto r = TableFromCsv("A,B\r\n\r\n1,2\r\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows(), 2);
}

TEST(CsvTest, EmptyInputFails) {
  EXPECT_FALSE(TableFromCsv("").ok());
  EXPECT_FALSE(TableFromCsv("\n\n").ok());
}

TEST(CsvTest, ExportRoundTrip) {
  Table t = MakeRelationalTable();
  std::string csv = TableToCsv(t);
  auto r = TableFromCsv(csv, t.caption());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows(), t.rows());
  EXPECT_EQ(r.value().cell(3, 2).value.text(), "Scientist");
}

TEST(CsvTest, NestedCellsFlattenedOnExport) {
  Table t = MakeOncologyTable();
  std::string csv = TableToCsv(t);
  EXPECT_NE(csv.find("[nested 2x2]"), std::string::npos);
}

}  // namespace
}  // namespace tabbin
