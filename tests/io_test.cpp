#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"
#include "log/io_csv.h"
#include "log/io_jsonl.h"
#include "test_util.h"
#include "workflow/clinic.h"

namespace wflog {
namespace {

using testing::make_log;

Log attr_rich_log() {
  LogBuilder b;
  const Wid w = b.begin_instance();
  b.append(w, "GetRefer", {},
           {{"hospital", Value{"Public Hospital"}},
            {"referId", Value{"034d1"}},
            {"balance", Value{std::int64_t{1000}}},
            {"rate", Value{0.5}},
            {"urgent", Value{true}},
            {"note", Value{"semi;colon, and \"quotes\""}}});
  b.append(w, "CheckIn",
           {{"referId", Value{"034d1"}}, {"balance", Value{std::int64_t{1000}}}},
           {{"state", Value{"active"}}});
  b.end_instance(w);
  return b.build();
}

bool logs_equal(const Log& a, const Log& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    const LogRecord& x = a.record(i);
    const LogRecord& y = b.record(i);
    if (x.lsn != y.lsn || x.wid != y.wid || x.is_lsn != y.is_lsn) {
      return false;
    }
    if (a.activity_name(x.activity) != b.activity_name(y.activity)) {
      return false;
    }
    // Compare maps attribute-by-attribute through names.
    auto maps_equal = [&](const AttrMap& m, const AttrMap& n) {
      if (m.size() != n.size()) return false;
      for (const AttrEntry& e : m) {
        const Symbol sym = b.interner().find(a.interner().name(e.attr));
        if (sym == kNoSymbol) return false;
        const Value* v = n.get(sym);
        if (v == nullptr || !(*v == e.value)) return false;
      }
      return true;
    };
    if (!maps_equal(x.in, y.in) || !maps_equal(x.out, y.out)) return false;
  }
  return true;
}

// ----- CSV --------------------------------------------------------------

TEST(CsvTest, HeaderAndRowCount) {
  const Log log = make_log("a b");
  const std::string csv = to_csv(log);
  std::istringstream is(csv);
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "lsn,wid,is_lsn,activity,input,output");
  std::size_t rows = 0;
  while (std::getline(is, line)) ++rows;
  EXPECT_EQ(rows, log.size());
}

TEST(CsvTest, RoundTripSimple) {
  const Log log = make_log("a b c ; b a");
  EXPECT_TRUE(logs_equal(log, csv_to_log(to_csv(log))));
}

TEST(CsvTest, RoundTripAttributeValues) {
  const Log log = attr_rich_log();
  EXPECT_TRUE(logs_equal(log, csv_to_log(to_csv(log))));
}

TEST(CsvTest, RoundTripFigure3) {
  const Log log = figure3_log();
  EXPECT_TRUE(logs_equal(log, csv_to_log(to_csv(log))));
}

TEST(CsvTest, RejectsEmptyInput) {
  EXPECT_THROW(csv_to_log(""), IoError);
}

TEST(CsvTest, RejectsBadHeader) {
  EXPECT_THROW(csv_to_log("foo,bar\n"), IoError);
}

TEST(CsvTest, RejectsWrongFieldCount) {
  EXPECT_THROW(
      csv_to_log("lsn,wid,is_lsn,activity,input,output\n1,1,1,START\n"),
      IoError);
}

TEST(CsvTest, RejectsNonNumericLsn) {
  EXPECT_THROW(
      csv_to_log("lsn,wid,is_lsn,activity,input,output\nx,1,1,START,-,-\n"),
      IoError);
}

TEST(CsvTest, ValidatesDefinition2) {
  // is-lsn 2 with START name violates condition 2.
  EXPECT_THROW(
      csv_to_log("lsn,wid,is_lsn,activity,input,output\n1,1,2,a,-,-\n"),
      ValidationError);
}

TEST(CsvTest, AcceptsCrLfAndBom) {
  const std::string csv =
      "\xef\xbb\xbflsn,wid,is_lsn,activity,input,output\r\n"
      "1,1,1,START,-,-\r\n";
  const Log log = csv_to_log(csv);
  EXPECT_EQ(log.size(), 1u);
}

TEST(CsvTest, DashMeansEmptyMap) {
  const Log log =
      csv_to_log("lsn,wid,is_lsn,activity,input,output\n1,1,1,START,-,-\n");
  EXPECT_TRUE(log.record(1).in.empty());
  EXPECT_TRUE(log.record(1).out.empty());
}

TEST(AttrMapCodecTest, RoundTrip) {
  Interner in;
  AttrMap m;
  m.set(in.intern("balance"), Value{std::int64_t{1000}});
  m.set(in.intern("state"), Value{"semi;colon"});
  m.set(in.intern("rate"), Value{0.25});
  const std::string text = attr_map_to_string(m, in);
  Interner in2;
  const AttrMap back = parse_attr_map(text, in2);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(*back.get(in2.find("balance")), Value{std::int64_t{1000}});
  EXPECT_EQ(*back.get(in2.find("state")), Value{"semi;colon"});
  EXPECT_EQ(*back.get(in2.find("rate")), Value{0.25});
}

TEST(AttrMapCodecTest, RejectsMissingEquals) {
  Interner in;
  EXPECT_THROW(parse_attr_map("novalue", in), IoError);
}

TEST(AttrMapCodecTest, RejectsBadAttrName) {
  Interner in;
  EXPECT_THROW(parse_attr_map("9bad=1", in), IoError);
}

// ----- JSONL ------------------------------------------------------------

TEST(JsonlTest, RoundTripSimple) {
  const Log log = make_log("a b ; c");
  EXPECT_TRUE(logs_equal(log, jsonl_to_log(to_jsonl(log))));
}

TEST(JsonlTest, RoundTripAttributeValues) {
  const Log log = attr_rich_log();
  EXPECT_TRUE(logs_equal(log, jsonl_to_log(to_jsonl(log))));
}

TEST(JsonlTest, RoundTripFigure3) {
  const Log log = figure3_log();
  EXPECT_TRUE(logs_equal(log, jsonl_to_log(to_jsonl(log))));
}

TEST(JsonlTest, OneObjectPerLine) {
  const Log log = make_log("a");
  const std::string jsonl = to_jsonl(log);
  std::size_t lines = 0;
  for (char c : jsonl) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, log.size());
}

TEST(JsonlTest, SkipsUnknownKeys) {
  const Log log = jsonl_to_log(
      R"({"lsn":1,"wid":1,"is_lsn":1,"activity":"START","in":{},"out":{},"extra":{"a":1}})"
      "\n");
  EXPECT_EQ(log.size(), 1u);
}

TEST(JsonlTest, AnyKeyOrder) {
  const Log log = jsonl_to_log(
      R"({"activity":"START","in":{},"out":{},"is_lsn":1,"wid":1,"lsn":1})"
      "\n");
  EXPECT_EQ(log.size(), 1u);
}

TEST(JsonlTest, TypedValues) {
  const Log log = jsonl_to_log(
      R"({"lsn":1,"wid":1,"is_lsn":1,"activity":"START","in":{},"out":{}})"
      "\n"
      R"({"lsn":2,"wid":1,"is_lsn":2,"activity":"a","in":{},"out":{"i":7,"d":0.5,"b":true,"s":"x","n":null}})"
      "\n");
  const LogRecord& l = log.record(2);
  const Interner& in = log.interner();
  EXPECT_EQ(*l.out.get(in.find("i")), Value{std::int64_t{7}});
  EXPECT_EQ(*l.out.get(in.find("d")), Value{0.5});
  EXPECT_EQ(*l.out.get(in.find("b")), Value{true});
  EXPECT_EQ(*l.out.get(in.find("s")), Value{"x"});
  EXPECT_EQ(*l.out.get(in.find("n")), Value{});
}

TEST(JsonlTest, EscapedStringsRoundTrip) {
  LogBuilder b;
  const Wid w = b.begin_instance();
  b.append(w, "a", {}, {{"s", Value{"line\nbreak \"q\" \\slash\t"}}});
  const Log log = b.build();
  EXPECT_TRUE(logs_equal(log, jsonl_to_log(to_jsonl(log))));
}

TEST(JsonlTest, EscapesAndUnknownKeysRoundTrip) {
  // Escapes in activity names, attribute names and values, decoded the same
  // whether the string is a key, a name or a value.
  LogBuilder b;
  const Wid w = b.begin_instance();
  b.append(w, "say \"hi\"\\now", {{"k\"ey", Value{"a\\b"}}},
           {{"ctl\x01", Value{"line\nbreak \x1f end"}},
            {"plain", Value{"no escapes"}}});
  b.end_instance(w);
  const Log log = b.build();
  EXPECT_TRUE(logs_equal(log, jsonl_to_log(to_jsonl(log))));
  Interner interner;
  for (std::size_t i = 1; i <= log.size(); ++i) {
    std::string line = to_store_line(log.record(i), log.interner());
    line.pop_back();  // the store splits lines before parsing them
    const LogRecord back = parse_store_line(line, interner);
    EXPECT_EQ(interner.name(back.activity),
              log.activity_name(log.record(i).activity));
  }

  // Hand-written: \u00XX escapes, and unknown keys that share a length or
  // a first byte with a known one, holding objects and escaped strings.
  const Log parsed = jsonl_to_log(
      R"({"ls":1,"lsnx":{"lsn":9},"lsn":1,"wid":1,"wod":"x","is_lsn":1,)"
      R"("is-lsn":2,"activity":"START","activitY":"\"}","i":{},"in":{},)"
      R"("out":{},"ou":"\\"})"
      "\n"
      R"({"lsn":2,"wid":1,"is_lsn":2,"activity":"A\u00e9","in":{},)"
      R"("out":{"k\"":"v\n\\\"","\u0007":1}})"
      "\n");
  ASSERT_EQ(parsed.size(), 2u);
  const LogRecord& l = parsed.record(2);
  EXPECT_EQ(parsed.activity_name(l.activity), "A\xc3\xa9");
  const Interner& in = parsed.interner();
  ASSERT_NE(in.find("k\""), kNoSymbol);
  EXPECT_EQ(*l.out.get(in.find("k\"")), Value{"v\n\\\""});
  EXPECT_EQ(*l.out.get(in.find("\x07")), Value{std::int64_t{1}});
  EXPECT_EQ(parsed.record(1).lsn, 1u);
}

TEST(JsonlTest, MalformedLineReportsLineNumber) {
  try {
    jsonl_to_log("{\"lsn\":1,\"wid\":1,\"is_lsn\":1,\"activity\":\"START\","
                 "\"in\":{},\"out\":{}}\n{broken\n");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(JsonlTest, CrossFormatEquivalence) {
  const Log log = attr_rich_log();
  const Log via_csv = csv_to_log(to_csv(log));
  const Log via_jsonl = jsonl_to_log(to_jsonl(log));
  EXPECT_TRUE(logs_equal(via_csv, via_jsonl));
}

}  // namespace
}  // namespace wflog
