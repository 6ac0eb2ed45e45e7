// Tests of the dictionary-encoded string ingestion path: raw CSV ->
// per-column ValueDictionary -> columnar table -> anonymize -> decoded
// (human-readable) release, plus the format detection front-end and the
// structured CsvError reporting of the coded reader.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "anonymity/release.h"
#include "engine/report.h"
#include "common/csv.h"
#include "core/anonymizer.h"
#include "data/dataset.h"
#include "test_util.h"

namespace ldv {
namespace {

std::string WriteTempFile(const std::string& name, const std::string& content) {
  std::string path = testing::TempDir() + name;
  std::ofstream out(path);
  out << content;
  return path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

TEST(ValueDictionary, InsertionOrderedCodes) {
  ValueDictionary dict;
  EXPECT_TRUE(dict.empty());
  EXPECT_EQ(dict.GetOrAdd("flu"), 0u);
  EXPECT_EQ(dict.GetOrAdd("asthma"), 1u);
  EXPECT_EQ(dict.GetOrAdd("flu"), 0u);  // stable on re-sight
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.label(1), "asthma");
  ASSERT_NE(dict.Find("asthma"), nullptr);
  EXPECT_EQ(*dict.Find("asthma"), 1u);
  EXPECT_EQ(dict.Find("unknown"), nullptr);
}

TEST(RawCsv, BuildsDictionariesInFirstOccurrenceOrder) {
  std::string path = WriteTempFile(
      "raw_basic.csv",
      "City,Job,Disease\nLisbon,nurse,flu\nPorto,teacher,asthma\nLisbon,nurse,flu\n");
  CsvError error;
  std::optional<Table> table = ReadRawTableCsv(path, &error);
  ASSERT_TRUE(table.has_value()) << error.ToString();
  EXPECT_EQ(table->size(), 3u);
  EXPECT_EQ(table->qi_count(), 2u);
  const Schema& schema = table->schema();
  EXPECT_EQ(schema.qi(0).name, "City");
  EXPECT_EQ(schema.qi(0).domain_size, 2u);
  EXPECT_EQ(schema.qi(0).dictionary.label(0), "Lisbon");
  EXPECT_EQ(schema.qi(0).dictionary.label(1), "Porto");
  EXPECT_EQ(schema.sensitive().name, "Disease");
  EXPECT_EQ(schema.sensitive().dictionary.label(1), "asthma");
  EXPECT_TRUE(schema.has_dictionaries());
  // Codes follow first occurrence: Lisbon=0, Porto=1; flu=0, asthma=1.
  EXPECT_EQ(table->qi(0, 0), 0u);
  EXPECT_EQ(table->qi(1, 0), 1u);
  EXPECT_EQ(table->qi(2, 0), 0u);
  EXPECT_EQ(table->sa(1), 1u);
  std::remove(path.c_str());
}

TEST(RawCsv, QuotedLabelsRoundTrip) {
  std::string path = WriteTempFile("raw_quoted.csv",
                                   "City,Disease\n\"Porto, Norte\",\"flu \"\"A\"\"\"\nBraga,flu\n");
  CsvError error;
  std::optional<Table> table = ReadRawTableCsv(path, &error);
  ASSERT_TRUE(table.has_value()) << error.ToString();
  EXPECT_EQ(table->schema().qi(0).dictionary.label(0), "Porto, Norte");
  EXPECT_EQ(table->schema().sensitive().dictionary.label(0), "flu \"A\"");
  // The escaper reproduces parseable cells for both labels.
  EXPECT_EQ(CsvEscapeCell("Porto, Norte"), "\"Porto, Norte\"");
  EXPECT_EQ(CsvEscapeCell("flu \"A\""), "\"flu \"\"A\"\"\"");
  std::remove(path.c_str());
}

TEST(RawCsv, CrlfLineEndingsDoNotLeakIntoLabels) {
  // Windows/Excel CSVs end lines with \r\n; the carriage return must
  // never become part of the last column's labels or the header name.
  std::string path = WriteTempFile("raw_crlf.csv",
                                   "City,Disease\r\nLisbon,flu\r\nPorto,asthma\r\n\r\n");
  CsvError error;
  std::optional<Table> table = ReadRawTableCsv(path, &error);
  ASSERT_TRUE(table.has_value()) << error.ToString();
  EXPECT_EQ(table->size(), 2u);  // the trailing blank CRLF line is skipped
  EXPECT_EQ(table->schema().sensitive().name, "Disease");
  EXPECT_EQ(table->schema().sensitive().dictionary.label(0), "flu");
  EXPECT_EQ(table->schema().sensitive().dictionary.label(1), "asthma");
  // Coded loads and detection tolerate CRLF the same way.
  std::string detect_error;
  std::string coded = WriteTempFile("coded_crlf.csv", "A1,B\r\n1,0\r\n");
  EXPECT_EQ(DetectCsvFormat(coded, &detect_error), CsvFormat::kCoded);
  Schema schema = testutil::MakeSchema({2}, 2);
  CsvError coded_error;
  std::optional<Table> coded_table = ReadTableCsv(schema, coded, &coded_error);
  ASSERT_TRUE(coded_table.has_value()) << coded_error.ToString();
  EXPECT_EQ(coded_table->qi(0, 0), 1u);
  std::remove(path.c_str());
  std::remove(coded.c_str());
}

TEST(RawCsv, StructuredErrorsCarryLineAndColumn) {
  CsvError error;
  // Ragged row.
  std::string ragged = WriteTempFile("raw_ragged.csv", "A,B\nx,y\nonly_one_cell\n");
  EXPECT_FALSE(ReadRawTableCsv(ragged, &error).has_value());
  EXPECT_EQ(error.line, 3u);
  EXPECT_NE(error.ToString().find(ragged + ":3"), std::string::npos) << error.ToString();
  std::remove(ragged.c_str());
  // Empty cell.
  std::string empty_cell = WriteTempFile("raw_empty_cell.csv", "A,B\nx,\n");
  EXPECT_FALSE(ReadRawTableCsv(empty_cell, &error).has_value());
  EXPECT_EQ(error.line, 2u);
  EXPECT_EQ(error.column, 2u);
  std::remove(empty_cell.c_str());
  // No data rows.
  std::string header_only = WriteTempFile("raw_header_only.csv", "A,B\n");
  EXPECT_FALSE(ReadRawTableCsv(header_only, &error).has_value());
  EXPECT_NE(error.reason.find("no data rows"), std::string::npos);
  std::remove(header_only.c_str());
  // Missing file.
  EXPECT_FALSE(ReadRawTableCsv(testing::TempDir() + "raw_nope.csv", &error).has_value());
  EXPECT_NE(error.reason.find("cannot open"), std::string::npos);
}

TEST(RawCsv, TruncatedQuotedCellIsAPositionedErrorNotEofSuccess) {
  // A file whose final chunk ends mid-quoted-field (e.g. a truncated
  // download) used to EOF-succeed with the partial label silently
  // treated as a closed quote; ingestion must reject it with the line
  // and cell of the open quote instead.
  CsvError error;
  std::string truncated =
      WriteTempFile("raw_truncated.csv", "City,Disease\nLisbon,flu\nPorto,\"ast");
  EXPECT_FALSE(ReadRawTableCsv(truncated, &error).has_value());
  EXPECT_EQ(error.line, 3u);
  EXPECT_EQ(error.column, 2u);
  EXPECT_NE(error.reason.find("unterminated quoted cell"), std::string::npos)
      << error.ToString();
  std::remove(truncated.c_str());

  // Same rejection mid-file: line-oriented ingestion never spans records
  // across newlines, so an unclosed quote on any line is an error.
  std::string mid_file =
      WriteTempFile("raw_midquote.csv", "City,Disease\n\"Lisbon,flu\nPorto,asthma\n");
  EXPECT_FALSE(ReadRawTableCsv(mid_file, &error).has_value());
  EXPECT_EQ(error.line, 2u);
  EXPECT_EQ(error.column, 1u);
  std::remove(mid_file.c_str());

  // The coded reader rejects the same shape.
  Schema schema = testutil::MakeSchema({5}, 3);
  std::string coded = WriteTempFile("coded_truncated.csv", "A1,B\n1,\"0");
  EXPECT_FALSE(ReadTableCsv(schema, coded, &error).has_value());
  EXPECT_EQ(error.line, 2u);
  EXPECT_EQ(error.column, 2u);
  EXPECT_NE(error.reason.find("unterminated"), std::string::npos);
  std::remove(coded.c_str());

  // The low-level splitter reports the open cell; the legacy silent
  // wrapper still closes it (writers never emit such lines).
  std::vector<std::string> cells;
  std::size_t open_cell = 0;
  EXPECT_FALSE(SplitCsvRecord("a,\"b", &cells, &open_cell));
  EXPECT_EQ(open_cell, 2u);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[1], "b");
  EXPECT_TRUE(SplitCsvRecord("a,\"b\"", &cells, &open_cell));
}

TEST(CodedCsv, HeaderIsValidatedAgainstSchema) {
  Schema schema({Attribute{"Age", 5}, Attribute{"Gender", 2}}, Attribute{"Income", 3});
  CsvError error;
  // Wrong column count in the header.
  std::string short_header = WriteTempFile("coded_short.csv", "Age,Income\n1,0\n");
  EXPECT_FALSE(ReadTableCsv(schema, short_header, &error).has_value());
  EXPECT_EQ(error.line, 1u);
  EXPECT_NE(error.reason.find("header"), std::string::npos) << error.ToString();
  std::remove(short_header.c_str());
  // Mismatched name, with its column position.
  std::string wrong_name = WriteTempFile("coded_wrong_name.csv", "Age,Sex,Income\n1,0,0\n");
  EXPECT_FALSE(ReadTableCsv(schema, wrong_name, &error).has_value());
  EXPECT_EQ(error.line, 1u);
  EXPECT_EQ(error.column, 2u);
  EXPECT_NE(error.reason.find("Sex"), std::string::npos);
  std::remove(wrong_name.c_str());
  // Generated placeholder names (unnamed --schema specs) accept any header.
  Schema placeholders({Attribute{"Q1", 5}, Attribute{"Q2", 2}}, Attribute{"S", 3});
  std::string named = WriteTempFile("coded_placeholder.csv", "Age,Gender,Income\n1,0,0\n");
  EXPECT_TRUE(ReadTableCsv(placeholders, named, &error).has_value()) << error.ToString();
  std::remove(named.c_str());
}

TEST(CodedCsv, CellErrorsCarryLineColumnAndReason) {
  Schema schema({Attribute{"Age", 5}}, Attribute{"Income", 3});
  CsvError error;
  std::string bad_cell = WriteTempFile("coded_bad_cell.csv", "Age,Income\n1,0\nyoung,0\n");
  EXPECT_FALSE(ReadTableCsv(schema, bad_cell, &error).has_value());
  EXPECT_EQ(error.line, 3u);
  EXPECT_EQ(error.column, 1u);
  EXPECT_NE(error.reason.find("young"), std::string::npos);
  std::remove(bad_cell.c_str());

  std::string out_of_domain = WriteTempFile("coded_oob.csv", "Age,Income\n1,7\n");
  EXPECT_FALSE(ReadTableCsv(schema, out_of_domain, &error).has_value());
  EXPECT_EQ(error.line, 2u);
  EXPECT_EQ(error.column, 2u);
  EXPECT_NE(error.reason.find("[0, 3)"), std::string::npos) << error.ToString();
  EXPECT_NE(error.reason.find("Income"), std::string::npos);
  std::remove(out_of_domain.c_str());
}

TEST(FormatDetection, SniffsCodedVersusRaw) {
  std::string error;
  std::string coded = WriteTempFile("detect_coded.csv", "A,B\n3,0\n");
  EXPECT_EQ(DetectCsvFormat(coded, &error), CsvFormat::kCoded);
  std::string raw = WriteTempFile("detect_raw.csv", "A,B\nLisbon,flu\n");
  EXPECT_EQ(DetectCsvFormat(raw, &error), CsvFormat::kRaw);
  std::string header_only = WriteTempFile("detect_empty.csv", "A,B\n");
  EXPECT_FALSE(DetectCsvFormat(header_only, &error).has_value());
  EXPECT_NE(error.find("no data rows"), std::string::npos);
  // LoadTableCsv resolves auto: a raw file loads without a schema...
  std::optional<Table> table = LoadTableCsv(raw, CsvFormat::kAuto, nullptr, &error);
  ASSERT_TRUE(table.has_value()) << error;
  EXPECT_TRUE(table->schema().has_dictionaries());
  // ...while a coded-looking file without a schema is rejected.
  EXPECT_FALSE(LoadTableCsv(coded, CsvFormat::kAuto, nullptr, &error).has_value());
  EXPECT_NE(error.find("integer-coded"), std::string::npos) << error;
  for (const std::string& path : {coded, raw, header_only}) std::remove(path.c_str());
}

TEST(DictionaryRoundTrip, RawCsvThroughSuppressionReleaseDecodesLabels) {
  // Raw string CSV -> anonymize (TP+) -> release: stars stay '*', every
  // other cell decodes to its label, and parsing the release back with the
  // ingested schema recovers the codes.
  CsvError csv_error;
  std::optional<Table> table = ReadRawTableCsv("tests/data/micro_raw.csv", &csv_error);
  if (!table.has_value()) {
    // ctest may run from the build directory; resolve via the source dir.
    table = ReadRawTableCsv(std::string(LDIV_SOURCE_DIR) + "/tests/data/micro_raw.csv", &csv_error);
  }
  ASSERT_TRUE(table.has_value()) << csv_error.ToString();
  AnonymizationOutcome outcome = Anonymize(*table, 2, Algorithm::kTpPlus);
  ASSERT_TRUE(outcome.feasible);

  std::string stem = testing::TempDir() + "dict_round_trip";
  std::string error;
  ASSERT_TRUE(WriteReleaseForOutcome(*table, outcome, stem, &error)) << error;
  std::string release = ReadFile(stem + ".csv");
  EXPECT_NE(release.find("City,Occupation,Disease"), std::string::npos);
  // Labels, not codes: at least one known city and disease must appear.
  EXPECT_NE(release.find("flu"), std::string::npos);

  std::optional<std::vector<ReleaseRow>> rows = ReadReleaseCsv(table->schema(), stem + ".csv");
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows->size(), table->size());
  std::uint64_t stars = 0;
  std::vector<std::uint32_t> sa_histogram(table->schema().sa_domain_size(), 0);
  for (const ReleaseRow& row : *rows) {
    for (Value v : row.qi) stars += IsStar(v) ? 1 : 0;
    ++sa_histogram[row.sa];
  }
  EXPECT_EQ(stars, outcome.stars);
  EXPECT_EQ(sa_histogram, table->SaHistogramCounts());
  std::remove((stem + ".csv").c_str());
}

TEST(DictionaryRoundTrip, AnatomyBucketPairDecodesLabels) {
  std::string path = WriteTempFile("dict_anatomy.csv",
                                   "City,Disease\n"
                                   "Lisbon,flu\nLisbon,asthma\nPorto,flu\nPorto,asthma\n"
                                   "Braga,flu\nBraga,asthma\nFaro,flu\nFaro,asthma\n");
  CsvError csv_error;
  std::optional<Table> table = ReadRawTableCsv(path, &csv_error);
  ASSERT_TRUE(table.has_value()) << csv_error.ToString();
  AnonymizationOutcome outcome = Anonymize(*table, 2, Algorithm::kAnatomy);
  ASSERT_TRUE(outcome.feasible);
  std::string stem = testing::TempDir() + "dict_anatomy_release";
  std::string error;
  ASSERT_TRUE(WriteReleaseForOutcome(*table, outcome, stem, &error)) << error;
  std::string qit = ReadFile(stem + ".csv");
  EXPECT_NE(qit.find("City,Bucket"), std::string::npos);
  EXPECT_NE(qit.find("Lisbon"), std::string::npos);
  std::string st = ReadFile(stem + "_sa.csv");
  EXPECT_NE(st.find("Bucket,Disease,Count"), std::string::npos);
  EXPECT_NE(st.find("asthma"), std::string::npos);
  for (const std::string& p : {path, stem + ".csv", stem + "_sa.csv"}) std::remove(p.c_str());
}

TEST(DictionaryCsv, SerializesAttributeCodeLabelRows) {
  std::string path = WriteTempFile("dict_sidecar_in.csv", "City,Disease\nLisbon,flu\nPorto,flu\n");
  CsvError csv_error;
  std::optional<Table> table = ReadRawTableCsv(path, &csv_error);
  ASSERT_TRUE(table.has_value()) << csv_error.ToString();
  std::string dict_path = testing::TempDir() + "dict_sidecar_out.csv";
  ASSERT_TRUE(WriteDictionaryCsv(table->schema(), dict_path));
  EXPECT_EQ(ReadFile(dict_path),
            "attribute,code,label\n"
            "City,0,Lisbon\n"
            "City,1,Porto\n"
            "Disease,0,flu\n");
  std::remove(path.c_str());
  std::remove(dict_path.c_str());
}

// A full disk must fail the sidecar even when the whole file fits in one
// write buffer, i.e. when only the final flush can see the error.
TEST(DictionaryCsv, FullDiskFailsTheWrite) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no writable /dev/full here";
  std::string path = WriteTempFile("dict_full_in.csv", "City,Disease\nLisbon,flu\nPorto,flu\n");
  CsvError csv_error;
  std::optional<Table> table = ReadRawTableCsv(path, &csv_error);
  ASSERT_TRUE(table.has_value()) << csv_error.ToString();
  std::string error;
  EXPECT_FALSE(WriteDictionaryCsv(table->schema(), "/dev/full", &error));
  EXPECT_NE(error.find("cannot write '/dev/full': "), std::string::npos) << error;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ldv
