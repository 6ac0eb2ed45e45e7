// Byte-identity oracle for the output writers. The reference writers below
// are the per-cell loops the writers used before they moved onto
// OutputSink: the suppression view decoded every cell to its own
// std::string and pushed it through an ofstream, and the Anatomy pair grew
// two whole-file strings with += and scanned the whole SA domain per
// bucket. Every case writes one outcome through both and compares the
// files byte for byte: labels that need escaping, multi-digit codes,
// groups without stars and groups starred on every attribute, buckets
// holding several SA codes, and tables that cross the sink's flush chunk
// many times.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "anonymity/generalization.h"
#include "anonymity/release.h"
#include "common/csv.h"
#include "common/rng.h"
#include "core/anonymizer.h"
#include "engine/report.h"
#include "test_util.h"

namespace ldv {
namespace {

// ---- Reference writers ----------------------------------------------------

std::string ReferenceDecode(const Attribute& attr, Value v) {
  if (attr.has_dictionary()) return CsvEscapeCell(attr.dictionary.label(v));
  return std::to_string(v);
}

void ReferenceReleaseCsv(const Table& table, const GeneralizedTable& generalized,
                         const std::string& path) {
  std::ofstream out(path);
  const Schema& schema = table.schema();
  for (std::size_t a = 0; a < schema.qi_count(); ++a) {
    out << CsvEscapeCell(schema.qi(static_cast<AttrId>(a)).name) << ",";
  }
  out << CsvEscapeCell(schema.sensitive().name) << "\n";
  for (GroupId g = 0; g < generalized.group_count(); ++g) {
    const std::vector<Value>& sig = generalized.signature(g);
    for (RowId r : generalized.rows(g)) {
      for (std::size_t a = 0; a < sig.size(); ++a) {
        if (IsStar(sig[a])) {
          out << "*,";
        } else {
          out << ReferenceDecode(schema.qi(static_cast<AttrId>(a)), sig[a]) << ",";
        }
      }
      out << ReferenceDecode(schema.sensitive(), table.sa(r)) << "\n";
    }
  }
}

void ReferenceAnatomyPair(const Table& table, const Partition& buckets, const std::string& stem) {
  const Schema& schema = table.schema();
  std::string qit;
  for (std::size_t a = 0; a < schema.qi_count(); ++a) {
    qit += CsvEscapeCell(schema.qi(static_cast<AttrId>(a)).name) + ",";
  }
  qit += "Bucket\n";
  std::string st = "Bucket," + CsvEscapeCell(schema.sensitive().name) + ",Count\n";
  std::vector<std::uint32_t> sa_counts(schema.sa_domain_size(), 0);
  for (GroupId g = 0; g < buckets.group_count(); ++g) {
    for (RowId row : buckets.group(g)) {
      for (AttrId a = 0; a < table.qi_count(); ++a) {
        qit += ReferenceDecode(schema.qi(a), table.qi(row, a)) + ",";
      }
      qit += std::to_string(g) + "\n";
      ++sa_counts[table.sa(row)];
    }
    for (SaValue v = 0; v < sa_counts.size(); ++v) {
      if (sa_counts[v] == 0) continue;
      st += std::to_string(g) + "," + ReferenceDecode(schema.sensitive(), v) + "," +
            std::to_string(sa_counts[v]) + "\n";
      sa_counts[v] = 0;
    }
  }
  std::ofstream(stem + ".csv") << qit;
  std::ofstream(stem + "_sa.csv") << st;
}

void ReferenceTableCsv(const Table& table, const std::string& path) {
  std::ofstream out(path);
  const Schema& schema = table.schema();
  for (std::size_t i = 0; i < schema.qi_count(); ++i) {
    out << CsvEscapeCell(schema.qi(static_cast<AttrId>(i)).name) << ",";
  }
  out << CsvEscapeCell(schema.sensitive().name) << "\n";
  for (RowId r = 0; r < table.size(); ++r) {
    for (AttrId a = 0; a < table.qi_count(); ++a) out << table.qi(r, a) << ",";
    out << table.sa(r) << "\n";
  }
}

void ReferenceDictionaryCsv(const Schema& schema, const std::string& path) {
  std::ofstream out(path);
  out << "attribute,code,label\n";
  auto write_attribute = [&out](const Attribute& attr) {
    for (Value code = 0; code < attr.dictionary.size(); ++code) {
      out << CsvEscapeCell(attr.name) << "," << code << ","
          << CsvEscapeCell(attr.dictionary.label(code)) << "\n";
    }
  };
  for (std::size_t a = 0; a < schema.qi_count(); ++a) {
    write_attribute(schema.qi(static_cast<AttrId>(a)));
  }
  write_attribute(schema.sensitive());
}

// ---- Comparison ------------------------------------------------------------

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

// Compares two files byte for byte and returns the size of the first;
// on a mismatch, reports the first differing offset with some context.
std::size_t ExpectSameBytes(const std::string& want_path, const std::string& got_path) {
  const std::string want = ReadBytes(want_path);
  const std::string got = ReadBytes(got_path);
  EXPECT_FALSE(want.empty()) << want_path;
  if (want != got) {
    std::size_t at = 0;
    while (at < want.size() && at < got.size() && want[at] == got[at]) ++at;
    ADD_FAILURE() << got_path << " (" << got.size() << " bytes) differs from the reference ("
                  << want.size() << " bytes) at byte " << at << ": want '"
                  << want.substr(at, 40) << "', got '" << got.substr(at, 40) << "'";
  }
  std::remove(want_path.c_str());
  std::remove(got_path.c_str());
  return want.size();
}

// Writes `outcome` through WriteReleaseForOutcome and through the matching
// reference writer; returns the bytes of the (QIT) release file.
std::size_t ExpectReleaseMatchesReference(const Table& table, const AnonymizationOutcome& outcome,
                                          const std::string& name) {
  SCOPED_TRACE(name);
  const std::string want = testing::TempDir() + name + "_want";
  const std::string got = testing::TempDir() + name + "_got";
  std::string error;
  EXPECT_TRUE(WriteReleaseForOutcome(table, outcome, got, &error)) << error;
  if (outcome.generalized != nullptr) {
    ReferenceReleaseCsv(table, *outcome.generalized, want + ".csv");
    return ExpectSameBytes(want + ".csv", got + ".csv");
  }
  ReferenceAnatomyPair(table, outcome.partition, want);
  ExpectSameBytes(want + "_sa.csv", got + "_sa.csv");
  return ExpectSameBytes(want + ".csv", got + ".csv");
}

// ---- Fixtures ----------------------------------------------------------------

ValueDictionary Dictionary(const std::vector<std::string>& labels) {
  ValueDictionary dictionary;
  for (const std::string& label : labels) dictionary.GetOrAdd(label);
  return dictionary;
}

// A raw-label schema whose labels and names need every kind of escaping
// (a comma, a quote, a leading or trailing space), one label longer than
// a whole flush chunk, and one coded attribute with five-digit codes.
Schema LabeledSchema() {
  const std::vector<std::string> cities = {"Braga", "Porto, Norte", "say \"hi\"", " Faro",
                                           "Lagos ", "Evora"};
  const std::vector<std::string> jobs = {"nurse", "farmer, dairy", "\"quoted\"",
                                         std::string(OutputSink::kChunkBytes + 17, 'x')};
  const std::vector<std::string> diseases = {"flu", "asthma, mild", " cold", "hypertension ",
                                             "\"x\"", "gout"};
  std::vector<Attribute> qi;
  qi.emplace_back("City, region", cities.size(), Dictionary(cities));
  qi.emplace_back("Code", 100000);
  qi.emplace_back("Job \"title\"", jobs.size(), Dictionary(jobs));
  return Schema(std::move(qi), Attribute("Disease", diseases.size(), Dictionary(diseases)));
}

AnonymizationOutcome SuppressionOutcome(const Table& table, Partition partition) {
  AnonymizationOutcome outcome;
  outcome.feasible = true;
  outcome.generalized = std::make_shared<GeneralizedTable>(table, partition);
  outcome.partition = std::move(partition);
  return outcome;
}

AnonymizationOutcome AnatomyOutcome(Partition buckets) {
  AnonymizationOutcome outcome;
  outcome.feasible = true;
  outcome.methodology = Methodology::kBucketization;
  outcome.partition = std::move(buckets);
  return outcome;
}

// Rows 0-2 agree on every QI (a group without stars, whose prefix holds
// the over-long label), rows 3-5 differ on every QI (a group starred on
// every attribute), rows 6-9 differ on Code only. SA codes repeat and
// arrive out of order inside each group.
Table SmallLabeledTable() {
  return testutil::MakeTable(LabeledSchema(), {
                                                  {1, 12345, 3, 4},
                                                  {1, 12345, 3, 0},
                                                  {1, 12345, 3, 4},
                                                  {0, 99999, 0, 1},
                                                  {3, 7, 1, 5},
                                                  {4, 10000, 2, 2},
                                                  {2, 100, 1, 3},
                                                  {2, 1000, 1, 3},
                                                  {2, 10, 1, 1},
                                                  {2, 0, 1, 0},
                                              });
}

Partition SmallPartition() { return Partition({{0, 1, 2}, {3, 4, 5}, {6, 7, 8, 9}}); }

// An l-eligible table over the labeled schema, large enough that its
// releases cross the sink's flush chunk many times.
Table LargeLabeledTable(std::size_t n) {
  Rng rng(7);
  const Schema schema = LabeledSchema();
  std::vector<std::size_t> domains;
  for (std::size_t a = 0; a < schema.qi_count(); ++a) {
    domains.push_back(schema.qi(static_cast<AttrId>(a)).domain_size);
  }
  // The over-long Job label would make every release huge; keep it to the
  // small fixtures.
  domains[2] -= 1;
  const Table coded = testutil::RandomEligibleTable(rng, n, domains, schema.sa_domain_size(), 2);
  std::vector<std::vector<Value>> columns;
  for (AttrId a = 0; a < coded.qi_count(); ++a) {
    columns.emplace_back(coded.column(a).begin(), coded.column(a).end());
  }
  std::vector<SaValue> sa(coded.sa_column().begin(), coded.sa_column().end());
  return Table::FromColumns(schema, std::move(columns), std::move(sa));
}

// ---- Cases ---------------------------------------------------------------------

TEST(WriterOracle, SuppressionViewEscapesLabelsAndStarsWholeGroups) {
  const Table table = SmallLabeledTable();
  const AnonymizationOutcome outcome = SuppressionOutcome(table, SmallPartition());
  ASSERT_EQ(outcome.generalized->StarredAttributeCount(0), 0u);
  ASSERT_EQ(outcome.generalized->StarredAttributeCount(1), table.qi_count());
  ASSERT_EQ(outcome.generalized->StarredAttributeCount(2), 1u);
  const std::size_t bytes = ExpectReleaseMatchesReference(table, outcome, "oracle_small_view");
  EXPECT_GT(bytes, OutputSink::kChunkBytes) << "the long label must cross a chunk";
}

TEST(WriterOracle, AnatomyPairEscapesLabelsAndSortsEachBucketsCodes) {
  const Table table = SmallLabeledTable();
  ExpectReleaseMatchesReference(table, AnatomyOutcome(SmallPartition()), "oracle_small_pair");
}

TEST(WriterOracle, CodedValuesWithSeveralDigits) {
  const Table table = testutil::MakeTable(testutil::MakeSchema({100000, 7, 4096}, 1000),
                                          {
                                              {99999, 6, 4095, 999},
                                              {99999, 6, 4095, 10},
                                              {0, 6, 17, 100},
                                              {12345, 0, 17, 999},
                                              {10, 3, 1000, 0},
                                              {10, 3, 1000, 10},
                                          });
  const Partition partition({{0, 1}, {2, 3}, {4, 5}});
  ExpectReleaseMatchesReference(table, SuppressionOutcome(table, partition), "oracle_coded_view");
  ExpectReleaseMatchesReference(table, AnatomyOutcome(partition), "oracle_coded_pair");
}

TEST(WriterOracle, SolverOutcomesCrossTheFlushChunkManyTimes) {
  const Table table = LargeLabeledTable(60000);
  for (Algorithm algorithm : {Algorithm::kTpPlus, Algorithm::kMondrian, Algorithm::kAnatomy}) {
    const AnonymizationOutcome outcome = Anonymize(table, 2, algorithm);
    ASSERT_TRUE(outcome.feasible) << AlgorithmName(algorithm);
    const std::size_t bytes = ExpectReleaseMatchesReference(
        table, outcome, std::string("oracle_large_") + AlgorithmName(algorithm));
    EXPECT_GT(bytes, 8 * OutputSink::kChunkBytes) << AlgorithmName(algorithm);
  }
}

TEST(WriterOracle, InputCopyAndDictionarySidecar) {
  for (const Table& table : {SmallLabeledTable(), LargeLabeledTable(60000)}) {
    const std::string want = testing::TempDir() + "oracle_input_want.csv";
    const std::string got = testing::TempDir() + "oracle_input_got.csv";
    ReferenceTableCsv(table, want);
    std::string error;
    ASSERT_TRUE(WriteTableCsv(table, got, &error)) << error;
    ExpectSameBytes(want, got);

    ReferenceDictionaryCsv(table.schema(), want);
    ASSERT_TRUE(WriteDictionaryCsv(table.schema(), got, &error)) << error;
    ExpectSameBytes(want, got);
  }
}

}  // namespace
}  // namespace ldv
