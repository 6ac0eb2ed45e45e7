// Oracle for the CSV readers. The reference below is the std::getline
// core both readers ran on before they read through one block and parsed
// well-formed lines in place: every line split into std::string cells,
// every label looked up in a hash map, every coded row appended through
// Table::AppendRow. Seeded generators write valid files -- quoted labels
// with commas, quotes and edge spaces, CRLF, bare-'\r' and blank lines, a
// last line with and without '\n', lines longer than the read block and
// lines that straddle its boundaries -- and invalid files with one defect
// each. The in-RAM and paged readers, coded and raw, must return the
// reference's table and dictionaries, or its exact CsvError::ToString().

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/failpoint.h"
#include "common/paged_column.h"
#include "common/rng.h"

namespace ldv {
namespace {

// ---- Reference: the getline cores and their in-RAM readers, as they were ----

namespace reference {

// Parses one cell as a non-negative integer code. Returns false on any
// malformed character, an empty cell, or a value that cannot be a Value
// code (more than 10 digits would wrap the accumulator).
bool ParseUintCell(const std::string& cell, std::uint64_t* out) {
  if (cell.empty() || cell.size() > 10) return false;
  std::uint64_t value = 0;
  for (char c : cell) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (value > std::numeric_limits<Value>::max()) return false;
  *out = value;
  return true;
}

void SetError(CsvError* error, const std::string& path, std::size_t line, std::size_t column,
              std::string reason) {
  if (error == nullptr) return;
  error->path = path;
  error->line = line;
  error->column = column;
  error->reason = std::move(reason);
}

// True when `name` is the generated placeholder ParseSchemaSpec assigns to
// an unnamed attribute ("Q1".."Qd" for QI position `index`, "S" for the
// SA); placeholder names accept any header spelling.
bool IsPlaceholderName(const std::string& name, std::size_t index, bool is_sa) {
  if (is_sa) return name == "S";
  return name == "Q" + std::to_string(index + 1);
}

// Validates the header row of a coded CSV against the schema: d+1 columns,
// each named column matching its schema attribute (placeholders excepted).
bool ValidateHeader(const Schema& schema, const std::vector<std::string>& header,
                    const std::string& path, CsvError* error) {
  const std::size_t want = schema.qi_count() + 1;
  if (header.size() != want) {
    SetError(error, path, 1, 0,
             "header has " + std::to_string(header.size()) + " columns; schema " +
                 schema.ToString() + " expects " + std::to_string(want) + " (QI attributes + SA)");
    return false;
  }
  for (std::size_t i = 0; i < header.size(); ++i) {
    const bool is_sa = i + 1 == header.size();
    const std::string& want_name =
        is_sa ? schema.sensitive().name : schema.qi(static_cast<AttrId>(i)).name;
    if (header[i] == want_name || IsPlaceholderName(want_name, i, is_sa)) continue;
    SetError(error, path, 1, i + 1,
             "header column '" + header[i] + "' does not match schema attribute '" + want_name +
                 "'");
    return false;
  }
  return true;
}

// Splits the next line into cells with quote-state checking; false (with
// `error` positioned at the open cell) when the line -- including a final
// line truncated mid-quoted-field -- ends inside an open quote.
bool SplitRecordChecked(const std::string& line, std::size_t line_number,
                        const std::string& path, std::vector<std::string>* cells,
                        CsvError* error) {
  std::size_t open_cell = 0;
  if (SplitCsvRecord(line, cells, &open_cell)) return true;
  SetError(error, path, line_number, open_cell,
           "unterminated quoted cell (quote opened but never closed before the end of the "
           "line or file)");
  return false;
}

// Streaming core of the coded readers: opens `path`, validates the header
// against `schema`, then parses and domain-checks each data row and hands
// it to row_fn(qi_values, sa). Both the in-RAM and the paged reader are
// this loop plus a different sink, which is what keeps their outputs
// byte-identical.
template <typename RowFn>
bool StreamCodedCsv(const Schema& schema, const std::string& path, CsvError* error,
                    const RowFn& row_fn) {
  std::ifstream in(path);
  if (!in) {
    SetError(error, path, 0, 0, "cannot open file");
    return false;
  }
  std::string line;
  if (!std::getline(in, line)) {
    SetError(error, path, 1, 0, "empty file (missing header row)");
    return false;
  }
  std::vector<std::string> cells;
  if (!SplitRecordChecked(line, 1, path, &cells, error)) return false;
  if (!ValidateHeader(schema, cells, path, error)) return false;

  const std::size_t d = schema.qi_count();
  std::vector<Value> qi(d);
  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    failpoint::Injection injection;
    if (failpoint::Check(failpoint::Site::kCsvRead, &injection)) {
      SetError(error, path, line_number, 0,
               failpoint::Describe(failpoint::Site::kCsvRead, injection, "read failed"));
      return false;
    }
    if (IsBlankCsvLine(line)) continue;
    if (!SplitRecordChecked(line, line_number, path, &cells, error)) return false;
    if (cells.size() != d + 1) {
      SetError(error, path, line_number, 0,
               "row has " + std::to_string(cells.size()) + " cells; expected " +
                   std::to_string(d + 1));
      return false;
    }
    SaValue sa = 0;
    for (std::size_t i = 0; i <= d; ++i) {
      const bool is_sa = i == d;
      const Attribute& attr = is_sa ? schema.sensitive() : schema.qi(static_cast<AttrId>(i));
      std::uint64_t value = 0;
      if (!ParseUintCell(cells[i], &value)) {
        SetError(error, path, line_number, i + 1,
                 "cell '" + cells[i] + "' is not a non-negative integer code (is this a raw " +
                     "string-valued CSV? load it with format 'raw')");
        return false;
      }
      if (value >= attr.domain_size) {
        SetError(error, path, line_number, i + 1,
                 "value " + std::to_string(value) + " is outside the domain [0, " +
                     std::to_string(attr.domain_size) + ") of attribute '" + attr.name + "'");
        return false;
      }
      if (is_sa) {
        sa = static_cast<SaValue>(value);
      } else {
        qi[i] = static_cast<Value>(value);
      }
    }
    row_fn(std::span<const Value>(qi), sa);
  }
  if (in.bad()) {
    // getline's eof and a mid-file read error look identical without this
    // check: a truncated table would silently pass as a complete one.
    SetError(error, path, line_number, 0,
             std::string("read failed: ") + std::strerror(errno));
    return false;
  }
  return true;
}

// Streaming core of the raw readers: parses + validates the header, calls
// on_header(d) once (false aborts; the callback has set `error`), then
// dictionary-encodes each row and hands it to row_fn(qi_values, sa).
// Fills `out_schema` (with the dictionaries attached) on success.
// Dictionary codes are insertion-ordered by first appearance in file
// order, so every sink sees the identical encoding.
template <typename HeaderFn, typename RowFn>
bool StreamRawCsv(const std::string& path, CsvError* error, const HeaderFn& on_header,
                  const RowFn& row_fn, Schema* out_schema) {
  std::ifstream in(path);
  if (!in) {
    SetError(error, path, 0, 0, "cannot open file");
    return false;
  }
  std::string line;
  if (!std::getline(in, line)) {
    SetError(error, path, 1, 0, "empty file (missing header row)");
    return false;
  }
  std::vector<std::string> header;
  if (!SplitRecordChecked(line, 1, path, &header, error)) return false;
  if (header.size() < 2) {
    SetError(error, path, 1, 0,
             "header names " + std::to_string(header.size()) +
                 " columns; raw ingestion needs at least one QI column plus the sensitive " +
                 "attribute (last column)");
    return false;
  }
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i].empty()) {
      SetError(error, path, 1, i + 1, "empty attribute name in header");
      return false;
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (header[i] == header[j]) {
        SetError(error, path, 1, i + 1,
                 "duplicate attribute name '" + header[i] +
                     "' in header (the dictionary sidecar keys labels by attribute name)");
        return false;
      }
    }
  }

  const std::size_t d = header.size() - 1;
  if (!on_header(d)) return false;
  std::vector<ValueDictionary> dictionaries(d + 1);
  std::vector<Value> qi(d);
  std::vector<std::string> cells;
  std::size_t line_number = 1;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    ++line_number;
    failpoint::Injection injection;
    if (failpoint::Check(failpoint::Site::kCsvRead, &injection)) {
      SetError(error, path, line_number, 0,
               failpoint::Describe(failpoint::Site::kCsvRead, injection, "read failed"));
      return false;
    }
    if (IsBlankCsvLine(line)) continue;
    if (!SplitRecordChecked(line, line_number, path, &cells, error)) return false;
    if (cells.size() != d + 1) {
      SetError(error, path, line_number, 0,
               "row has " + std::to_string(cells.size()) + " cells; the header names " +
                   std::to_string(d + 1));
      return false;
    }
    SaValue sa = 0;
    for (std::size_t i = 0; i <= d; ++i) {
      if (cells[i].empty()) {
        SetError(error, path, line_number, i + 1,
                 "empty cell (labels must be non-empty under attribute '" + header[i] + "')");
        return false;
      }
      if (cells[i] == "*") {
        SetError(error, path, line_number, i + 1,
                 "the label '*' is reserved for the suppression marker releases use");
        return false;
      }
      Value code = dictionaries[i].GetOrAdd(cells[i]);
      if (i < d) {
        qi[i] = code;
      } else {
        sa = static_cast<SaValue>(code);
      }
    }
    row_fn(std::span<const Value>(qi), sa);
    ++rows;
  }
  if (in.bad()) {
    SetError(error, path, line_number, 0,
             std::string("read failed: ") + std::strerror(errno));
    return false;
  }
  if (rows == 0) {
    SetError(error, path, line_number, 0, "no data rows after the header");
    return false;
  }

  std::vector<Attribute> qi_attributes(d);
  for (std::size_t i = 0; i < d; ++i) {
    qi_attributes[i].name = header[i];
    qi_attributes[i].domain_size = dictionaries[i].size();
    qi_attributes[i].dictionary = std::move(dictionaries[i]);
  }
  Attribute sensitive;
  sensitive.name = header[d];
  sensitive.domain_size = dictionaries[d].size();
  sensitive.dictionary = std::move(dictionaries[d]);
  *out_schema = Schema(std::move(qi_attributes), std::move(sensitive));
  return true;
}

std::optional<Table> ReadTableCsv(const Schema& schema, const std::string& path, CsvError* error) {
  Table table(schema);
  if (!StreamCodedCsv(schema, path, error, [&table](std::span<const Value> qi, SaValue sa) {
        table.AppendRow(qi, sa);
      })) {
    return std::nullopt;
  }
  return table;
}

std::optional<Table> ReadRawTableCsv(const std::string& path, CsvError* error) {
  // In-RAM sink: accumulate plain column vectors and bulk-construct, the
  // same shape (and cost) as the pre-streaming reader.
  std::vector<std::vector<Value>> columns;
  std::vector<SaValue> sa_column;
  Schema schema;
  const bool ok = StreamRawCsv(
      path, error,
      [&columns](std::size_t d) {
        columns.resize(d);
        return true;
      },
      [&columns, &sa_column](std::span<const Value> qi, SaValue sa) {
        for (std::size_t i = 0; i < qi.size(); ++i) columns[i].push_back(qi[i]);
        sa_column.push_back(sa);
      },
      &schema);
  if (!ok) return std::nullopt;
  return Table::FromColumns(std::move(schema), std::move(columns), std::move(sa_column));
}
}  // namespace reference

// ---- Loading and comparing ----------------------------------------------------

// What one reader returned: its table, or its rendered error.
struct Load {
  std::optional<Table> owned;
  std::unique_ptr<PagedTable> paged;
  std::string error;

  const Table* table() const {
    if (paged != nullptr) return &paged->resident();
    return owned.has_value() ? &*owned : nullptr;
  }
};

Load FromOptional(std::optional<Table> table, const CsvError& error) {
  Load load;
  load.owned = std::move(table);
  if (!load.owned.has_value()) load.error = error.ToString();
  return load;
}

Load FromPaged(std::unique_ptr<PagedTable> table, const CsvError& error) {
  Load load;
  load.paged = std::move(table);
  if (load.paged == nullptr) load.error = error.ToString();
  return load;
}

// Small pages, so the paged readers flush many pages per column.
PagedTableBuilder::Options SmallPages() {
  PagedTableBuilder::Options options;
  options.page_bytes = 4096;
  return options;
}

// Runs `read` with `spec` armed (none when empty), then disarms.
Load Armed(const std::string& spec, const std::function<Load()>& read) {
  if (!spec.empty()) {
    std::string error;
    EXPECT_TRUE(failpoint::ArmFromSpec(spec, &error)) << error;
  }
  Load load = read();
  failpoint::DisarmAll();
  return load;
}

void ExpectSameLoad(const Load& want, const Load& got, const std::string& reader) {
  SCOPED_TRACE(reader);
  ASSERT_EQ(want.table() != nullptr, got.table() != nullptr)
      << "reference: '" << want.error << "', reader: '" << got.error << "'";
  if (want.table() == nullptr) {
    EXPECT_EQ(got.error, want.error);
    return;
  }
  const Table& w = *want.table();
  const Table& g = *got.table();
  ASSERT_TRUE(g.schema() == w.schema()) << g.schema().ToString() << " vs " << w.schema().ToString();
  ASSERT_EQ(g.size(), w.size());
  for (AttrId a = 0; a < w.qi_count(); ++a) {
    EXPECT_TRUE(g.schema().qi(a).dictionary == w.schema().qi(a).dictionary) << "QI " << a;
    EXPECT_TRUE(std::ranges::equal(g.column(a), w.column(a))) << "QI " << a;
  }
  EXPECT_TRUE(g.schema().sensitive().dictionary == w.schema().sensitive().dictionary);
  EXPECT_TRUE(std::ranges::equal(g.sa_column(), w.sa_column()));
}

// Reads `path` through the reference and the in-RAM and paged readers of
// its format (coded when `schema` is non-null), each under `failpoint`,
// and expects the same result from all three. Returns the reference's.
Load ExpectReadersAgree(const std::string& path, const Schema* schema,
                        const std::string& failpoint = "") {
  SCOPED_TRACE(path + (failpoint.empty() ? "" : " under " + failpoint));
  Load want;
  if (schema != nullptr) {
    want = Armed(failpoint, [&] {
      CsvError error;
      return FromOptional(reference::ReadTableCsv(*schema, path, &error), error);
    });
    ExpectSameLoad(want, Armed(failpoint, [&] {
                     CsvError error;
                     return FromOptional(ReadTableCsv(*schema, path, &error), error);
                   }),
                   "ReadTableCsv");
    ExpectSameLoad(want, Armed(failpoint, [&] {
                     CsvError error;
                     return FromPaged(ReadTableCsvPaged(*schema, path, SmallPages(), &error),
                                      error);
                   }),
                   "ReadTableCsvPaged");
  } else {
    want = Armed(failpoint, [&] {
      CsvError error;
      return FromOptional(reference::ReadRawTableCsv(path, &error), error);
    });
    ExpectSameLoad(want, Armed(failpoint, [&] {
                     CsvError error;
                     return FromOptional(ReadRawTableCsv(path, &error), error);
                   }),
                   "ReadRawTableCsv");
    ExpectSameLoad(want, Armed(failpoint, [&] {
                     CsvError error;
                     return FromPaged(ReadRawTableCsvPaged(path, SmallPages(), &error), error);
                   }),
                   "ReadRawTableCsvPaged");
  }
  return want;
}

// ---- Generated files ----------------------------------------------------------

std::string WriteFile(const std::string& name, const std::string& bytes) {
  const std::string path = testing::TempDir() + name;
  std::ofstream(path, std::ios::binary) << bytes;
  return path;
}

std::string Join(const std::vector<std::string>& cells) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) line += ',';
    line += cells[i];
  }
  return line;
}

// A file as lines without their endings: the header, then the data rows
// as cells, so a defect can be put into any one cell.
struct Lines {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

// Writes `lines` with a random mix of '\n' and "\r\n" endings and blank
// lines ("" and a bare "\r") between them; the last line keeps its
// newline only when `final_newline` is set.
std::string Render(const Lines& lines, Rng& rng, bool final_newline) {
  std::string bytes;
  auto end_line = [&] {
    bytes += rng.Below(4) == 0 ? "\r\n" : "\n";
    if (rng.Below(16) == 0) bytes += rng.Below(2) == 0 ? "\n" : "\r\n";
  };
  bytes += Join(lines.header);
  end_line();
  for (const std::vector<std::string>& row : lines.rows) {
    bytes += Join(row);
    end_line();
  }
  if (!final_newline) {
    while (!bytes.empty() && (bytes.back() == '\n' || bytes.back() == '\r')) bytes.pop_back();
  }
  return bytes;
}

// A label, never empty and never "*". One in four draws from an alphabet
// that needs every kind of escaping: commas, quotes, spaces (leading and
// trailing ones included); the rest need none, so most lines hold no
// quote. Both may hold '*' inside a longer label, and '\r' anywhere but at
// either end.
std::string RandomLabel(Rng& rng) {
  const std::string alphabet = rng.Below(4) == 0 ? "abcdefXYZ0123456789 ,\"*-_.;\t\r"
                                                 : "abcdefXYZ0123456789*-_.\r";
  const std::size_t length = 1 + rng.Below(rng.Below(8) == 0 ? 24 : 6);
  std::string label;
  for (std::size_t i = 0; i < length; ++i) {
    char c = alphabet[rng.Below(static_cast<std::uint32_t>(alphabet.size()))];
    if (c == '\r' && (i == 0 || i + 1 == length)) c = 'r';
    label += c;
  }
  return label == "*" ? "**" : label;
}

// One cell of a raw file: escaped as the writers escape it, or -- for a
// label that stays one cell unquoted -- sometimes written as is, so a quote
// inside a cell reaches the reader unescaped.
std::string RawCell(const std::string& label, Rng& rng) {
  const bool plain = label.find(',') == std::string::npos && label.front() != '"';
  return plain && rng.Below(4) == 0 ? label : CsvEscapeCell(label);
}

// A valid raw file of `rows` rows over d QIs; `long_label` (when non-empty)
// is one of the SA labels.
Lines RawLines(Rng& rng, std::size_t d, std::size_t rows, const std::string& long_label = "") {
  Lines lines;
  for (std::size_t i = 0; i <= d; ++i) {
    lines.header.push_back(CsvEscapeCell("col " + std::to_string(i) + (i % 2 == 0 ? ", x" : "")));
  }
  std::vector<std::vector<std::string>> pools(d + 1);
  for (std::vector<std::string>& pool : pools) {
    const std::size_t size = 1 + rng.Below(40);
    for (std::size_t k = 0; k < size; ++k) pool.push_back(RandomLabel(rng));
  }
  if (!long_label.empty()) pools[d].push_back(long_label);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (std::size_t i = 0; i <= d; ++i) {
      const std::vector<std::string>& pool = pools[i];
      row.push_back(RawCell(pool[rng.Below(static_cast<std::uint32_t>(pool.size()))], rng));
    }
    lines.rows.push_back(std::move(row));
  }
  return lines;
}

// A coded schema of d QIs whose domains run from 1 to the largest a Value
// allows; its names are placeholders (any header matches) when `unnamed`.
Schema CodedSchema(Rng& rng, std::size_t d, bool unnamed) {
  static const std::uint64_t kDomains[] = {1, 2, 7, 10, 100, 1000, 65536, 1000000007,
                                           std::numeric_limits<Value>::max()};
  std::vector<Attribute> qi;
  for (std::size_t i = 0; i < d; ++i) {
    qi.emplace_back(unnamed ? "Q" + std::to_string(i + 1) : "C" + std::to_string(i + 1),
                    kDomains[rng.Below(std::size(kDomains))]);
  }
  return Schema(std::move(qi), Attribute(unnamed ? "S" : "Income", 1 + rng.Below(60)));
}

// A valid coded file of `rows` rows over `schema`: codes printed plainly,
// with leading zeros (ten characters at most), or quoted.
Lines CodedLines(Rng& rng, const Schema& schema, std::size_t rows) {
  Lines lines;
  const std::size_t d = schema.qi_count();
  for (std::size_t i = 0; i <= d; ++i) {
    const std::string& name = i < d ? schema.qi(static_cast<AttrId>(i)).name
                                    : schema.sensitive().name;
    lines.header.push_back(name == "S" || name[0] == 'Q' ? CsvEscapeCell("any, name") : name);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (std::size_t i = 0; i <= d; ++i) {
      const std::uint64_t domain = i < d ? schema.qi(static_cast<AttrId>(i)).domain_size
                                         : schema.sa_domain_size();
      std::string cell = std::to_string(rng.Next64() % domain);
      const std::uint32_t style = rng.Below(16);
      if (style == 0 && cell.size() < 10) cell.insert(0, 1 + rng.Below(10 - cell.size()), '0');
      if (style == 1) cell = "\"" + cell + "\"";
      row.push_back(cell);
    }
    lines.rows.push_back(std::move(row));
  }
  return lines;
}

// One cell's defect; each makes the file invalid at its line.
enum class Defect {
  kCellCount,
  kEmptyCell,
  kStar,
  kNonDigit,
  kElevenDigits,
  kOutOfDomain,
  kUnterminatedQuote,
};

void Inject(Defect defect, Lines* lines, Rng& rng, const Schema* schema) {
  std::vector<std::string>& row = lines->rows[rng.Below(static_cast<std::uint32_t>(lines->rows.size()))];
  const std::size_t i = rng.Below(static_cast<std::uint32_t>(row.size()));
  switch (defect) {
    case Defect::kCellCount:
      if (rng.Below(2) == 0) {
        row.pop_back();
      } else {
        row.push_back("1");
      }
      break;
    case Defect::kEmptyCell:
      row[i].clear();
      break;
    case Defect::kStar:
      row[i] = "*";
      break;
    case Defect::kNonDigit:
      row[i] = rng.Below(2) == 0 ? "1x" : " 7";
      break;
    case Defect::kElevenDigits:
      row[i] = "00000000001";
      break;
    case Defect::kOutOfDomain: {
      const std::uint64_t domain = i + 1 < row.size()
                                       ? schema->qi(static_cast<AttrId>(i)).domain_size
                                       : schema->sa_domain_size();
      row[i] = std::to_string(domain);
      break;
    }
    case Defect::kUnterminatedQuote:
      row[i] = "\"12";
      break;
  }
}

// ---- Cases -----------------------------------------------------------------------

TEST(ReaderOracle, ValidRawFiles) {
  Rng rng(23);
  for (int file = 0; file < 12; ++file) {
    SCOPED_TRACE("raw file " + std::to_string(file));
    // Files 0-2 span several read blocks; file 3 holds a label longer
    // than the block, and one longer than two blocks.
    const std::size_t rows = file < 3 ? 45000 : 1 + rng.Below(300);
    std::string long_label;
    if (file == 3) long_label = std::string(kCsvReadBlockBytes + 3, 'L');
    if (file == 4) long_label = "long, " + std::string(2 * kCsvReadBlockBytes + 11, 'M');
    Lines lines = RawLines(rng, 1 + rng.Below(5), rows, long_label);
    if (!long_label.empty()) lines.rows[rows / 2].back() = CsvEscapeCell(long_label);
    const std::string bytes = Render(lines, rng, file % 2 == 0);
    if (file < 3) {
      ASSERT_GT(bytes.size(), 2 * kCsvReadBlockBytes);
    }
    const std::string path = WriteFile("oracle_raw.csv", bytes);
    const Load want = ExpectReadersAgree(path, nullptr);
    ASSERT_NE(want.table(), nullptr) << want.error;
    EXPECT_EQ(want.table()->size(), rows);
    std::remove(path.c_str());
  }
}

TEST(ReaderOracle, ValidCodedFiles) {
  Rng rng(29);
  for (int file = 0; file < 12; ++file) {
    SCOPED_TRACE("coded file " + std::to_string(file));
    const std::size_t rows = file < 3 ? 40000 : 1 + rng.Below(300);
    const Schema schema = CodedSchema(rng, 1 + rng.Below(6), file % 3 == 1);
    const Lines lines = CodedLines(rng, schema, rows);
    const std::string bytes = Render(lines, rng, file % 2 == 0);
    if (file < 3) {
      ASSERT_GT(bytes.size(), 2 * kCsvReadBlockBytes);
    }
    const std::string path = WriteFile("oracle_coded.csv", bytes);
    const Load want = ExpectReadersAgree(path, &schema);
    ASSERT_NE(want.table(), nullptr) << want.error;
    EXPECT_EQ(want.table()->size(), rows);
    std::remove(path.c_str());
  }
}

TEST(ReaderOracle, OneDefectPerFile) {
  Rng rng(31);
  const Defect raw_defects[] = {Defect::kCellCount, Defect::kEmptyCell, Defect::kStar,
                                Defect::kUnterminatedQuote};
  const Defect coded_defects[] = {Defect::kCellCount,    Defect::kEmptyCell,
                                  Defect::kStar,         Defect::kNonDigit,
                                  Defect::kElevenDigits, Defect::kOutOfDomain,
                                  Defect::kUnterminatedQuote};
  for (int round = 0; round < 3; ++round) {
    // Round 0 puts the defect anywhere in a file of several read blocks.
    const std::size_t rows = round == 0 ? 50000 : 1 + rng.Below(60);
    for (Defect defect : raw_defects) {
      SCOPED_TRACE("raw defect " + std::to_string(static_cast<int>(defect)));
      Lines lines = RawLines(rng, 1 + rng.Below(4), rows);
      Inject(defect, &lines, rng, nullptr);
      const std::string bytes = Render(lines, rng, round != 1);
      if (round == 0) {
        ASSERT_GT(bytes.size(), 2 * kCsvReadBlockBytes);
      }
      const std::string path = WriteFile("oracle_raw_bad.csv", bytes);
      const Load load = ExpectReadersAgree(path, nullptr);
      // A quote opened mid-row can close inside a later quoted label whose
      // commas make the cell count right again; every other defect fails.
      if (defect != Defect::kUnterminatedQuote) {
        EXPECT_EQ(load.table(), nullptr);
      }
      std::remove(path.c_str());
    }
    for (Defect defect : coded_defects) {
      SCOPED_TRACE("coded defect " + std::to_string(static_cast<int>(defect)));
      const Schema schema = CodedSchema(rng, 1 + rng.Below(5), false);
      Lines lines = CodedLines(rng, schema, rows);
      Inject(defect, &lines, rng, &schema);
      const std::string bytes = Render(lines, rng, round != 1);
      if (round == 0) {
        ASSERT_GT(bytes.size(), 2 * kCsvReadBlockBytes);
      }
      const std::string path = WriteFile("oracle_coded_bad.csv", bytes);
      EXPECT_EQ(ExpectReadersAgree(path, &schema).table(), nullptr);
      std::remove(path.c_str());
    }
  }
}

TEST(ReaderOracle, HeaderDefectsAndEdgeFiles) {
  Rng rng(37);
  const Schema schema = CodedSchema(rng, 3, false);
  std::vector<std::string> files;
  auto add = [&files](const std::string& name, const std::string& bytes) {
    files.push_back(WriteFile(name, bytes));
  };
  Lines coded = CodedLines(rng, schema, 5);
  Lines renamed = coded;
  renamed.header[1] = "Other";
  add("oracle_renamed.csv", Render(renamed, rng, true));
  Lines narrow = coded;
  narrow.header.pop_back();
  add("oracle_narrow.csv", Render(narrow, rng, true));
  Lines quoted_header = coded;
  quoted_header.header[0] = "\"C1";
  add("oracle_open_header.csv", Render(quoted_header, rng, true));
  Lines raw = RawLines(rng, 3, 5);
  Lines duplicate = raw;
  duplicate.header[2] = duplicate.header[0];
  add("oracle_duplicate.csv", Render(duplicate, rng, true));
  Lines unnamed = raw;
  unnamed.header[1] = "";
  add("oracle_unnamed.csv", Render(unnamed, rng, true));
  add("oracle_one_column.csv", "only\nx\n");
  add("oracle_header_only.csv", Join(coded.header) + "\n\r\n\n");
  add("oracle_raw_header_only.csv", Join(raw.header) + "\r\n");
  add("oracle_header_no_newline.csv", Join(raw.header));
  add("oracle_empty.csv", "");
  add("oracle_blank.csv", "\n");
  add("oracle_blank_lines_only.csv", Join(raw.header) + "\n\n\r\n\r\n");
  files.push_back(testing::TempDir() + "oracle_missing.csv");
  files.push_back(testing::TempDir());  // a directory: open succeeds, read fails
  // Both formats read every file: a coded header is a valid raw header, and
  // a coded file may have no data rows.
  for (const std::string& path : files) {
    ExpectReadersAgree(path, &schema);
    ExpectReadersAgree(path, nullptr);
  }
  for (std::size_t i = 0; i + 2 < files.size(); ++i) std::remove(files[i].c_str());
}

TEST(ReaderOracle, CsvReadFailpointNamesTheSameLine) {
  Rng rng(41);
  const Schema schema = CodedSchema(rng, 4, false);
  const std::string coded = WriteFile("oracle_fp_coded.csv", Render(CodedLines(rng, schema, 9000), rng, true));
  const std::string raw = WriteFile("oracle_fp_raw.csv", Render(RawLines(rng, 3, 9000), rng, false));
  for (const char* spec : {"csv.read=EIO:1", "csv.read=EIO:2", "csv.read=ENOSPC:77",
                           "csv.read=EIO:8999"}) {
    const Load coded_load = ExpectReadersAgree(coded, &schema, spec);
    EXPECT_EQ(coded_load.table(), nullptr) << spec;
    EXPECT_NE(coded_load.error.find("[failpoint csv.read]"), std::string::npos) << coded_load.error;
    const Load raw_load = ExpectReadersAgree(raw, nullptr, spec);
    EXPECT_EQ(raw_load.table(), nullptr) << spec;
  }
  std::remove(coded.c_str());
  std::remove(raw.c_str());
}

}  // namespace
}  // namespace ldv
