#include "anonymity/release.h"

#include <fstream>

#include "common/csv.h"

namespace ldv {

bool WriteReleaseCsv(const Table& table, const GeneralizedTable& generalized,
                     const std::string& path, std::string* error) {
  std::string buffer;
  OutputSink out(&buffer);
  if (!out.Open(path, failpoint::Site::kReleaseWrite)) return out.Close(error);
  const Schema& schema = table.schema();
  const std::size_t d = schema.qi_count();
  for (std::size_t a = 0; a < d; ++a) {
    out.Append(CsvEscapeCell(schema.qi(static_cast<AttrId>(a)).name));
    out.Append(',');
  }
  out.Append(CsvEscapeCell(schema.sensitive().name));
  out.Append('\n');

  std::vector<CsvCellText> qi_text;
  qi_text.reserve(d);
  for (std::size_t a = 0; a < d; ++a) qi_text.emplace_back(schema.qi(static_cast<AttrId>(a)));
  const CsvCellText sa_text(schema.sensitive());
  CsvCellText::Digits digits{};
  // Every row of a QI-group shares its generalized signature (Definition
  // 1), so the QI cells are formatted once per group as a prefix.
  std::string prefix;
  for (GroupId g = 0; g < generalized.group_count(); ++g) {
    const std::span<const Value> sig = generalized.signature(g);
    prefix.clear();
    for (std::size_t a = 0; a < d; ++a) {
      if (IsStar(sig[a])) {
        prefix += '*';
      } else {
        prefix += qi_text[a].Cell(sig[a], &digits);
      }
      prefix += ',';
    }
    for (RowId r : generalized.rows(g)) {
      out.Append(prefix);
      out.Append(sa_text.Cell(table.sa(r), &digits));
      out.Append('\n');
    }
  }
  return out.Close(error);
}

namespace {

// Parses one cell back into a code: '*' maps to kStar, a dictionary-backed
// attribute looks its label up, and a plain attribute parses a
// non-negative integer below its domain size.
bool ParseCell(const std::string& cell, const Attribute& attr, bool allow_star, Value* out) {
  if (allow_star && cell == "*") {
    *out = kStar;
    return true;
  }
  if (cell.empty()) return false;
  if (attr.has_dictionary()) {
    const Value* code = attr.dictionary.Find(cell);
    if (code == nullptr) return false;
    *out = *code;
    return true;
  }
  if (cell.size() > 10) return false;  // cannot be a Value code; avoids wrap
  std::uint64_t v = 0;
  for (char c : cell) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (v >= attr.domain_size) return false;
  *out = static_cast<Value>(v);
  return true;
}

}  // namespace

std::optional<std::vector<ReleaseRow>> ReadReleaseCsv(const Schema& schema,
                                                      const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;  // header

  std::vector<ReleaseRow> rows;
  std::vector<std::string> cells;
  while (std::getline(in, line)) {
    if (IsBlankCsvLine(line)) continue;
    SplitCsvLine(line, &cells);
    if (cells.size() != schema.qi_count() + 1) return std::nullopt;
    ReleaseRow row;
    for (std::size_t a = 0; a < schema.qi_count(); ++a) {
      Value v;
      if (!ParseCell(cells[a], schema.qi(static_cast<AttrId>(a)), /*allow_star=*/true, &v)) {
        return std::nullopt;
      }
      row.qi.push_back(v);
    }
    Value sa;
    if (!ParseCell(cells.back(), schema.sensitive(), /*allow_star=*/false, &sa)) {
      return std::nullopt;
    }
    row.sa = sa;
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace ldv
