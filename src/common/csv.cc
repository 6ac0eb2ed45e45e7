#include "common/csv.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>

namespace ldv {

namespace {

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

}  // namespace

std::string CsvError::ToString() const {
  std::string out = path;
  if (line > 0) out += ":" + std::to_string(line);
  out += ": ";
  if (column > 0) out += "column " + std::to_string(column) + ": ";
  out += reason;
  return out;
}

bool SplitCsvRecord(const std::string& line, std::vector<std::string>* cells,
                    std::size_t* open_cell) {
  cells->clear();
  std::size_t length = line.size();
  if (length > 0 && line[length - 1] == '\r') --length;  // CRLF input
  std::string cell;
  bool in_quotes = false;
  for (std::size_t i = 0; i < length; ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < length && line[i + 1] == '"') {
          cell.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell.push_back(c);
      }
    } else if (c == '"' && cell.empty()) {
      in_quotes = true;
    } else if (c == ',') {
      cells->push_back(std::move(cell));
      cell.clear();
    } else {
      cell.push_back(c);
    }
  }
  cells->push_back(std::move(cell));
  if (in_quotes && open_cell != nullptr) *open_cell = cells->size();
  return !in_quotes;
}

void SplitCsvLine(const std::string& line, std::vector<std::string>* cells) {
  SplitCsvRecord(line, cells, nullptr);
}

bool IsBlankCsvLine(const std::string& line) { return line.empty() || line == "\r"; }

std::string CsvEscapeCell(const std::string& cell) {
  bool needs_quotes = false;
  for (char c : cell) {
    if (c == ',' || c == '"') {
      needs_quotes = true;
      break;
    }
  }
  if (!cell.empty() && (cell.front() == ' ' || cell.back() == ' ')) needs_quotes = true;
  if (!needs_quotes) return cell;
  std::string quoted = "\"";
  for (char c : cell) {
    if (c == '"') {
      quoted += "\"\"";
    } else {
      quoted.push_back(c);
    }
  }
  quoted += "\"";
  return quoted;
}

OutputSink::OutputSink(std::string* buffer) {
  buffer->resize(kChunkBytes);
  begin_ = cursor_ = buffer->data();
  end_ = begin_ + kChunkBytes;
}

OutputSink::~OutputSink() {
  if (fd_ >= 0) ::close(fd_);
}

bool OutputSink::Open(const std::string& path, failpoint::Site site) {
  path_ = path;
  failpoint::Injection injection;
  if (failpoint::Check(site, &injection)) {
    failpoint_error_ = failpoint::Describe(site, injection, "cannot write '" + path + "'");
    return false;
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  errno_ = fd_ < 0 ? errno : 0;
  return fd_ >= 0;
}

void OutputSink::AppendUint(std::uint64_t value) {
  char digits[20];
  const char* end = std::to_chars(digits, digits + sizeof digits, value).ptr;
  Append(std::string_view(digits, static_cast<std::size_t>(end - digits)));
}

void OutputSink::AppendAcrossChunks(std::string_view bytes) {
  while (!bytes.empty()) {
    if (cursor_ == end_) Flush();
    const std::size_t n = std::min(static_cast<std::size_t>(end_ - cursor_), bytes.size());
    std::memcpy(cursor_, bytes.data(), n);
    cursor_ += n;
    bytes.remove_prefix(n);
  }
}

void OutputSink::Flush() {
  const char* data = begin_;
  std::size_t size = static_cast<std::size_t>(cursor_ - begin_);
  cursor_ = begin_;
  if (fd_ < 0 || errno_ != 0) return;  // failed already: drop the bytes
  while (size > 0) {
    const ssize_t wrote = ::write(fd_, data, size);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) {
      errno_ = wrote < 0 ? errno : EIO;
      return;
    }
    data += wrote;
    size -= static_cast<std::size_t>(wrote);
  }
}

bool OutputSink::Close(std::string* error) {
  if (fd_ >= 0) {
    Flush();
    // close(2) can be the first to report a deferred write error.
    if (::close(fd_) != 0 && errno_ == 0) errno_ = errno;
    fd_ = -1;
  }
  if (failpoint_error_.empty() && errno_ == 0) return true;
  if (error != nullptr) {
    *error = !failpoint_error_.empty()
                 ? failpoint_error_
                 : "cannot write '" + path_ + "': " + std::strerror(errno_);
  }
  return false;
}

CsvCellText::CsvCellText(const Attribute& attr) {
  if (!attr.has_dictionary()) return;
  labels_.reserve(attr.dictionary.size());
  for (Value code = 0; code < attr.dictionary.size(); ++code) {
    labels_.push_back(CsvEscapeCell(attr.dictionary.label(code)));
  }
}

bool WriteTableCsv(const Table& table, const std::string& path, std::string* error) {
  std::string buffer;
  OutputSink out(&buffer);
  if (!out.Open(path, failpoint::Site::kReportWrite)) return out.Close(error);
  const Schema& schema = table.schema();
  for (std::size_t i = 0; i < schema.qi_count(); ++i) {
    out.Append(CsvEscapeCell(schema.qi(static_cast<AttrId>(i)).name));
    out.Append(',');
  }
  out.Append(CsvEscapeCell(schema.sensitive().name));
  out.Append('\n');
  for (RowId r = 0; r < table.size(); ++r) {
    for (AttrId a = 0; a < table.qi_count(); ++a) {
      out.AppendUint(table.qi(r, a));
      out.Append(',');
    }
    out.AppendUint(table.sa(r));
    out.Append('\n');
  }
  return out.Close(error);
}

namespace {

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

}  // namespace

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

std::unique_ptr<PagedTable> ReadTableCsvPaged(const Schema& schema, const std::string& path,
                                              const PagedTableBuilder::Options& options,
                                              CsvError* error) {
  std::string build_error;
  std::unique_ptr<PagedTableBuilder> builder =
      PagedTableBuilder::Create(schema.qi_count(), options, &build_error);
  if (builder == nullptr) {
    SetError(error, path, 0, 0, build_error);
    return nullptr;
  }
  if (!StreamCodedCsv(schema, path, error, [&builder](std::span<const Value> qi, SaValue sa) {
        builder->AppendRow(qi, sa);
      })) {
    return nullptr;
  }
  std::unique_ptr<PagedTable> table = builder->Finish(schema, &build_error);
  if (table == nullptr) SetError(error, path, 0, 0, build_error);
  return table;
}

std::unique_ptr<PagedTable> ReadRawTableCsvPaged(const std::string& path,
                                                 const PagedTableBuilder::Options& options,
                                                 CsvError* error) {
  std::string build_error;
  std::unique_ptr<PagedTableBuilder> builder;
  Schema schema;
  const bool ok = StreamRawCsv(
      path, error,
      [&builder, &options, &build_error, &error, &path](std::size_t d) {
        builder = PagedTableBuilder::Create(d, options, &build_error);
        if (builder == nullptr) {
          SetError(error, path, 0, 0, build_error);
          return false;
        }
        return true;
      },
      [&builder](std::span<const Value> qi, SaValue sa) { builder->AppendRow(qi, sa); },
      &schema);
  if (!ok) return nullptr;
  std::unique_ptr<PagedTable> table = builder->Finish(std::move(schema), &build_error);
  if (table == nullptr) SetError(error, path, 0, 0, build_error);
  return table;
}

bool WriteDictionaryCsv(const Schema& schema, const std::string& path, std::string* error) {
  std::string buffer;
  OutputSink out(&buffer);
  if (!out.Open(path, failpoint::Site::kReportWrite)) return out.Close(error);
  out.Append("attribute,code,label\n");
  auto write_attribute = [&out](const Attribute& attr) {
    const std::string name = CsvEscapeCell(attr.name);
    for (Value code = 0; code < attr.dictionary.size(); ++code) {
      out.Append(name);
      out.Append(',');
      out.AppendUint(code);
      out.Append(',');
      out.Append(CsvEscapeCell(attr.dictionary.label(code)));
      out.Append('\n');
    }
  };
  for (std::size_t a = 0; a < schema.qi_count(); ++a) {
    write_attribute(schema.qi(static_cast<AttrId>(a)));
  }
  write_attribute(schema.sensitive());
  return out.Close(error);
}

}  // namespace ldv
