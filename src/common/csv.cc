#include "common/csv.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <span>

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

bool SplitCsvRecord(std::string_view line, std::vector<std::string>* cells,
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

void SplitCsvLine(std::string_view line, std::vector<std::string>* cells) {
  SplitCsvRecord(line, cells, nullptr);
}

bool IsBlankCsvLine(std::string_view line) { return line.empty() || line == "\r"; }

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

// Reads a file a line at a time through one kCsvReadBlockBytes block, with
// std::getline's boundaries: a line ends at '\n', which it does not
// include, and a last line without one is still a line. A line is a view
// into the block, valid until the next call.
class LineReader {
 public:
  LineReader() : block_(kCsvReadBlockBytes) {}
  ~LineReader() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  bool Open(const std::string& path) {
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    return fd_ >= 0;
  }

  // The next line; false at the end of the file, or on a read error, whose
  // errno error() then holds.
  bool Next(std::string_view* line);

  int error() const { return error_; }

 private:
  std::vector<char> block_;
  std::size_t begin_ = 0;  // the unread bytes are [begin_, end_)
  std::size_t end_ = 0;
  int fd_ = -1;
  bool eof_ = false;
  int error_ = 0;
};

bool LineReader::Next(std::string_view* line) {
  std::size_t scanned = begin_;  // [begin_, scanned) holds no '\n'
  while (error_ == 0) {
    const char* data = block_.data();
    const void* newline = std::memchr(data + scanned, '\n', end_ - scanned);
    if (newline != nullptr) {
      const std::size_t at = static_cast<std::size_t>(static_cast<const char*>(newline) - data);
      *line = std::string_view(data + begin_, at - begin_);
      begin_ = at + 1;
      return true;
    }
    if (eof_) {
      if (begin_ == end_) return false;
      *line = std::string_view(data + begin_, end_ - begin_);
      begin_ = end_;
      return true;
    }
    // Carry the partial line to the front; only a line that fills the
    // whole block makes it grow.
    std::memmove(block_.data(), data + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
    if (end_ == block_.size()) block_.resize(2 * block_.size());
    scanned = end_;
    const ssize_t got = ::read(fd_, block_.data() + end_, block_.size() - end_);
    if (got > 0) {
      end_ += static_cast<std::size_t>(got);
    } else if (got == 0) {
      eof_ = true;
    } else if (errno != EINTR) {
      error_ = errno;
    }
  }
  return false;
}

// Splits the next line into cells with quote-state checking; false (with
// `error` positioned at the open cell) when the line -- including a final
// line truncated mid-quoted-field -- ends inside an open quote.
bool SplitRecordChecked(std::string_view line, std::size_t line_number, const std::string& path,
                        std::vector<std::string>* cells, CsvError* error) {
  std::size_t open_cell = 0;
  if (SplitCsvRecord(line, cells, &open_cell)) return true;
  SetError(error, path, line_number, open_cell,
           "unterminated quoted cell (quote opened but never closed before the end of the "
           "line or file)");
  return false;
}

// The fast path of a coded data line: d + 1 unquoted cells of 1 to 10
// digits, each below its limit (the attribute's domain size, capped at
// 2^32), parsed while the line is scanned. One trailing '\r' is dropped, as
// SplitCsvRecord drops it. False on anything else, quotes included; the
// caller then takes the line through ParseCodedCells.
bool ParseCodedLine(std::string_view line, std::span<const std::uint64_t> limits, Value* values) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const char* p = line.data();
  const char* const end = p + line.size();
  for (std::size_t i = 0; i < limits.size(); ++i) {
    if (i > 0) {
      if (p == end || *p != ',') return false;
      ++p;
    }
    const char* const cell = p;
    std::uint64_t value = 0;
    for (; p != end; ++p) {
      const unsigned digit = static_cast<unsigned char>(*p) - unsigned{'0'};
      if (digit > 9) break;
      value = value * 10 + digit;
    }
    if (p == cell || p - cell > 10 || value >= limits[i]) return false;
    values[i] = static_cast<Value>(value);
  }
  return p == end;
}

// A coded data line through SplitCsvRecord and the positioned checks:
// false (with `error` set) when it is malformed, otherwise its codes in
// `values`, QIs then SA (a quoted code reads as its digits).
bool ParseCodedCells(const Schema& schema, std::string_view line, std::size_t line_number,
                     const std::string& path, std::vector<std::string>* cells, Value* values,
                     CsvError* error) {
  if (!SplitRecordChecked(line, line_number, path, cells, error)) return false;
  const std::size_t d = schema.qi_count();
  if (cells->size() != d + 1) {
    SetError(error, path, line_number, 0,
             "row has " + std::to_string(cells->size()) + " cells; expected " +
                 std::to_string(d + 1));
    return false;
  }
  for (std::size_t i = 0; i <= d; ++i) {
    const Attribute& attr = i == d ? schema.sensitive() : schema.qi(static_cast<AttrId>(i));
    const std::string& cell = (*cells)[i];
    std::uint64_t value = 0;
    if (!ParseUintCell(cell, &value)) {
      SetError(error, path, line_number, i + 1,
               "cell '" + cell + "' is not a non-negative integer code (is this a raw " +
                   "string-valued CSV? load it with format 'raw')");
      return false;
    }
    if (value >= attr.domain_size) {
      SetError(error, path, line_number, i + 1,
               "value " + std::to_string(value) + " is outside the domain [0, " +
                   std::to_string(attr.domain_size) + ") of attribute '" + attr.name + "'");
      return false;
    }
    values[i] = static_cast<Value>(value);
  }
  return true;
}

// Evaluates the csv.read failpoint for the line about to be parsed.
bool CsvReadFails(const std::string& path, std::size_t line_number, CsvError* error) {
  failpoint::Injection injection;
  if (!failpoint::Check(failpoint::Site::kCsvRead, &injection)) return false;
  SetError(error, path, line_number, 0,
           failpoint::Describe(failpoint::Site::kCsvRead, injection, "read failed"));
  return true;
}

// A read(2) error ends a load as a positioned error rather than a short
// table that passes as a complete one.
bool ReadFailed(const LineReader& reader, const std::string& path, std::size_t line_number,
                CsvError* error) {
  if (reader.error() == 0) return false;
  SetError(error, path, line_number, 0,
           std::string("read failed: ") + std::strerror(reader.error()));
  return true;
}

// Opens `path` and splits its header row into `header`; false (with
// `error` set) when the file cannot be opened, is empty, or its header
// leaves a quote open.
bool ReadHeader(const std::string& path, LineReader* reader, std::vector<std::string>* header,
                CsvError* error) {
  if (!reader->Open(path)) {
    SetError(error, path, 0, 0, "cannot open file");
    return false;
  }
  std::string_view line;
  if (!reader->Next(&line)) {
    SetError(error, path, 1, 0, "empty file (missing header row)");
    return false;
  }
  return SplitRecordChecked(line, 1, path, header, error);
}

// Streaming core of the coded readers: opens `path`, validates the header
// against `schema`, then parses and domain-checks each data row and hands
// it to row_fn(qi_values, sa). Both the in-RAM and the paged reader are
// this loop plus a different sink, which is what keeps their outputs
// byte-identical.
template <typename RowFn>
bool StreamCodedCsv(const Schema& schema, const std::string& path, CsvError* error,
                    RowFn&& row_fn) {
  LineReader reader;
  std::vector<std::string> cells;
  if (!ReadHeader(path, &reader, &cells, error)) return false;
  if (!ValidateHeader(schema, cells, path, error)) return false;

  const std::size_t d = schema.qi_count();
  constexpr std::uint64_t kValueLimit = std::uint64_t{std::numeric_limits<Value>::max()} + 1;
  std::vector<std::uint64_t> limits(d + 1);  // codes lie below them
  for (std::size_t i = 0; i <= d; ++i) {
    const Attribute& attr = i == d ? schema.sensitive() : schema.qi(static_cast<AttrId>(i));
    limits[i] = std::min<std::uint64_t>(attr.domain_size, kValueLimit);
  }
  std::vector<Value> values(d + 1);  // QI codes, then the SA code
  std::string_view line;
  std::size_t line_number = 1;
  while (reader.Next(&line)) {
    ++line_number;
    if (CsvReadFails(path, line_number, error)) return false;
    if (IsBlankCsvLine(line)) continue;
    if (!ParseCodedLine(line, limits, values.data()) &&
        !ParseCodedCells(schema, line, line_number, path, &cells, values.data(), error)) {
      return false;
    }
    row_fn(std::span<const Value>(values.data(), d), values[d]);
  }
  return !ReadFailed(reader, path, line_number, error);
}

// The fast path of a raw data line: d + 1 cells (the size of `cells`) cut
// in place on commas after one trailing '\r' is dropped, exactly
// SplitCsvRecord's cells for a line without quotes. False when the line
// holds a quote, has another cell count, or a cell is empty or '*'; the
// caller then takes the line through ParseRawCells.
bool SplitRawLine(std::string_view line, std::span<std::string_view> cells) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (line.find('"') != std::string_view::npos) return false;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::size_t comma = line.find(',');
    const bool last = i + 1 == cells.size();
    if (last != (comma == std::string_view::npos)) return false;
    cells[i] = line.substr(0, comma);
    if (cells[i].empty() || cells[i] == "*") return false;
    if (!last) line.remove_prefix(comma + 1);
  }
  return true;
}

// A raw data line through SplitCsvRecord and the positioned checks: false
// (with `error` set) when it is malformed, otherwise its codes in
// `values`, QIs then SA, each label added to its dictionary on first sight.
bool ParseRawCells(std::string_view line, std::size_t line_number, const std::string& path,
                   const std::vector<std::string>& header,
                   std::vector<ValueDictionary>* dictionaries, std::vector<std::string>* cells,
                   Value* values, CsvError* error) {
  if (!SplitRecordChecked(line, line_number, path, cells, error)) return false;
  if (cells->size() != header.size()) {
    SetError(error, path, line_number, 0,
             "row has " + std::to_string(cells->size()) + " cells; the header names " +
                 std::to_string(header.size()));
    return false;
  }
  for (std::size_t i = 0; i < header.size(); ++i) {
    const std::string& cell = (*cells)[i];
    if (cell.empty()) {
      SetError(error, path, line_number, i + 1,
               "empty cell (labels must be non-empty under attribute '" + header[i] + "')");
      return false;
    }
    if (cell == "*") {
      SetError(error, path, line_number, i + 1,
               "the label '*' is reserved for the suppression marker releases use");
      return false;
    }
    values[i] = (*dictionaries)[i].GetOrAdd(cell);
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
                  RowFn&& row_fn, Schema* out_schema) {
  LineReader reader;
  std::vector<std::string> header;
  if (!ReadHeader(path, &reader, &header, error)) return false;
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
  std::vector<std::string_view> labels(d + 1);
  std::vector<Value> values(d + 1);  // QI codes, then the SA code
  std::vector<std::string> cells;
  std::string_view line;
  std::size_t line_number = 1;
  std::size_t rows = 0;
  while (reader.Next(&line)) {
    ++line_number;
    if (CsvReadFails(path, line_number, error)) return false;
    if (IsBlankCsvLine(line)) continue;
    if (SplitRawLine(line, labels)) {
      for (std::size_t i = 0; i <= d; ++i) values[i] = dictionaries[i].GetOrAdd(labels[i]);
    } else if (!ParseRawCells(line, line_number, path, header, &dictionaries, &cells, values.data(),
                              error)) {
      return false;
    }
    row_fn(std::span<const Value>(values.data(), d), values[d]);
    ++rows;
  }
  if (ReadFailed(reader, path, line_number, error)) return false;
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

// The in-RAM sink of both readers: plain column vectors, built into a table
// in one FromColumns call once the stream ends.
struct ColumnSink {
  std::vector<std::vector<Value>> columns;
  std::vector<SaValue> sa;

  void operator()(std::span<const Value> qi, SaValue sa_value) {
    for (std::size_t i = 0; i < qi.size(); ++i) columns[i].push_back(qi[i]);
    sa.push_back(sa_value);
  }
};

}  // namespace

std::optional<Table> ReadTableCsv(const Schema& schema, const std::string& path, CsvError* error) {
  ColumnSink sink{std::vector<std::vector<Value>>(schema.qi_count()), {}};
  if (!StreamCodedCsv(schema, path, error, sink)) return std::nullopt;
  return Table::FromColumns(schema, std::move(sink.columns), std::move(sink.sa));
}

std::optional<Table> ReadRawTableCsv(const std::string& path, CsvError* error) {
  ColumnSink sink;
  Schema schema;
  const bool ok = StreamRawCsv(
      path, error,
      [&sink](std::size_t d) {
        sink.columns.resize(d);
        return true;
      },
      sink, &schema);
  if (!ok) return std::nullopt;
  return Table::FromColumns(std::move(schema), std::move(sink.columns), std::move(sink.sa));
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
