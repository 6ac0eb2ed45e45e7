#ifndef LDIV_COMMON_CSV_H_
#define LDIV_COMMON_CSV_H_

#include <array>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/failpoint.h"
#include "common/paged_column.h"
#include "common/table.h"

namespace ldv {

/// Structured description of one CSV load failure: which line (1-based,
/// counting the header; 0 = file-level), which column (1-based; 0 = the
/// whole line), and why. Everything here is user input, so load failures
/// report through this struct instead of aborting -- the CLI renders
/// ToString() as its one-line usage error.
struct CsvError {
  std::string path;
  std::size_t line = 0;
  std::size_t column = 0;
  std::string reason;

  /// One-line rendering, e.g. "micro.csv:5: column 3: value 12 is outside
  /// the domain [0, 9) of attribute 'Race'".
  std::string ToString() const;
};

/// Splits one CSV line into cells on commas, honoring RFC-4180 double
/// quotes ("a,b" is one cell; "" inside quotes is a literal quote). A
/// trailing carriage return (CRLF files saved on Windows) is stripped
/// before splitting so it can never leak into the last cell's label.
/// Embedded newlines are not supported -- ingestion is line-oriented.
/// A quote left open at the end of the line is silently treated as
/// closed; readers use SplitCsvRecord to reject that case instead.
void SplitCsvLine(const std::string& line, std::vector<std::string>* cells);

/// SplitCsvLine with quote-state checking: returns false when the line
/// (or the file's final unterminated chunk) ends inside an open quoted
/// cell, filling `open_cell` (when non-null) with the 1-based index of
/// the offending cell. The cells parsed so far are still delivered. All
/// ingestion goes through this so a truncated quoted field surfaces a
/// positioned CsvError instead of EOF-succeeding with a mangled label.
bool SplitCsvRecord(const std::string& line, std::vector<std::string>* cells,
                    std::size_t* open_cell);

/// True when the line holds no cells at all: empty, or a bare carriage
/// return left behind by CRLF line endings. Readers skip such lines.
bool IsBlankCsvLine(const std::string& line);

/// Quotes `cell` for CSV output when it contains a comma, a quote, or
/// leading/trailing whitespace; returns it verbatim otherwise.
std::string CsvEscapeCell(const std::string& cell);

/// One output file behind a caller-owned buffer, after TokuDB's
/// caller-owned DBT buffer: the caller lends the memory, the sink appends
/// into it and writes it out in kChunkBytes chunks. Every file the system
/// writes (releases, the Anatomy pair, reports, the dictionary sidecar,
/// the emit-input copy) streams through one of these. The first failure
/// -- the failpoint at Open, a failed open(2), write(2) or close(2) -- is
/// latched, later appends are dropped, and Close() reports it.
class OutputSink {
 public:
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 16;

  /// `buffer` must outlive the sink; its contents are overwritten.
  explicit OutputSink(std::string* buffer);
  ~OutputSink();
  OutputSink(const OutputSink&) = delete;
  OutputSink& operator=(const OutputSink&) = delete;

  /// Evaluates `site`'s failpoint, then creates or truncates `path`. False
  /// when either fails; a fired failpoint leaves no file behind.
  bool Open(const std::string& path, failpoint::Site site);

  void Append(std::string_view bytes) {
    if (bytes.size() <= static_cast<std::size_t>(end_ - cursor_)) {
      std::memcpy(cursor_, bytes.data(), bytes.size());
      cursor_ += bytes.size();
    } else {
      AppendAcrossChunks(bytes);
    }
  }
  void Append(char c) {
    if (cursor_ == end_) Flush();
    *cursor_++ = c;
  }
  void AppendUint(std::uint64_t value);

  /// Writes the buffered tail and closes the file. True when every byte
  /// landed; otherwise `*error` (when non-null) reads "cannot write
  /// 'PATH': <strerror>", plus " [failpoint SITE]" when an armed failpoint
  /// caused it.
  bool Close(std::string* error);

 private:
  void AppendAcrossChunks(std::string_view bytes);
  void Flush();

  char* begin_ = nullptr;
  char* cursor_ = nullptr;
  char* end_ = nullptr;
  std::string path_;
  int fd_ = -1;
  int errno_ = EBADF;  // until Open succeeds
  std::string failpoint_error_;
};

/// How one attribute's values render as CSV cells, resolved once per
/// write: a dictionary-backed attribute looks up its labels, escaped up
/// front; a coded attribute prints each value's decimal code. The release
/// writers decode every cell through this, so the suppression view and
/// the Anatomy pair decode identically.
class CsvCellText {
 public:
  /// Scratch for a formatted code; Value codes have at most 10 digits.
  using Digits = std::array<char, 10>;

  explicit CsvCellText(const Attribute& attr);

  /// The cell of `v`, formatted into `digits` when the attribute is coded.
  std::string_view Cell(Value v, Digits* digits) const {
    if (!labels_.empty()) return labels_[v];
    const char* end = std::to_chars(digits->data(), digits->data() + digits->size(), v).ptr;
    return {digits->data(), static_cast<std::size_t>(end - digits->data())};
  }

 private:
  std::vector<std::string> labels_;  // escaped, by code; empty when coded
};

/// Writes `table` as CSV with a header row (QI attribute names then the SA
/// name). Values are written as their integer codes; suppression markers
/// never appear in raw microdata. The file sits under the report.write
/// failpoint. Returns false on I/O failure, with `*error` (when non-null)
/// set as OutputSink::Close sets it.
bool WriteTableCsv(const Table& table, const std::string& path, std::string* error = nullptr);

/// Reads a coded CSV produced by WriteTableCsv back into a table with the
/// given schema. The header row is validated against the schema: the
/// column count must be d+1 and every named column must match the schema's
/// attribute name (generated placeholder names Q1..Qd / S accept any
/// header). Returns std::nullopt on I/O or parse failure (header mismatch,
/// wrong column count, non-numeric cell, value outside its domain) and
/// fills `*error` with the line/column/reason when provided.
std::optional<Table> ReadTableCsv(const Schema& schema, const std::string& path,
                                  CsvError* error = nullptr);

/// Reads a raw (string-valued) CSV into a table, building one value
/// dictionary per column on the fly: the header names the attributes (the
/// last column is the sensitive attribute), every distinct cell label gets
/// the next insertion-ordered code, and the resulting schema's domain
/// sizes are the distinct-label counts. The label '*' is rejected (it is
/// reserved for the suppression marker in releases), as are duplicate
/// attribute names in the header (the dictionary sidecar keys labels by
/// attribute name). Returns std::nullopt (with `*error` filled when
/// provided) on I/O failure, a ragged row, an empty cell, or a file
/// without data rows.
std::optional<Table> ReadRawTableCsv(const std::string& path, CsvError* error = nullptr);

/// Streaming (out-of-core) twin of ReadTableCsv: rows are validated and
/// appended straight into a PagedTableBuilder's page staging, so the row
/// set is never materialized in RAM. Same header validation, cell
/// diagnostics, and resulting data as the in-RAM reader -- the sealed
/// table's resident() view is byte-identical to ReadTableCsv's output.
std::unique_ptr<PagedTable> ReadTableCsvPaged(const Schema& schema, const std::string& path,
                                              const PagedTableBuilder::Options& options,
                                              CsvError* error = nullptr);

/// Streaming twin of ReadRawTableCsv: builds the per-column dictionaries
/// on the fly (insertion order matches the in-RAM reader exactly, so the
/// codes agree) while writing pages. Dictionaries are O(distinct labels)
/// resident; rows are not.
std::unique_ptr<PagedTable> ReadRawTableCsvPaged(const std::string& path,
                                                 const PagedTableBuilder::Options& options,
                                                 CsvError* error = nullptr);

/// Serializes the schema's value dictionaries as CSV rows of
/// (attribute, code, label), QI attributes first, then the sensitive
/// attribute -- the sidecar the CLI writes next to a decoded release so
/// codes remain machine-recoverable. Attributes without a dictionary are
/// skipped. The file sits under the report.write failpoint. Returns false
/// on I/O failure, with `*error` (when non-null) set as OutputSink::Close
/// sets it.
bool WriteDictionaryCsv(const Schema& schema, const std::string& path,
                        std::string* error = nullptr);

}  // namespace ldv

#endif  // LDIV_COMMON_CSV_H_
