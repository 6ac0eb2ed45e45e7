#ifndef LDIV_ANONYMITY_RELEASE_H_
#define LDIV_ANONYMITY_RELEASE_H_

#include <optional>
#include <string>

#include "anonymity/generalization.h"
#include "common/table.h"

namespace ldv {

/// Writes a suppression release as CSV: a header row, then one row per
/// tuple with starred attributes emitted as '*' (the missing-value
/// convention off-the-shelf statistics packages understand, Section 2) and
/// the SA value as its integer code (its label for a dictionary-backed
/// attribute). Rows are grouped by QI-group. Returns false on I/O
/// failure, with `*error` (when non-null) set as OutputSink::Close sets it.
bool WriteReleaseCsv(const Table& table, const GeneralizedTable& generalized,
                     const std::string& path, std::string* error = nullptr);

/// One row of a parsed release.
struct ReleaseRow {
  /// QI values; kStar for suppressed cells.
  std::vector<Value> qi;
  SaValue sa = 0;
};

/// Reads a release written by WriteReleaseCsv. Returns std::nullopt on I/O
/// or parse failure (wrong column count, values outside the schema
/// domains). Stars parse back to kStar.
std::optional<std::vector<ReleaseRow>> ReadReleaseCsv(const Schema& schema,
                                                      const std::string& path);

}  // namespace ldv

#endif  // LDIV_ANONYMITY_RELEASE_H_
