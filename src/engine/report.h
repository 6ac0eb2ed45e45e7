#ifndef LDIV_ENGINE_REPORT_H_
#define LDIV_ENGINE_REPORT_H_

#include <string>

#include "engine/engine.h"

namespace ldv {

/// Report rendering knobs.
struct ReportOptions {
  /// Include wall-clock fields. Disabled (--no-timings) the reports are
  /// byte-deterministic, which golden tests and CI diffs rely on.
  bool include_seconds = true;
};

/// Renders the machine-readable JSON report: a versioned header, the input
/// tables with provenance, and one entry per job in job order carrying the
/// uniform utility metrics of AnonymizationOutcome. Key order is fixed and
/// number formatting locale-independent, so equal results render equal
/// bytes.
std::string RenderJsonReport(const JobResult& result, const ReportOptions& options = {});

/// The same rows as CSV (one line per job), for spreadsheet pipelines.
std::string RenderMetricsCsv(const JobResult& result, const ReportOptions& options = {});

/// Writes RenderJsonReport / RenderMetricsCsv to `path`. Returns false
/// with `*error` set on I/O failure.
bool WriteJsonReport(const JobResult& result, const std::string& path,
                     const ReportOptions& options, std::string* error);
bool WriteMetricsCsv(const JobResult& result, const std::string& path,
                     const ReportOptions& options, std::string* error);

/// Writes the anonymized release of one job. Suppression-view outcomes
/// (everything but Anatomy) land at <stem>.csv in the WriteReleaseCsv
/// format; a bucketization lands as the Anatomy pair -- the exact-QI table
/// at <stem>.csv with a Bucket column and the sensitive table at
/// <stem>_sa.csv as (Bucket, SA, Count) rows. Infeasible outcomes write
/// nothing and succeed. Returns false with `*error` set on I/O failure.
bool WriteReleaseForOutcome(const Table& table, const AnonymizationOutcome& outcome,
                            const std::string& stem, std::string* error);

}  // namespace ldv

#endif  // LDIV_ENGINE_REPORT_H_
