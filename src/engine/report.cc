#include "engine/report.h"

#include <algorithm>
#include <cstdio>

#include "anonymity/release.h"
#include "common/csv.h"

namespace ldv {

namespace {

void AppendJsonString(const std::string& text, std::string* out) {
  out->push_back('"');
  for (char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

// Shortest-ish locale-independent double rendering; %.9g keeps every
// metric digit the tests compare while "12.5" stays "12.5".
std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}

// Quotes one CSV cell (provenance labels contain commas).
std::string CsvQuote(const std::string& text) {
  std::string quoted = "\"";
  for (char c : text) {
    if (c == '"') {
      quoted += "\"\"";
    } else {
      quoted.push_back(c);
    }
  }
  quoted += "\"";
  return quoted;
}

bool WriteFile(const std::string& content, const std::string& path, std::string* error) {
  std::string buffer;
  OutputSink out(&buffer);
  if (out.Open(path, failpoint::Site::kReportWrite)) out.Append(content);
  return out.Close(error);
}

}  // namespace

std::string RenderJsonReport(const JobResult& result, const ReportOptions& options) {
  std::string json;
  json += "{\n";
  json += "  \"ldiv_report_version\": 1,\n";
  json += "  \"job_count\": " + std::to_string(result.jobs.size()) + ",\n";
  if (options.include_seconds) {
    // An execution detail like the wall-clock fields: recorded only when
    // timings are, so --no-timings reports stay byte-identical across
    // thread budgets.
    json += "  \"threads\": " + std::to_string(result.threads) + ",\n";
  }

  json += "  \"tables\": [\n";
  for (std::size_t t = 0; t < result.tables.size(); ++t) {
    const EngineTable& input = *result.tables[t];
    json += "    {\"index\": " + std::to_string(t) + ", \"source\": ";
    AppendJsonString(input.source, &json);
    json += ", \"rows\": " + std::to_string(input.table.size());
    json += ", \"qi_attributes\": " + std::to_string(input.table.qi_count());
    json += ", \"schema\": ";
    AppendJsonString(input.table.schema().ToString(), &json);
    json += t + 1 < result.tables.size() ? "},\n" : "}\n";
  }
  json += "  ],\n";

  json += "  \"jobs\": [\n";
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const EngineJob& job = result.jobs[i];
    const AnonymizationOutcome& outcome = job.outcome;
    json += "    {\n";
    json += "      \"job\": " + std::to_string(i) + ",\n";
    json += "      \"table\": " + std::to_string(job.spec.table_index) + ",\n";
    json += "      \"algorithm\": ";
    AppendJsonString(AlgorithmName(job.spec.algorithm), &json);
    json += ",\n";
    json += "      \"methodology\": ";
    AppendJsonString(MethodologyName(outcome.methodology), &json);
    json += ",\n";
    json += "      \"l\": " + std::to_string(job.spec.l) + ",\n";
    json += std::string("      \"feasible\": ") + (outcome.feasible ? "true" : "false") + ",\n";
    json += "      \"stars\": " + std::to_string(outcome.stars) + ",\n";
    json += "      \"suppressed_tuples\": " + std::to_string(outcome.suppressed_tuples) + ",\n";
    json += "      \"groups\": " + std::to_string(outcome.group_stats.group_count) + ",\n";
    json += "      \"min_group\": " + std::to_string(outcome.group_stats.min_size) + ",\n";
    json += "      \"max_group\": " + std::to_string(outcome.group_stats.max_size) + ",\n";
    json += "      \"mean_group\": " + FormatDouble(outcome.group_stats.mean_size) + ",\n";
    json += "      \"kl_divergence\": " + FormatDouble(outcome.kl_divergence) + ",\n";
    json += "      \"specializations\": " + std::to_string(outcome.specializations);
    if (options.include_seconds) {
      json += ",\n      \"seconds\": " + FormatDouble(outcome.seconds);
    }
    json += "\n";
    json += i + 1 < result.jobs.size() ? "    },\n" : "    }\n";
  }
  json += "  ]\n";
  json += "}\n";
  return json;
}

std::string RenderMetricsCsv(const JobResult& result, const ReportOptions& options) {
  std::string csv =
      "job,table,source,algorithm,methodology,l,rows,feasible,stars,"
      "suppressed_tuples,groups,min_group,max_group,mean_group,kl_divergence,"
      "specializations";
  if (options.include_seconds) csv += ",seconds";
  csv += "\n";
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const EngineJob& job = result.jobs[i];
    const AnonymizationOutcome& outcome = job.outcome;
    const EngineTable& input = *result.tables[job.spec.table_index];
    csv += std::to_string(i) + "," + std::to_string(job.spec.table_index) + ",";
    csv += CsvQuote(input.source) + ",";
    csv += std::string(AlgorithmName(job.spec.algorithm)) + ",";
    csv += std::string(MethodologyName(outcome.methodology)) + ",";
    csv += std::to_string(job.spec.l) + ",";
    csv += std::to_string(input.table.size()) + ",";
    csv += std::string(outcome.feasible ? "true" : "false") + ",";
    csv += std::to_string(outcome.stars) + ",";
    csv += std::to_string(outcome.suppressed_tuples) + ",";
    csv += std::to_string(outcome.group_stats.group_count) + ",";
    csv += std::to_string(outcome.group_stats.min_size) + ",";
    csv += std::to_string(outcome.group_stats.max_size) + ",";
    csv += FormatDouble(outcome.group_stats.mean_size) + ",";
    csv += FormatDouble(outcome.kl_divergence) + ",";
    csv += std::to_string(outcome.specializations);
    if (options.include_seconds) {
      csv += ",";
      csv += FormatDouble(outcome.seconds);
    }
    csv += "\n";
  }
  return csv;
}

bool WriteJsonReport(const JobResult& result, const std::string& path,
                     const ReportOptions& options, std::string* error) {
  return WriteFile(RenderJsonReport(result, options), path, error);
}

bool WriteMetricsCsv(const JobResult& result, const std::string& path,
                     const ReportOptions& options, std::string* error) {
  return WriteFile(RenderMetricsCsv(result, options), path, error);
}

bool WriteReleaseForOutcome(const Table& table, const AnonymizationOutcome& outcome,
                            const std::string& stem, std::string* error) {
  if (!outcome.feasible) return true;
  if (outcome.generalized != nullptr) {
    return WriteReleaseCsv(table, *outcome.generalized, stem + ".csv", error);
  }

  // Anatomy pair: exact QI values linked to the sensitive table only
  // through bucket ids (Section 2's bucketization trade-off). Cells decode
  // through the same CsvCellText as the suppression-view releases.
  std::string qit_buffer;
  std::string st_buffer;
  OutputSink qit(&qit_buffer);
  OutputSink st(&st_buffer);
  if (qit.Open(stem + ".csv", failpoint::Site::kReportWrite) &&
      st.Open(stem + "_sa.csv", failpoint::Site::kReportWrite)) {
    const Schema& schema = table.schema();
    const std::size_t d = schema.qi_count();
    std::vector<CsvCellText> qi_text;
    qi_text.reserve(d);
    for (AttrId a = 0; a < d; ++a) {
      qi_text.emplace_back(schema.qi(a));
      qit.Append(CsvEscapeCell(schema.qi(a).name));
      qit.Append(',');
    }
    qit.Append("Bucket\n");
    st.Append("Bucket,");
    st.Append(CsvEscapeCell(schema.sensitive().name));
    st.Append(",Count\n");
    const CsvCellText sa_text(schema.sensitive());
    CsvCellText::Digits digits{};
    std::vector<SaValue> codes;
    const Partition& buckets = outcome.partition;
    for (GroupId g = 0; g < buckets.group_count(); ++g) {
      const std::string bucket = std::to_string(g);
      codes.clear();
      for (RowId row : buckets.group(g)) {
        for (AttrId a = 0; a < d; ++a) {
          qit.Append(qi_text[a].Cell(table.qi(row, a), &digits));
          qit.Append(',');
        }
        qit.Append(bucket);
        qit.Append('\n');
        codes.push_back(table.sa(row));
      }
      // The bucket's ST rows: its own distinct SA codes, ascending.
      std::sort(codes.begin(), codes.end());
      for (std::size_t i = 0; i < codes.size();) {
        std::size_t j = i + 1;
        while (j < codes.size() && codes[j] == codes[i]) ++j;
        st.Append(bucket);
        st.Append(',');
        st.Append(sa_text.Cell(codes[i], &digits));
        st.Append(',');
        st.AppendUint(j - i);
        st.Append('\n');
        i = j;
      }
    }
  }
  const bool qit_ok = qit.Close(error);
  return st.Close(qit_ok ? error : nullptr) && qit_ok;
}

std::optional<PipelineError> WriteJobOutputs(const JobSpec& spec, const JobResult& result,
                                             std::string* notices) {
  std::string error;
  if (!spec.emit_input.empty()) {
    // ResolveJobSpec guarantees a single-table grid when emit_input is
    // set, so tables.front() is the one input.
    if (!WriteTableCsv(result.tables.front()->table, spec.emit_input, &error)) {
      return IoError(error);
    }
    if (notices != nullptr) *notices += "wrote input table to " + spec.emit_input + "\n";
  }

  // A raw (dictionary-coded) input serializes its dictionaries alongside
  // the releases so the codes stay machine-recoverable.
  if (!result.tables.empty() && result.tables.front()->table.schema().has_dictionaries()) {
    std::string dict_path = spec.out + "_dict.csv";
    if (!WriteDictionaryCsv(result.tables.front()->table.schema(), dict_path, &error)) {
      return IoError(error);
    }
    if (notices != nullptr) *notices += "wrote value dictionaries to " + dict_path + "\n";
  }

  // Releases: single-job runs always write one; sweeps write per-job
  // releases only on request (write_releases).
  const bool single = result.jobs.size() == 1;
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    if (!single && !spec.write_releases) break;
    const EngineJob& job = result.jobs[i];
    std::string stem = single ? spec.out : spec.out + ".job" + std::to_string(i);
    const Table& table = result.tables[job.spec.table_index]->table;
    if (!WriteReleaseForOutcome(table, job.outcome, stem, &error)) return IoError(error);
  }

  ReportOptions report_options;
  report_options.include_seconds = spec.timings;
  if (!WriteJsonReport(result, spec.out + ".json", report_options, &error) ||
      !WriteMetricsCsv(result, spec.out + "_metrics.csv", report_options, &error)) {
    return IoError(error);
  }
  return std::nullopt;
}

}  // namespace ldv
