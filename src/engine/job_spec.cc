#include "engine/job_spec.h"

#include <array>
#include <optional>
#include <utility>

#include "common/flags.h"
#include "common/memory_budget.h"
#include "common/schema_spec.h"

namespace ldv {

namespace {

constexpr std::array<std::string_view, 20> kJobSpecKeys = {
    "version", "algo",    "l",       "input",          "format",
    "schema",  "dataset", "seed",    "n",              "d",
    "out",     "sweep",   "write-releases", "kl",      "timings",
    "threads", "memory-budget",      "emit-input",     "priority",
    "deadline-ms",
};

template <typename T>
std::string JoinList(const std::vector<T>& values) {
  std::string joined;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) joined += ",";
    joined += std::to_string(values[i]);
  }
  return joined;
}

void AppendKey(std::string_view key, std::string_view value, std::string* out) {
  *out += std::string(key) + " = " + std::string(value) + "\n";
}

std::string_view TrimSpecView(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) text.remove_prefix(1);
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t' || text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

/// The longest key in kJobSpecKeys is 14 bytes; 128 bounds what a hostile
/// payload can make the parser buffer per key while staying far above any
/// legitimate spec.
constexpr std::size_t kMaxJobSpecKeyBytes = 128;

// Strict pre-pass over a serialized spec, ahead of the lenient
// ParseConfigText. The config parser tolerates what a hand-edited file
// needs (first-occurrence-wins duplicates, arbitrary value bytes); a spec
// that crossed a socket gets no such benefit of the doubt -- a NUL would
// truncate inside C-string sinks, and a silently dropped duplicate `out`
// would hide where a job writes. Lines are numbered the way
// ParseConfigText numbers them, so errors position the same way.
std::optional<PipelineError> CheckJobSpecText(std::string_view text) {
  if (text.find('\0') != std::string_view::npos) {
    return UsageError("", "jobspec: payload contains a NUL byte");
  }
  std::vector<std::string> seen;
  std::size_t line_number = 0;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    ++line_number;
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = TrimSpecView(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) continue;  // ParseConfigText positions this error
    const std::string key(TrimSpecView(line.substr(0, eq)));
    if (key.size() > kMaxJobSpecKeyBytes) {
      return UsageError("", "jobspec:" + std::to_string(line_number) + ": key of " +
                                std::to_string(key.size()) + " bytes exceeds the " +
                                std::to_string(kMaxJobSpecKeyBytes) + "-byte limit");
    }
    for (const std::string& earlier : seen) {
      if (earlier == key) {
        return UsageError(key, "jobspec:" + std::to_string(line_number) + ": duplicate key '" +
                                   key + "' (the second value would be silently ignored)");
      }
    }
    seen.push_back(key);
  }
  return std::nullopt;
}

}  // namespace

std::string SerializeJobSpec(const JobSpec& spec) {
  std::string text;
  AppendKey("version", std::to_string(kJobSpecVersion), &text);

  std::string algos;
  for (std::size_t i = 0; i < spec.algorithms.size(); ++i) {
    if (i != 0) algos += ",";
    algos += AlgorithmName(spec.algorithms[i]);
  }
  AppendKey("algo", algos, &text);
  AppendKey("l", JoinList(spec.ls), &text);

  if (!spec.input.empty()) {
    AppendKey("input", spec.input, &text);
    if (spec.format != CsvFormat::kAuto) AppendKey("format", CsvFormatName(spec.format), &text);
    if (!spec.schema_spec.empty()) AppendKey("schema", spec.schema_spec, &text);
  } else {
    AppendKey("dataset", spec.dataset.name, &text);
    if (spec.dataset.seed != 0) AppendKey("seed", std::to_string(spec.dataset.seed), &text);
    AppendKey("n", JoinList(spec.ns), &text);
    AppendKey("d", JoinList(spec.ds), &text);
  }

  AppendKey("out", spec.out, &text);
  if (spec.sweep) AppendKey("sweep", "true", &text);
  if (spec.write_releases) AppendKey("write-releases", "true", &text);
  if (!spec.compute_kl) AppendKey("kl", "false", &text);
  if (!spec.timings) AppendKey("timings", "false", &text);
  if (spec.threads != 0) AppendKey("threads", std::to_string(spec.threads), &text);
  if (spec.memory_budget != 0) {
    AppendKey("memory-budget", std::to_string(spec.memory_budget), &text);
  }
  if (!spec.emit_input.empty()) AppendKey("emit-input", spec.emit_input, &text);
  if (spec.priority != 0) AppendKey("priority", std::to_string(spec.priority), &text);
  if (spec.deadline_ms != 0) AppendKey("deadline-ms", std::to_string(spec.deadline_ms), &text);
  return text;
}

Expected<JobSpec, PipelineError> ParseJobSpec(std::string_view text) {
  if (std::optional<PipelineError> strict = CheckJobSpecText(text)) return *strict;
  FlagSet keys;
  std::string error;
  if (!keys.ParseConfigText(text, "jobspec", &error)) return UsageError("", error);

  std::vector<std::string> unknown = keys.UnknownKeys(kJobSpecKeys);
  if (!unknown.empty()) {
    return UsageError(unknown.front(), "unknown job spec key '" + unknown.front() + "'");
  }
  if (!keys.Has("version")) {
    return UsageError("version", "job spec is missing its 'version' key");
  }
  std::uint32_t version = 0;
  if (!keys.GetUint32("version", 0, &version, &error)) return UsageError("version", error);
  if (version != kJobSpecVersion) {
    return UsageError("version", "unsupported job spec version " + std::to_string(version) +
                                     " (this engine speaks version " +
                                     std::to_string(kJobSpecVersion) + ")");
  }

  JobSpec spec;
  std::string algo_list;
  if (!keys.GetString("algo", "tp+", &algo_list, &error)) return UsageError("algo", error);
  if (!ParseAlgorithmList(algo_list, &spec.algorithms, &error)) return UsageError("algo", error);
  constexpr std::array<std::uint32_t, 1> kDefaultL = {2};
  if (!keys.GetUint32List("l", kDefaultL, &spec.ls, &error)) return UsageError("l", error);

  if (!keys.GetString("input", "", &spec.input, &error)) return UsageError("input", error);
  std::string format_text;
  if (!keys.GetString("format", "auto", &format_text, &error)) return UsageError("format", error);
  if (!ParseCsvFormat(format_text, &spec.format, &error)) return UsageError("format", error);
  if (!keys.GetString("schema", "", &spec.schema_spec, &error)) return UsageError("schema", error);

  if (!keys.GetString("dataset", "sal", &spec.dataset.name, &error)) {
    return UsageError("dataset", error);
  }
  if (!keys.GetUint64("seed", 0, &spec.dataset.seed, &error)) return UsageError("seed", error);
  constexpr std::array<std::uint64_t, 1> kDefaultN = {10000};
  constexpr std::array<std::uint64_t, 1> kDefaultD = {3};
  if (!keys.GetUint64List("n", kDefaultN, &spec.ns, &error)) return UsageError("n", error);
  if (!keys.GetUint64List("d", kDefaultD, &spec.ds, &error)) return UsageError("d", error);

  if (!keys.GetString("out", "ldiv_out", &spec.out, &error)) return UsageError("out", error);
  if (!keys.GetBool("sweep", false, &spec.sweep, &error)) return UsageError("sweep", error);
  if (!keys.GetBool("write-releases", false, &spec.write_releases, &error)) {
    return UsageError("write-releases", error);
  }
  if (!keys.GetBool("kl", true, &spec.compute_kl, &error)) return UsageError("kl", error);
  if (!keys.GetBool("timings", true, &spec.timings, &error)) return UsageError("timings", error);
  if (!keys.GetUint32("threads", 0, &spec.threads, &error)) return UsageError("threads", error);
  if (!keys.GetUint64("memory-budget", 0, &spec.memory_budget, &error)) {
    return UsageError("memory-budget", error);
  }
  if (!keys.GetString("emit-input", "", &spec.emit_input, &error)) {
    return UsageError("emit-input", error);
  }
  if (!keys.GetUint32("priority", 0, &spec.priority, &error)) return UsageError("priority", error);
  if (!keys.GetUint64("deadline-ms", 0, &spec.deadline_ms, &error)) {
    return UsageError("deadline-ms", error);
  }
  return spec;
}

Expected<ResolvedJobSpec, PipelineError> ResolveJobSpec(const JobSpec& spec) {
  if (spec.algorithms.empty() || spec.ls.empty()) {
    return UsageError("algo", "nothing to run: the algorithm and l lists must be non-empty");
  }
  for (std::uint32_t l : spec.ls) {
    if (l == 0) return UsageError("l", "--l: the privacy parameter must be at least 1");
  }

  ResolvedJobSpec resolved;
  resolved.spec = spec;
  std::string error;
  if (!spec.input.empty()) {
    if (!spec.schema_spec.empty()) {
      if (spec.format == CsvFormat::kRaw) {
        return UsageError("schema",
                          "--format=raw infers the schema from the file's labels; drop --schema");
      }
      resolved.schema = ParseSchemaSpec(spec.schema_spec, &error);
      if (!resolved.schema) return UsageError("schema", error);
    } else if (spec.format == CsvFormat::kCoded) {
      return UsageError(
          "schema", "--format=coded requires --schema (e.g. --schema=Age:79,Gender:2|Income:50)");
    }
    // Resolve kAuto up front so a coded-looking file without a schema is a
    // usage error, not a silent raw ingestion of digit strings; detection
    // I/O failures resolve to raw and the loader's own open error reports
    // through the I/O exit code.
    if (!ResolveCsvFormat(spec.input, spec.format, resolved.schema.has_value(), &resolved.format,
                          &error)) {
      return UsageError("format", error);
    }
    // A CSV input is one table: normalize the grid so downstream
    // table-count logic has a single rule.
    resolved.spec.ns = {0};
    resolved.spec.ds = {0};
  } else {
    if (!spec.schema_spec.empty()) {
      return UsageError(
          "schema", "--schema only applies to --input CSV data (synthetic datasets carry their own)");
    }
    if (spec.format != CsvFormat::kAuto) {
      return UsageError("format", "--format only applies to --input CSV data");
    }
    if (spec.ns.empty() || spec.ds.empty()) {
      return UsageError("n", "nothing to run: the (n, d) grid produced no input tables");
    }
    // Validate every (n, d) grid cell up front: spec mistakes are usage
    // errors, not pipeline failures.
    for (std::uint64_t n : spec.ns) {
      for (std::uint64_t d : spec.ds) {
        DatasetSpec cell = spec.dataset;
        cell.n = static_cast<std::size_t>(n);
        cell.d = static_cast<std::size_t>(d);
        if (!ResolveDatasetSpec(cell, &error).has_value()) return UsageError("dataset", error);
      }
    }
  }

  if (resolved.spec.out.empty()) return UsageError("out", "--out must not be empty");
  if (spec.memory_budget != 0 && spec.memory_budget < (8u << 20)) {
    return UsageError("memory-budget",
                      "--memory-budget: " + FormatByteSize(spec.memory_budget) +
                          " is below the 8M floor (page staging alone needs a few MiB)");
  }
  if (!spec.emit_input.empty()) {
    const std::size_t table_count =
        spec.input.empty() ? spec.ns.size() * spec.ds.size() : std::size_t{1};
    if (table_count != 1) {
      return UsageError("emit-input", "--emit-input needs a single input table; the (n, d) grid has " +
                                          std::to_string(table_count));
    }
  }
  return resolved;
}

}  // namespace ldv
