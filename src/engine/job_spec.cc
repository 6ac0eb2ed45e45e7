#include "engine/job_spec.h"

#include <array>
#include <charconv>
#include <optional>
#include <utility>

#include "common/flags.h"
#include "common/memory_budget.h"
#include "common/schema_spec.h"

namespace ldv {

namespace {

constexpr std::array<std::string_view, 19> kJobSpecKeys = {
    "version", "algo",           "l",       "input",   "format",
    "schema",  "dataset",        "seed",    "n",       "d",
    "out",     "write-releases", "kl",      "timings", "threads",
    "memory-budget",             "emit-input",         "priority",
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
  // Optional keys are omitted when they hold the JobSpec default, which is
  // what ReadJobSpec gives an absent key.
  const JobSpec defaults;
  std::string text;
  const auto put_bool = [&](std::string_view key, bool value, bool default_value) {
    if (value != default_value) AppendKey(key, value ? "true" : "false", &text);
  };
  const auto put_number = [&](std::string_view key, std::uint64_t value,
                              std::uint64_t default_value) {
    if (value != default_value) AppendKey(key, std::to_string(value), &text);
  };
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
    if (spec.format != defaults.format) AppendKey("format", CsvFormatName(spec.format), &text);
    if (spec.schema_spec != defaults.schema_spec) AppendKey("schema", spec.schema_spec, &text);
  } else {
    AppendKey("dataset", spec.dataset.name, &text);
    put_number("seed", spec.dataset.seed, defaults.dataset.seed);
    AppendKey("n", JoinList(spec.ns), &text);
    AppendKey("d", JoinList(spec.ds), &text);
  }

  AppendKey("out", spec.out, &text);
  put_bool("write-releases", spec.write_releases, defaults.write_releases);
  put_bool("kl", spec.compute_kl, defaults.compute_kl);
  put_bool("timings", spec.timings, defaults.timings);
  put_number("threads", spec.threads, defaults.threads);
  put_number("memory-budget", spec.memory_budget, defaults.memory_budget);
  if (spec.emit_input != defaults.emit_input) AppendKey("emit-input", spec.emit_input, &text);
  put_number("priority", spec.priority, defaults.priority);
  put_number("deadline-ms", spec.deadline_ms, defaults.deadline_ms);
  return text;
}

Expected<JobSpec, PipelineError> ReadJobSpec(const FlagSet& keys) {
  const JobSpec defaults;
  JobSpec spec;
  std::string error;
  std::string text;
  // Reads `key` into `text`; false when it is absent.
  const auto present = [&](std::string_view key) {
    return keys.Has(key) && keys.GetString(key, "", &text, &error);
  };
  const auto fail = [&](std::string_view key) { return UsageError(std::string(key), error); };

  if (present("algo") && !ParseAlgorithmList(text, &spec.algorithms, &error)) return fail("algo");
  if (!keys.GetUint32List("l", defaults.ls, &spec.ls, &error)) return fail("l");

  keys.GetString("input", defaults.input, &spec.input, &error);
  if (present("format")) {
    if (!ParseCsvFormat(text, &spec.format, &error)) {
      error = "--format: " + error;
      return fail("format");
    }
    if (spec.input.empty()) {
      error = "--format only applies to --input CSV data";
      return fail("format");
    }
  }
  keys.GetString("schema", defaults.schema_spec, &spec.schema_spec, &error);

  keys.GetString("dataset", defaults.dataset.name, &spec.dataset.name, &error);
  if (!keys.GetUint64("seed", defaults.dataset.seed, &spec.dataset.seed, &error)) {
    return fail("seed");
  }
  if (!keys.GetUint64List("n", defaults.ns, &spec.ns, &error)) return fail("n");
  if (!keys.GetUint64List("d", defaults.ds, &spec.ds, &error)) return fail("d");
  if (!spec.input.empty()) {
    for (std::string_view key : {"dataset", "n", "d", "seed"}) {
      if (keys.Has(key)) {
        error = "--" + std::string(key) + " applies to synthetic data and conflicts with --input";
        return fail(key);
      }
    }
  }

  keys.GetString("out", defaults.out, &spec.out, &error);
  if (!keys.GetBool("write-releases", defaults.write_releases, &spec.write_releases, &error)) {
    return fail("write-releases");
  }
  if (!keys.GetBool("kl", defaults.compute_kl, &spec.compute_kl, &error)) return fail("kl");
  if (!keys.GetBool("timings", defaults.timings, &spec.timings, &error)) return fail("timings");
  if (present("threads")) {
    // `auto` is the hardware concurrency, which threads = 0 stands for.
    const std::string_view count = text == "auto" ? "0" : std::string_view(text);
    auto [ptr, ec] = std::from_chars(count.data(), count.data() + count.size(), spec.threads);
    if (ec != std::errc{} || ptr != count.data() + count.size()) {
      error = "--threads: expected a thread count or 'auto', got '" + text + "'";
      return fail("threads");
    }
  }
  // An empty size is unlimited, which memory_budget = 0 stands for.
  if (present("memory-budget") &&
      !ParseByteSize(text.empty() ? "0" : std::string_view(text), &spec.memory_budget, &error)) {
    error = "--memory-budget: " + error;
    return fail("memory-budget");
  }
  keys.GetString("emit-input", defaults.emit_input, &spec.emit_input, &error);
  if (!keys.GetUint32("priority", defaults.priority, &spec.priority, &error)) {
    return fail("priority");
  }
  if (!keys.GetUint64("deadline-ms", defaults.deadline_ms, &spec.deadline_ms, &error)) {
    return fail("deadline-ms");
  }
  return spec;
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
  return ReadJobSpec(keys);
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
