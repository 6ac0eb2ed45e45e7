// Traced in-process replay of the benchmark's `ldiv` requests.
//
// Links the same libldv the measured `ldiv` binary is built from and
// replays each request by calling the layers' public functions in the
// order Engine::Run and WriteJobOutputs call them, with a span around
// every call. run.py compares every replayed release byte for byte with
// the CLI's release for the same request, which shows the replay did the
// same work, and turns the spans into per-layer times.
//
//   ldiv_replay --plan=FILE --threads=N [--memory-budget=BYTES]
//               [--cache-inputs=true] --spans=FILE
//
// Each plan line is one request, tab-separated:
//
//   input-path  coded|raw  schema-spec|-  algorithm-list  l-list  out-stem  write-releases
//
// stdout gets one JSON object per request. --cache-inputs replays a
// long-running daemon: every distinct input is loaded, grouped and
// Hilbert-ordered once up front (request -1), as the daemon's warm-up fills
// its DatasetCache and ArtifactCache, and the requests reuse them. Spans
// stay in memory and are written to --spans as Chrome trace-event JSON
// when the run ends.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "anonymity/anatomy.h"
#include "anonymity/eligibility.h"
#include "anonymity/generalization.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/grouped_table.h"
#include "common/memory_budget.h"
#include "common/parallel.h"
#include "common/schema_spec.h"
#include "core/algorithm.h"
#include "core/run_spec.h"
#include "core/tp.h"
#include "core/tp_plus.h"
#include "data/dataset.h"
#include "engine/engine.h"
#include "engine/report.h"
#include "hilbert/hilbert_partitioner.h"
#include "metrics/group_stats.h"
#include "metrics/kl_divergence.h"
#include "mondrian/mondrian.h"
#include "tds/tds.h"

namespace {

using namespace ldv;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  int request = 0;
  int thread = 0;
};

std::atomic<std::int64_t> g_next_span_id{0};

// The spans of one thread. Every thread records into its own log, so
// recording takes no lock; logs are merged after their threads join.
class SpanLog {
 public:
  explicit SpanLog(int thread) : thread_(thread) {}

  // Opens a span under this thread's innermost open span, or under `root`
  // when none is open (a batch worker's spans hang off the batch span).
  void Open(const char* name, int request, std::int64_t root) {
    Span span;
    span.name = name;
    span.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
    span.parent = open_.empty() ? root : spans_[open_.back()].id;
    span.request = request;
    span.thread = thread_;
    open_.push_back(spans_.size());
    spans_.push_back(span);
    spans_.back().start_ns = NowNs();
  }

  void Close() {
    spans_[open_.back()].end_ns = NowNs();
    open_.pop_back();
  }

  std::int64_t current() const { return open_.empty() ? -1 : spans_[open_.back()].id; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int thread_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int request, std::int64_t root = -1) : log_(log) {
    log_.Open(name, request, root);
  }
  ~ScopedSpan() { log_.Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
};

struct PlanLine {
  std::string input;
  CsvFormat format = CsvFormat::kCoded;
  std::string schema_spec;
  std::vector<Algorithm> algorithms;
  std::vector<std::uint32_t> ls;
  std::string out;
  bool write_releases = false;
};

struct Options {
  unsigned threads = 1;
  std::uint64_t memory_budget = 0;
  bool cache_inputs = false;
};

struct Failure {
  std::string message;
};

std::vector<std::string> Split(const std::string& text, char separator) {
  std::vector<std::string> fields;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t end = text.find(separator, begin);
    fields.push_back(text.substr(begin, end - begin));
    if (end == std::string::npos) return fields;
    begin = end + 1;
  }
}

std::vector<PlanLine> ReadPlan(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Failure{"cannot read plan '" + path + "'"};
  std::vector<PlanLine> plan;
  std::string line;
  std::string error;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> f = Split(line, '\t');
    if (f.size() != 7) throw Failure{"plan line needs 7 tab-separated fields: " + line};
    PlanLine p;
    p.input = f[0];
    if (!ParseCsvFormat(f[1], &p.format, &error) || p.format == CsvFormat::kAuto ||
        !ParseAlgorithmList(f[3], &p.algorithms, &error)) {
      throw Failure{"bad plan line '" + line + "': " + error};
    }
    for (const std::string& l : Split(f[4], ',')) {
      p.ls.push_back(static_cast<std::uint32_t>(std::stoul(l)));
    }
    p.schema_spec = f[2] == "-" ? "" : f[2];
    p.out = f[5];
    p.write_releases = f[6] == "1";
    plan.push_back(std::move(p));
  }
  return plan;
}

std::uint64_t FileBytes(const std::string& path) {
  struct ::stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

// Engine::MaterializeTables: a budgeted run pages a CSV whose in-RAM
// estimate (twice the file size) exceeds a quarter of the budget, with a
// page cache of a quarter of the budget clamped to [8, 256] frames.
std::shared_ptr<const EngineTable> LoadInput(const PlanLine& line, SpanLog& log, int request) {
  std::string error;
  std::optional<Schema> schema;
  if (line.format == CsvFormat::kCoded) {
    schema = ParseSchemaSpec(line.schema_spec, &error);
    if (!schema) throw Failure{error};
  }
  const Schema* schema_ptr = schema ? &*schema : nullptr;
  const std::string source = (line.format == CsvFormat::kRaw ? "csv-raw:" : "csv:") + line.input;
  const std::uint64_t budget = MemoryBudgetBytes();
  if (budget != 0 && 2 * FileBytes(line.input) + 4096 > budget / 4) {
    ScopedSpan span(log, "data.load_paged", request);
    PagedTableBuilder::Options paged;
    paged.budget = GlobalMemoryBudgetShared();
    paged.cache_frames = static_cast<std::size_t>(
        std::clamp<std::uint64_t>(budget / 4 / paged.page_bytes, 8, 256));
    std::unique_ptr<PagedTable> table =
        LoadTableCsvPaged(line.input, line.format, schema_ptr, paged, &error);
    if (table == nullptr) throw Failure{error};
    auto entry = std::make_shared<EngineTable>(std::move(table));
    entry->source = source;
    return entry;
  }
  ScopedSpan span(log, "data.load", request);
  std::optional<Table> table = LoadTableCsv(line.input, line.format, schema_ptr, &error);
  if (!table) throw Failure{error};
  auto entry = std::make_shared<EngineTable>(std::move(*table));
  entry->source = source;
  return entry;
}

// Engine::ResolveArtifacts, for one table.
TableArtifacts ResolveArtifacts(const Table& table, bool grouped, bool order, SpanLog& log,
                                int request) {
  TableArtifacts artifacts;
  Workspace workspace;
  if (grouped) {
    ScopedSpan span(log, "common.group", request);
    auto built = std::make_shared<GroupedTable>(table, &workspace);
    built->ReleaseBudgetCharge();
    artifacts.grouped = std::move(built);
  }
  if (order) {
    ScopedSpan span(log, "hilbert.order", request);
    auto built = std::make_shared<std::vector<RowId>>();
    HilbertComputeOrder(table, &workspace, built.get());
    artifacts.hilbert_order = std::move(built);
  }
  return artifacts;
}

std::uint64_t ArtifactBytes(const TableArtifacts& artifacts) {
  std::uint64_t bytes = 0;
  if (artifacts.grouped != nullptr) bytes += artifacts.grouped->ApproxBytes();
  if (artifacts.hilbert_order != nullptr) bytes += artifacts.hilbert_order->size() * sizeof(RowId);
  return bytes;
}

// Anonymizer::Run with each layer call in its own span: the solve, then
// the l-diversity check (a debug-only check in the engine, timed here
// because a release auditor would take its place), the group statistics,
// generalization and the methodology's KL estimator.
AnonymizationOutcome ReplayJob(const Table& table, const RunSpec& run,
                               const TableArtifacts* artifacts, Workspace* workspace,
                               SpanLog& log, int request, std::int64_t root, bool* diverse) {
  AnonymizationOutcome out;
  out.algorithm = run.algorithm;
  out.methodology = AlgorithmRegistry::Global().Get(run.algorithm).methodology();
  const GroupedTable* grouped = artifacts != nullptr ? artifacts->grouped.get() : nullptr;
  const std::vector<RowId>* order =
      artifacts != nullptr ? artifacts->hilbert_order.get() : nullptr;
  bool feasible = false;
  switch (run.algorithm) {
    case Algorithm::kTp: {
      ScopedSpan span(log, "core.tp", request, root);
      TpResult r = grouped != nullptr ? RunTp(*grouped, run.l) : RunTp(table, run.l, workspace);
      feasible = r.feasible;
      if (feasible) {
        out.partition = r.ToPartition();
        out.seconds = r.seconds;
        out.tp_stats = r.stats;
      }
      break;
    }
    case Algorithm::kTpPlus: {
      ScopedSpan span(log, "core.tp_plus", request, root);
      TpPlusResult r = RunTpPlus(table, run.l, run.options.hilbert, workspace, grouped);
      feasible = r.feasible;
      if (feasible) {
        out.partition = std::move(r.partition);
        out.seconds = r.seconds();
        out.tp_stats = r.tp_stats;
      }
      break;
    }
    case Algorithm::kHilbert: {
      ScopedSpan span(log, "hilbert.solve", request, root);
      HilbertResult r = HilbertAnonymize(table, run.l, run.options.hilbert, workspace, order);
      feasible = r.feasible;
      if (feasible) {
        out.partition = std::move(r.partition);
        out.seconds = r.seconds;
      }
      break;
    }
    case Algorithm::kMondrian: {
      ScopedSpan span(log, "mondrian.solve", request, root);
      MondrianResult r = MondrianAnonymize(table, run.l, workspace);
      feasible = r.feasible;
      if (feasible) {
        out.partition = std::move(r.partition);
        out.boxes = std::make_shared<BoxGeneralization>(std::move(r.generalization));
        out.seconds = r.seconds;
      }
      break;
    }
    case Algorithm::kAnatomy: {
      ScopedSpan span(log, "anonymity.anatomy", request, root);
      AnatomyResult r = AnatomyAnonymize(table, run.l);
      feasible = r.feasible;
      if (feasible) {
        out.partition = std::move(r.partition);
        out.seconds = r.seconds;
      }
      break;
    }
    case Algorithm::kTds: {
      ScopedSpan span(log, "tds.solve", request, root);
      TdsResult r = RunTds(table, run.l);
      feasible = r.feasible;
      if (feasible) {
        out.partition = std::move(r.partition);
        out.single_dim = std::move(r.generalization);
        out.specializations = r.specializations;
        out.seconds = r.seconds;
      }
      break;
    }
  }
  if (!feasible) return out;
  out.feasible = true;
  {
    ScopedSpan span(log, "anonymity.verify", request, root);
    *diverse = IsLDiverse(table, out.partition, run.l);
  }
  {
    ScopedSpan span(log, "metrics.group_stats", request, root);
    out.group_stats = ComputeGroupSizeStats(out.partition);
  }
  if (out.methodology != Methodology::kBucketization) {
    ScopedSpan span(log, "anonymity.generalize", request, root);
    auto generalized = std::make_shared<GeneralizedTable>(table, out.partition);
    out.stars = generalized->StarCount();
    out.suppressed_tuples = generalized->SuppressedTupleCount();
    out.generalized = std::move(generalized);
  }
  if (run.options.compute_kl) {
    switch (out.methodology) {
      case Methodology::kSuppression: {
        ScopedSpan span(log, "metrics.kl_suppression", request, root);
        out.kl_divergence = KlDivergenceSuppression(table, *out.generalized);
        break;
      }
      case Methodology::kMultiDimensional: {
        ScopedSpan span(log, "metrics.kl_multidim", request, root);
        out.kl_divergence = KlDivergenceMultiDim(table, *out.boxes);
        break;
      }
      case Methodology::kSingleDimensional: {
        ScopedSpan span(log, "metrics.kl_single_dim", request, root);
        out.kl_divergence = KlDivergenceSingleDim(table, *out.single_dim);
        break;
      }
      case Methodology::kBucketization: {
        ScopedSpan span(log, "metrics.kl_anatomy", request, root);
        out.kl_divergence = KlDivergenceAnatomy(table, out.partition);
        break;
      }
    }
  }
  return out;
}

struct Cached {
  std::shared_ptr<const EngineTable> table;
  TableArtifacts artifacts;
};

struct RequestStats {
  double budget_peak_mb = 0.0;
  PageCache::Stats page_cache;
  double release_mb = 0.0;
  bool diverse = true;
};

// One request: Engine::RunLocked, then WriteJobOutputs, then the
// JobResult's destruction (the one-shot CLI pays for it before it exits).
RequestStats ReplayRequest(int request, const PlanLine& line, const Options& options,
                           const std::map<std::string, Cached>& cache, SpanLog& main,
                           std::vector<Span>* worker_spans) {
  ScopedSpan request_span(main, "request", request);
  RequestStats stats;
  SetThreadBudget(options.threads);
  SetMemoryBudget(options.memory_budget);

  auto result = std::make_unique<JobResult>();
  result->threads = ThreadBudget();
  if (options.cache_inputs) {
    const Cached& cached = cache.at(line.input);
    result->tables.push_back(cached.table);
    result->artifacts.push_back(cached.artifacts);
  } else {
    result->tables.push_back(LoadInput(line, main, request));
  }
  const Table& table = result->tables.front()->table;
  const std::vector<RunSpec> specs =
      ExpandRunGrid(line.algorithms, line.ls, 1, AnonymizerOptions{});

  MemoryReservation artifacts_reservation;
  if (!options.cache_inputs) {
    const bool grouped = std::any_of(specs.begin(), specs.end(), [](const RunSpec& s) {
      return AlgorithmUsesGroupedArtifact(s.algorithm);
    });
    const bool order = std::any_of(specs.begin(), specs.end(), [](const RunSpec& s) {
      return AlgorithmUsesHilbertOrderArtifact(s.algorithm);
    });
    result->artifacts.push_back(ResolveArtifacts(table, grouped, order, main, request));
  }
  const std::uint64_t artifact_bytes = ArtifactBytes(result->artifacts.front());
  if (MemoryBudgetBytes() != 0 && artifact_bytes != 0) {
    artifacts_reservation = MemoryReservation(GlobalMemoryBudgetShared(), artifact_bytes);
  }
  const TableArtifacts* artifacts =
      result->artifacts.front().empty() ? nullptr : &result->artifacts.front();

  std::vector<AnonymizationOutcome> outcomes(specs.size());
  std::vector<char> diverse(specs.size(), 1);
  const auto run_job = [&](std::size_t i, Workspace* workspace, SpanLog& log, std::int64_t root) {
    bool ok = true;
    outcomes[i] = ReplayJob(table, specs[i], artifacts, workspace, log, request, root, &ok);
    diverse[i] = ok ? 1 : 0;
  };
  if (specs.size() == 1) {
    Workspace workspace;
    run_job(0, &workspace, main, -1);
  } else {
    // AnonymizeBatch: job-level workers claim the thread budget and the
    // kernels they run stay sequential.
    ScopedSpan batch_span(main, "engine.batch", request);
    const std::int64_t batch_id = main.current();
    const std::size_t workers = std::min<std::size_t>(ThreadBudget(), specs.size());
    if (workers <= 1) {
      InnerThreadsScope inner(ThreadBudget());
      Workspace workspace;
      for (std::size_t i = 0; i < specs.size(); ++i) run_job(i, &workspace, main, -1);
    } else {
      InnerThreadsScope inner(1);
      std::atomic<std::size_t> next{0};
      std::vector<SpanLog> logs;
      for (std::size_t w = 0; w < workers; ++w) logs.emplace_back(static_cast<int>(w + 1));
      std::vector<std::string> errors(workers);
      std::vector<std::thread> pool;
      for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
          Workspace workspace;
          try {
            for (;;) {
              const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
              if (i >= specs.size()) return;
              run_job(i, &workspace, logs[w], batch_id);
            }
          } catch (const std::exception& e) {
            errors[w] = e.what();
          }
        });
      }
      for (std::thread& t : pool) t.join();
      for (const SpanLog& log : logs) {
        worker_spans->insert(worker_spans->end(), log.spans().begin(), log.spans().end());
      }
      for (const std::string& error : errors) {
        if (!error.empty()) throw Failure{error};
      }
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    result->jobs.push_back({specs[i], std::move(outcomes[i])});
    stats.diverse = stats.diverse && diverse[i] != 0;
  }

  // WriteJobOutputs: the dictionary sidecar of a raw input (part of the
  // release), the release(s), then both reports.
  std::string error;
  std::vector<std::string> written;
  const Schema& schema = table.schema();
  if (schema.has_dictionaries()) {
    ScopedSpan span(main, "engine.release_write", request);
    const std::string path = line.out + "_dict.csv";
    if (!WriteDictionaryCsv(schema, path)) throw Failure{"cannot write '" + path + "'"};
    written.push_back(path);
  }
  const bool single = result->jobs.size() == 1;
  for (std::size_t i = 0; i < result->jobs.size(); ++i) {
    if (!single && !line.write_releases) break;
    const std::string stem = single ? line.out : line.out + ".job" + std::to_string(i);
    ScopedSpan span(main, "engine.release_write", request);
    if (!WriteReleaseForOutcome(table, result->jobs[i].outcome, stem, &error)) {
      throw Failure{error};
    }
    written.push_back(stem + ".csv");
    written.push_back(stem + "_sa.csv");
  }
  {
    ScopedSpan span(main, "engine.report_write", request);
    ReportOptions report;
    report.include_seconds = true;
    if (!WriteJsonReport(*result, line.out + ".json", report, &error) ||
        !WriteMetricsCsv(*result, line.out + "_metrics.csv", report, &error)) {
      throw Failure{error};
    }
  }

  std::uint64_t release_bytes = 0;
  for (const std::string& path : written) release_bytes += FileBytes(path);
  stats.release_mb = static_cast<double>(release_bytes) / (1u << 20);
  stats.budget_peak_mb = static_cast<double>(GlobalMemoryBudget().peak()) / (1u << 20);
  if (result->tables.front()->paged != nullptr) {
    stats.page_cache = result->tables.front()->paged->cache().stats();
  }
  {
    ScopedSpan span(main, "engine.teardown", request);
    artifacts_reservation.Reset();
    result.reset();
  }
  return stats;
}

// Per-request summary: each span name's self time (its duration minus its
// same-thread children), and the share of the request span its direct
// same-thread children cover.
void PrintRequest(int request, const std::vector<Span>& spans, const RequestStats& stats) {
  std::map<std::int64_t, const Span*> by_id;
  for (const Span& s : spans) {
    if (s.request == request) by_id[s.id] = &s;
  }
  std::map<std::int64_t, double> child_ms;
  const Span* root = nullptr;
  for (const auto& [id, s] : by_id) {
    const auto parent = by_id.find(s->parent);
    if (parent == by_id.end()) {
      root = s;
    } else if (parent->second->thread == s->thread) {
      child_ms[s->parent] += static_cast<double>(s->end_ns - s->start_ns) / 1e6;
    }
  }
  std::map<std::string, double> self_ms;
  for (const auto& [id, s] : by_id) {
    if (s == root) continue;
    self_ms[s->name] += static_cast<double>(s->end_ns - s->start_ns) / 1e6 - child_ms[id];
  }
  const double wall_ms =
      root != nullptr ? static_cast<double>(root->end_ns - root->start_ns) / 1e6 : 0.0;
  const double covered = root != nullptr ? child_ms[root->id] : 0.0;
  std::printf("{\"request\": %d, \"wall_ms\": %.6f, \"coverage\": %.6f, \"self_ms\": {", request,
              wall_ms, wall_ms > 0 ? covered / wall_ms : 0.0);
  const char* sep = "";
  for (const auto& [name, ms] : self_ms) {
    std::printf("%s\"%s\": %.6f", sep, name.c_str(), ms);
    sep = ", ";
  }
  std::printf("}, \"budget_peak_mb\": %.6f, \"release_mb\": %.6f, \"l_diverse\": %s, ",
              stats.budget_peak_mb, stats.release_mb, stats.diverse ? "true" : "false");
  std::printf("\"page_cache\": {\"hits\": %llu, \"misses\": %llu, \"refaults\": %llu}}\n",
              static_cast<unsigned long long>(stats.page_cache.hits),
              static_cast<unsigned long long>(stats.page_cache.misses),
              static_cast<unsigned long long>(stats.page_cache.refaults));
  std::fflush(stdout);
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"request\": %d, \"id\": %lld, \"parent\": %lld}}%s\n",
                  s.name, s.thread, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.request,
                  static_cast<long long>(s.id), static_cast<long long>(s.parent),
                  i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  out.close();
  if (out.fail()) throw Failure{"cannot write '" + path + "'"};
}

int Main(int argc, char** argv) {
  FlagSet flags;
  std::string error;
  std::string plan_path;
  std::string spans_path;
  std::string budget_text;
  std::uint32_t threads = 1;
  Options options;
  if (!flags.ParseArgs(argc, argv, &error) || !flags.GetString("plan", "", &plan_path, &error) ||
      !flags.GetString("spans", "", &spans_path, &error) ||
      !flags.GetString("memory-budget", "0", &budget_text, &error) ||
      !flags.GetUint32("threads", 1, &threads, &error) ||
      !flags.GetBool("cache-inputs", false, &options.cache_inputs, &error) ||
      !ParseByteSize(budget_text, &options.memory_budget, &error) || plan_path.empty() ||
      spans_path.empty()) {
    std::fprintf(stderr,
                 "ldiv_replay: %s\nusage: ldiv_replay --plan=FILE --threads=N "
                 "[--memory-budget=BYTES] [--cache-inputs=true] --spans=FILE\n",
                 error.c_str());
    return 1;
  }
  options.threads = threads;

  const std::vector<PlanLine> plan = ReadPlan(plan_path);
  AlgorithmRegistry::Global();  // register the built-ins before any worker starts
  SpanLog main(0);
  std::vector<Span> worker_spans;
  std::map<std::string, Cached> cache;
  if (options.cache_inputs) {
    {
      ScopedSpan setup(main, "setup", -1);
      for (const PlanLine& line : plan) {
        if (cache.count(line.input) != 0) continue;
        Cached cached;
        cached.table = LoadInput(line, main, -1);
        cached.artifacts = ResolveArtifacts(cached.table->table, true, true, main, -1);
        cache.emplace(line.input, std::move(cached));
      }
    }
    PrintRequest(-1, main.spans(), RequestStats{});
  }
  bool all_diverse = true;
  for (std::size_t r = 0; r < plan.size(); ++r) {
    const int request = static_cast<int>(r);
    const RequestStats stats = ReplayRequest(request, plan[r], options, cache, main, &worker_spans);
    std::vector<Span> spans = main.spans();
    spans.insert(spans.end(), worker_spans.begin(), worker_spans.end());
    PrintRequest(request, spans, stats);
    all_diverse = all_diverse && stats.diverse;
  }
  std::vector<Span> spans = main.spans();
  spans.insert(spans.end(), worker_spans.begin(), worker_spans.end());
  WriteSpans(spans_path, spans);
  if (!all_diverse) {
    std::fprintf(stderr, "ldiv_replay: a replayed partition is not l-diverse\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const Failure& failure) {
    std::fprintf(stderr, "ldiv_replay: %s\n", failure.message.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ldiv_replay: %s\n", e.what());
  }
  return 1;
}
