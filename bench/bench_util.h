#ifndef LDIV_BENCH_BENCH_UTIL_H_
#define LDIV_BENCH_BENCH_UTIL_H_

// Shared helpers for the per-figure benchmark binaries.
//
// Every binary prints the rows of one table/figure of the paper's Section 6
// in plain text. Scale knobs (the paper used 600k-tuple tables and all 35
// four-attribute projections; the defaults here are trimmed so the whole
// harness finishes in minutes):
//   --full              paper-scale run (600k tuples, all projections)
//   LDIV_BENCH_N=<n>    override the table cardinality
//   LDIV_BENCH_PROJ=<k> override the number of projections per family

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/table.h"
#include "common/workspace.h"
#include "core/batch.h"
#include "core/run_spec.h"
#include "data/acs_generator.h"
#include "data/workload.h"

namespace ldv {
namespace bench {

struct BenchConfig {
  std::size_t n = 60000;
  std::size_t projections = 5;
  bool full = false;
};

inline BenchConfig ParseConfig(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) config.full = true;
  }
  if (const char* env = std::getenv("LDIV_FULL"); env && env[0] == '1') config.full = true;
  if (config.full) {
    config.n = 600000;
    config.projections = static_cast<std::size_t>(-1);  // all of them
  }
  if (const char* env = std::getenv("LDIV_BENCH_N")) config.n = std::strtoull(env, nullptr, 10);
  if (const char* env = std::getenv("LDIV_BENCH_PROJ")) {
    config.projections = std::strtoull(env, nullptr, 10);
  }
  return config;
}

/// The two source datasets of Section 6.
struct Datasets {
  Table sal;
  Table occ;
};

inline Datasets LoadDatasets(const BenchConfig& config) {
  return Datasets{GenerateSal(config.n, 1), GenerateOcc(config.n, 2)};
}

/// The SAL-d / OCC-d projection family, capped per the config.
inline std::vector<Table> Family(const Table& source, std::size_t d, const BenchConfig& config) {
  return ProjectionFamily(source, d, config.projections);
}

/// Options for sweeps that do not report KL-divergence, skipping the
/// Equation-2 estimate in the shared post-processing.
inline AnonymizerOptions NoKlOptions() {
  AnonymizerOptions options;
  options.compute_kl = false;
  return options;
}

/// The Section 6.1 timing columns (Hilbert, TP, TP+), in column order.
/// The timing benches (Figures 4-6) run them sequentially with
/// NoKlOptions(), so solves never contend for cores.
inline std::vector<const Anonymizer*> TimingAlgorithms() {
  std::vector<const Anonymizer*> algos;
  for (Algorithm a : {Algorithm::kHilbert, Algorithm::kTp, Algorithm::kTpPlus}) {
    algos.push_back(&AlgorithmRegistry::Global().Get(a));
  }
  return algos;
}

/// Runs one figure cell through AnonymizeBatch on every hardware thread:
/// every table of the family crossed with every algorithm column (tables
/// outer, algorithms inner), so result t * algorithms.size() + a is
/// (family[t], algorithms[a]).
inline std::vector<AnonymizationOutcome> RunFamilyCell(
    const std::vector<Table>& family, std::uint32_t l, std::span<const Algorithm> algorithms,
    const AnonymizerOptions& options = NoKlOptions()) {
  std::vector<const Table*> tables;
  for (const Table& t : family) tables.push_back(&t);
  const std::uint32_t ls[] = {l};
  const std::vector<RunSpec> specs = ExpandRunGrid(algorithms, ls, tables.size(), options);
  return AnonymizeBatch(specs, tables, {}, Workspace(HardwareThreads(), nullptr));
}

inline void PrintHeader(const std::string& title, const BenchConfig& config) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("n = %zu tuples per table, %s projections per family%s\n\n", config.n,
              config.projections == static_cast<std::size_t>(-1)
                  ? "all"
                  : std::to_string(config.projections).c_str(),
              config.full ? " (paper scale)" : " (reduced scale; --full for paper scale)");
}

/// Structured workload descriptors of one benchmark entry, recorded as
/// JSON fields beside the timing instead of being overloaded into the
/// name (names stay stable across PRs; the fields carry the workload).
/// Zero means "not recorded" and the field is omitted.
struct BenchFields {
  /// Table cardinality the benchmark ran over.
  std::uint64_t n = 0;
  /// Number of QI attributes of the workload table.
  std::uint32_t attrs = 0;
  /// Thread budget the benchmark ran under (1 = the sequential series).
  std::uint32_t threads = 0;
  /// SIMD dispatch level the benchmark ran at ("scalar", "sse2" or
  /// "avx2"); empty = not recorded. Recorded on the series whose kernels
  /// route through the SIMD layer, so trajectory diffs can tell a code
  /// regression from a host with a different vector ISA.
  std::string simd;
};

/// Minimal JSON writer for the BENCH_*.json perf-trajectory files: a tool
/// name plus a flat list of (name, ns_per_op [, n, attrs, threads])
/// datapoints. Kept free of any benchmark-library dependency so every
/// bench binary can emit a trajectory file; bench_micro feeds it from a
/// google-benchmark reporter.
class JsonReport {
 public:
  explicit JsonReport(std::string tool) : tool_(std::move(tool)) {}

  void Add(const std::string& name, double ns_per_op, BenchFields fields = {}) {
    entries_.push_back(Entry{name, ns_per_op, fields});
  }

  std::size_t size() const { return entries_.size(); }

  /// Writes the report to `path`. Returns false on I/O failure.
  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"tool\": \"%s\",\n  \"benchmarks\": [\n", tool_.c_str());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f, "    {\"name\": \"%s\", \"ns_per_op\": %.1f", e.name.c_str(),
                   e.ns_per_op);
      if (e.fields.n != 0) {
        std::fprintf(f, ", \"n\": %llu", static_cast<unsigned long long>(e.fields.n));
      }
      if (e.fields.attrs != 0) std::fprintf(f, ", \"attrs\": %u", e.fields.attrs);
      if (e.fields.threads != 0) std::fprintf(f, ", \"threads\": %u", e.fields.threads);
      if (!e.fields.simd.empty()) std::fprintf(f, ", \"simd\": \"%s\"", e.fields.simd.c_str());
      std::fprintf(f, "}%s\n", i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Entry {
    std::string name;
    double ns_per_op;
    BenchFields fields;
  };
  std::string tool_;
  std::vector<Entry> entries_;
};

/// Destination of the JSON trajectory file: $LDIV_BENCH_JSON or the
/// default `BENCH_micro.json` in the working directory.
inline std::string BenchJsonPath(const char* fallback) {
  if (const char* env = std::getenv("LDIV_BENCH_JSON")) return env;
  return fallback;
}

}  // namespace bench
}  // namespace ldv

#endif  // LDIV_BENCH_BENCH_UTIL_H_
