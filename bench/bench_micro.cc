// google-benchmark microbenchmarks of the building blocks, including the
// DESIGN.md ablations: the Section 5.5 inverted list vs a naive O(m)
// scanning multiset, grouped (multiset) processing vs the raw table, and
// the greedy vs window-DP Hilbert splitters.
//
// The perf-regression rows (grouping / tp_solve / mondrian / kl_* at
// n in {10k, 100k}) are additionally exported as BENCH_micro.json (or
// $LDIV_BENCH_JSON) so every PR leaves a ns/op trajectory datapoint; see
// the README's Performance section.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "anonymity/anatomy.h"
#include "anonymity/generalization.h"
#include "anonymity/release.h"
#include "bench_util.h"
#include "common/csv.h"
#include "common/grouped_table.h"
#include "common/histogram.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/workspace.h"
#include "core/anonymizer.h"
#include "core/pillar_index.h"
#include "core/tp.h"
#include "data/acs_generator.h"
#include "data/acs_schema.h"
#include "data/dataset.h"
#include "engine/content_cache.h"
#include "engine/engine.h"
#include "engine/job_spec.h"
#include "engine/report.h"
#include "hilbert/hilbert_curve.h"
#include "hilbert/hilbert_partitioner.h"
#include "metrics/kl_divergence.h"
#include "mondrian/mondrian.h"

namespace ldv {
namespace {

// Structured workload descriptors per benchmark name, recorded beside the
// timings in BENCH_micro.json (names stay stable; n / attrs / threads
// travel as fields). Populated by RegisterBenchFields() below.
std::map<std::string, bench::BenchFields>& FieldRegistry() {
  static auto* registry = new std::map<std::string, bench::BenchFields>();
  return *registry;
}

// The SIMD level the process dispatches at, recorded as the `simd` field
// on every series whose kernels route through the SIMD layer (grouping,
// Mondrian, Hilbert partitioning, the KL estimators) so trajectory diffs
// can tell a code regression from a host with a different vector ISA.
const char* ActiveSimd() { return simd::LevelName(simd::ActiveLevel()); }

// ---- PillarIndex vs naive histogram scanning (ablation #2) ----

void BM_PillarIndexChurn(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    PillarIndex idx = PillarIndex::DenseEmpty(m);
    for (int i = 0; i < 4096; ++i) idx.Increment(0, rng.Below(static_cast<std::uint32_t>(m)));
    std::uint64_t acc = 0;
    for (int i = 0; i < 4096; ++i) {
      acc += idx.PillarHeight(0);  // O(1)
      idx.Decrement(0, idx.FirstPillarSlot(0));
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_PillarIndexChurn)->Arg(8)->Arg(50)->Arg(256);

void BM_NaiveHistogramChurn(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    SaHistogram h(m);
    for (int i = 0; i < 4096; ++i) h.Add(rng.Below(static_cast<std::uint32_t>(m)));
    std::uint64_t acc = 0;
    for (int i = 0; i < 4096; ++i) {
      acc += h.PillarHeight();  // O(m) scan each call
      h.Remove(h.Pillars().front());
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_NaiveHistogramChurn)->Arg(8)->Arg(50)->Arg(256);

// ---- Grouping and end-to-end TP (ablation #1) ----

const Table& CachedSal4() {
  static const Table* table = [] {
    Table sal = GenerateSal(50000, 1);
    return new Table(sal.ProjectQi({kAge, kGender, kRace, kEducation}));
  }();
  return *table;
}

void BM_GroupedTableConstruction(benchmark::State& state) {
  const Table& t = CachedSal4();
  for (auto _ : state) {
    GroupedTable grouped(t);
    benchmark::DoNotOptimize(grouped.group_count());
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_GroupedTableConstruction);

void BM_TpSolveFromGroups(benchmark::State& state) {
  const Table& t = CachedSal4();
  GroupedTable grouped(t);
  for (auto _ : state) {
    TpResult result = RunTp(grouped, static_cast<std::uint32_t>(state.range(0)));
    benchmark::DoNotOptimize(result.residue_rows.size());
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_TpSolveFromGroups)->Arg(2)->Arg(6)->Arg(10);

void BM_TpEndToEnd(benchmark::State& state) {
  const Table& t = CachedSal4();
  for (auto _ : state) {
    TpResult result = RunTp(t, 6);
    benchmark::DoNotOptimize(result.residue_rows.size());
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_TpEndToEnd);

// ---- Hilbert curve and splitters (ablation #3) ----

void BM_HilbertEncode(benchmark::State& state) {
  const std::uint32_t dims = static_cast<std::uint32_t>(state.range(0));
  HilbertCurve curve(dims, 7);
  Rng rng(3);
  std::vector<std::uint32_t> coords(dims);
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < dims; ++i) coords[i] = rng.Below(128);
    benchmark::DoNotOptimize(curve.Encode(coords));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HilbertEncode)->Arg(2)->Arg(4)->Arg(7);

void BM_HilbertPartitionGreedy(benchmark::State& state) {
  const Table& t = CachedSal4();
  for (auto _ : state) {
    HilbertResult result = HilbertAnonymize(t, 6);
    benchmark::DoNotOptimize(result.partition.group_count());
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_HilbertPartitionGreedy);

void BM_HilbertPartitionWindowDp(benchmark::State& state) {
  const Table& t = CachedSal4();
  HilbertOptions options;
  options.splitter = HilbertOptions::Splitter::kWindowDp;
  for (auto _ : state) {
    HilbertResult result = HilbertAnonymize(t, 6, options);
    benchmark::DoNotOptimize(result.partition.group_count());
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_HilbertPartitionWindowDp);

// ---- Perf-regression rows (exported to BENCH_micro.json) ----
//
// The l = 6 SAL-4 workload of the figure benches at two cardinalities.
// Each benchmark reuses one Workspace across iterations -- the repeated-
// solve regime the Workspace is designed for (sweeps, batch workers).

const Table& SizedSal4(std::size_t n) {
  static const Table* t10k = new Table(
      GenerateSal(10000, 1).ProjectQi({kAge, kGender, kRace, kEducation}));
  static const Table* t100k = new Table(
      GenerateSal(100000, 1).ProjectQi({kAge, kGender, kRace, kEducation}));
  return n == 10000 ? *t10k : *t100k;
}

void BM_Grouping(benchmark::State& state) {
  const Table& t = SizedSal4(static_cast<std::size_t>(state.range(0)));
  Workspace ws;
  for (auto _ : state) {
    GroupedTable grouped(t, &ws);
    benchmark::DoNotOptimize(grouped.group_count());
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_Grouping)->Name("grouping")->Arg(10000)->Arg(100000);

void BM_TpSolve(benchmark::State& state) {
  const Table& t = SizedSal4(static_cast<std::size_t>(state.range(0)));
  GroupedTable grouped(t);
  for (auto _ : state) {
    TpResult result = RunTp(grouped, 6);
    benchmark::DoNotOptimize(result.residue_rows.size());
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_TpSolve)->Name("tp_solve")->Arg(10000)->Arg(100000);

void BM_Mondrian(benchmark::State& state) {
  const Table& t = SizedSal4(static_cast<std::size_t>(state.range(0)));
  Workspace ws;
  for (auto _ : state) {
    MondrianResult result = MondrianAnonymize(t, 6, &ws);
    benchmark::DoNotOptimize(result.partition.group_count());
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_Mondrian)->Name("mondrian")->Arg(10000)->Arg(100000);

void BM_KlSuppression(benchmark::State& state) {
  const Table& t = SizedSal4(static_cast<std::size_t>(state.range(0)));
  TpResult tp = RunTp(t, 6);
  GeneralizedTable generalized(t, tp.ToPartition());
  for (auto _ : state) {
    benchmark::DoNotOptimize(KlDivergenceSuppression(t, generalized));
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_KlSuppression)->Name("kl_suppression")->Arg(10000)->Arg(100000);

void BM_KlMultiDim(benchmark::State& state) {
  const Table& t = SizedSal4(static_cast<std::size_t>(state.range(0)));
  MondrianResult mondrian = MondrianAnonymize(t, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KlDivergenceMultiDim(t, mondrian.generalization));
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_KlMultiDim)->Name("kl_multidim")->Arg(10000)->Arg(100000);

// ---- Columnar scan-layout series ----
//
// The same grouping / KL workloads over the full-width (all seven QI
// attributes) SAL tables, where the column-at-a-time scans of the
// columnar Table matter most: signature hashing folds seven contiguous
// columns and point packing accumulates seven stride multiplies per row.
// Tracked as their own BENCH_micro.json series so the scan-layout win
// (vs the row-major trajectory recorded before the columnar refactor)
// stays visible PR over PR.

const Table& SizedSal7(std::size_t n) {
  static const Table* t10k = new Table(GenerateSal(10000, 1));
  static const Table* t100k = new Table(GenerateSal(100000, 1));
  return n == 10000 ? *t10k : *t100k;
}

void BM_GroupingColumnar(benchmark::State& state) {
  const Table& t = SizedSal7(static_cast<std::size_t>(state.range(0)));
  Workspace ws;
  for (auto _ : state) {
    GroupedTable grouped(t, &ws);
    benchmark::DoNotOptimize(grouped.group_count());
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_GroupingColumnar)->Name("grouping_columnar")->Arg(10000)->Arg(100000);

void BM_KlMultiDimColumnar(benchmark::State& state) {
  const Table& t = SizedSal7(static_cast<std::size_t>(state.range(0)));
  MondrianResult mondrian = MondrianAnonymize(t, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KlDivergenceMultiDim(t, mondrian.generalization));
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_KlMultiDimColumnar)->Name("kl_multidim_columnar")->Arg(10000)->Arg(100000);

// Suppression KL over a release with many star masks: Hilbert at l = 2 on
// the full-width SAL table publishes all 128 masks of its 7 QIs, so every
// distinct point probes 128 mask buckets. (`kl_suppression` runs TP's
// release, which has two masks, and never exercises that loop.)
void BM_KlSuppressionMasks(benchmark::State& state) {
  const Table& t = SizedSal7(static_cast<std::size_t>(state.range(0)));
  HilbertResult hilbert = HilbertAnonymize(t, 2);
  GeneralizedTable generalized(t, hilbert.partition);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KlDivergenceSuppression(t, generalized));
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_KlSuppressionMasks)->Name("kl_suppression_masks")->Arg(10000)->Arg(100000);

// ---- Flat per-group state ----
//
// TP over the full-width SAL grouping, where nearly every QI-group holds
// one or two rows: building and freeing the per-group pillar indexes, not
// the three phases, sets the solve time. And Anatomy's KL over the SAL-4
// l = 6 release, whose QI classes each span many buckets.

void BM_TpSolveSal7(benchmark::State& state) {
  const Table& t = SizedSal7(static_cast<std::size_t>(state.range(0)));
  GroupedTable grouped(t);
  for (auto _ : state) {
    TpResult result = RunTp(grouped, 6);
    benchmark::DoNotOptimize(result.residue_rows.size());
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_TpSolveSal7)->Name("tp_solve_sal7")->Arg(10000)->Arg(100000);

void BM_KlAnatomy(benchmark::State& state) {
  const Table& t = SizedSal4(static_cast<std::size_t>(state.range(0)));
  const AnatomyResult anatomy = AnatomyAnonymize(t, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KlDivergenceAnatomy(t, anatomy.partition));
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_KlAnatomy)->Name("kl_anatomy")->Arg(10000)->Arg(100000);

// ---- Shared KL points ----
//
// The distinct-point pass on the full-width SAL table, where most rows are
// points of their own: the engine runs it once per table and every KL
// estimate of a sweep sums over the one set. The `kl_*` series above call
// the estimators without a point set, so each still pays this pass inside
// its estimate and their trajectories stay comparable.

void BM_KlPoints(benchmark::State& state) {
  const Table& t = SizedSal7(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const std::vector<KlPoint> points = KlDistinctPoints(t);
    benchmark::DoNotOptimize(points.data());
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_KlPoints)->Name("kl_points")->Arg(10000)->Arg(100000);

// ---- Out-of-core series ----
//
// The paged data plane under its default (unbudgeted) sizing: streamed
// synthetic ingestion through the PagedTableBuilder (chunked generation,
// page staging and spill-file writes with a running-max domain check at
// append, then the mmap seal) and the chunked GroupedTable build with a
// sort buffer small enough that both cardinalities spill runs and k-way
// merge. Both paths are byte-identical to their in-RAM twins
// (paged_equivalence_test), so these series track the cost of going out
// of core, not a different answer.

void BM_IngestStream(benchmark::State& state) {
  DatasetSpec spec;
  spec.n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::string error;
    std::unique_ptr<PagedTable> paged = GenerateDatasetPaged(spec, {}, &error);
    benchmark::DoNotOptimize(paged->resident().size());
  }
  state.SetItemsProcessed(state.iterations() * spec.n);
}
BENCHMARK(BM_IngestStream)->Name("ingest_stream")->Arg(10000)->Arg(100000);

void BM_GroupingPaged(benchmark::State& state) {
  const Table& t = SizedSal7(static_cast<std::size_t>(state.range(0)));
  Workspace ws;
  for (auto _ : state) {
    GroupedTable grouped =
        GroupedTable::BuildChunked(t, &ws, /*sort_buffer_records=*/4096);
    benchmark::DoNotOptimize(grouped.group_count());
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_GroupingPaged)->Name("grouping_paged")->Arg(10000)->Arg(100000);

// ---- Output writers ----
//
// The release writers over the SAL-4 tables: a TP+ outcome's suppression
// view through WriteReleaseCsv, and an Anatomy outcome's QIT/ST pair
// through WriteReleaseForOutcome. Each iteration writes the whole release
// into the temp directory.

std::string BenchTempStem(const char* name) {
  return (std::filesystem::temp_directory_path() / (std::string("ldiv_bench_") + name)).string();
}

AnonymizationOutcome WriterOutcome(const Table& t, Algorithm algorithm) {
  AnonymizerOptions options;
  options.compute_kl = false;
  return Anonymize(t, 6, algorithm, options);
}

void BM_ReleaseWrite(benchmark::State& state) {
  const Table& t = SizedSal4(static_cast<std::size_t>(state.range(0)));
  const AnonymizationOutcome outcome = WriterOutcome(t, Algorithm::kTpPlus);
  const std::string path = BenchTempStem("release_write") + ".csv";
  for (auto _ : state) {
    std::string error;
    const bool ok = WriteReleaseCsv(t, *outcome.generalized, path, &error);
    benchmark::DoNotOptimize(ok);
    if (!ok) {
      state.SkipWithError(error.c_str());
      break;
    }
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_ReleaseWrite)->Name("release_write")->Arg(10000)->Arg(100000);

void BM_AnatomyWrite(benchmark::State& state) {
  const Table& t = SizedSal4(static_cast<std::size_t>(state.range(0)));
  const AnonymizationOutcome outcome = WriterOutcome(t, Algorithm::kAnatomy);
  const std::string stem = BenchTempStem("anatomy_write");
  for (auto _ : state) {
    std::string error;
    const bool ok = WriteReleaseForOutcome(t, outcome, stem, &error);
    benchmark::DoNotOptimize(ok);
    if (!ok) {
      state.SkipWithError(error.c_str());
      break;
    }
  }
  std::remove((stem + ".csv").c_str());
  std::remove((stem + "_sa.csv").c_str());
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_AnatomyWrite)->Name("anatomy_write")->Arg(10000)->Arg(100000);

// ---- Serial prefix: CSV ingest and the Hilbert order ----
//
// The in-RAM CSV readers over the SAL-7 tables, each file written once at
// set-up and read from the page cache, so the series time parsing, not the
// disk: integer cells through ReadTableCsv, and the same rows as
// "<attribute>_<code>" labels through ReadRawTableCsv, which builds its
// dictionaries as it goes. hilbert_order is the l-independent Hilbert sort
// of the same tables on one thread.

std::string WriteIngestCsv(std::size_t n, bool raw) {
  const Table& t = SizedSal7(n);
  const std::string path =
      BenchTempStem(raw ? "csv_read_raw" : "csv_read_coded") + std::to_string(n) + ".csv";
  if (!raw) {
    WriteTableCsv(t, path);
    return path;
  }
  const Schema& schema = t.schema();
  std::ofstream out(path);
  for (AttrId a = 0; a < t.qi_count(); ++a) out << schema.qi(a).name << ',';
  out << schema.sensitive().name << '\n';
  for (RowId r = 0; r < t.size(); ++r) {
    for (AttrId a = 0; a < t.qi_count(); ++a) {
      out << schema.qi(a).name << '_' << t.qi(r, a) << ',';
    }
    out << schema.sensitive().name << '_' << t.sa(r) << '\n';
  }
  return path;
}

void RunCsvRead(benchmark::State& state, bool raw) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Schema& schema = SizedSal7(n).schema();
  const std::string path = WriteIngestCsv(n, raw);
  for (auto _ : state) {
    CsvError error;
    std::optional<Table> table = raw ? ReadRawTableCsv(path, &error)
                                     : ReadTableCsv(schema, path, &error);
    if (!table.has_value()) {
      state.SkipWithError(error.ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(table->size());
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_CsvReadCoded(benchmark::State& state) { RunCsvRead(state, false); }
BENCHMARK(BM_CsvReadCoded)->Name("csv_read_coded")->Arg(10000)->Arg(100000);

void BM_CsvReadRaw(benchmark::State& state) { RunCsvRead(state, true); }
BENCHMARK(BM_CsvReadRaw)->Name("csv_read_raw")->Arg(10000)->Arg(100000);

void BM_HilbertOrder(benchmark::State& state) {
  const Table& t = SizedSal7(static_cast<std::size_t>(state.range(0)));
  Workspace ws(1, nullptr);
  std::vector<RowId> order;
  for (auto _ : state) {
    HilbertComputeOrder(t, &ws, &order);
    benchmark::DoNotOptimize(order.data());
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_HilbertOrder)->Name("hilbert_order")->Arg(10000)->Arg(100000);

// ---- Intra-run parallel series ----
//
// The hot kernels again, under explicit thread budgets (1 / 2 / 4): the
// Hilbert window-DP partitioner on the 50k SAL-4 table, Mondrian on the
// 100k SAL-4 table, and grouping on the full-width 100k SAL-7 table.
// Outputs are byte-identical across budgets (perf_equivalence_test's
// ThreadCountEquivalence suite), so these series measure pure scheduling
// win -- on a single-core host the 2t/4t rows simply document the
// oversubscription overhead. Registered with explicit ".../Nt" names so
// the trajectory keys stay stable; the budget travels as the `threads`
// field.

void RunHilbertDpPar(benchmark::State& state, unsigned threads) {
  const Table& t = CachedSal4();
  HilbertOptions options;
  options.splitter = HilbertOptions::Splitter::kWindowDp;
  Workspace ws;
  SetThreadBudget(threads);
  for (auto _ : state) {
    HilbertResult result = HilbertAnonymize(t, 6, options, &ws);
    benchmark::DoNotOptimize(result.partition.group_count());
  }
  SetThreadBudget(1);
  state.SetItemsProcessed(state.iterations() * t.size());
}

void RunMondrianPar(benchmark::State& state, unsigned threads) {
  const Table& t = SizedSal4(100000);
  Workspace ws;
  SetThreadBudget(threads);
  for (auto _ : state) {
    MondrianResult result = MondrianAnonymize(t, 6, &ws);
    benchmark::DoNotOptimize(result.partition.group_count());
  }
  SetThreadBudget(1);
  state.SetItemsProcessed(state.iterations() * t.size());
}

void RunGroupingPar(benchmark::State& state, unsigned threads) {
  const Table& t = SizedSal7(100000);
  Workspace ws;
  SetThreadBudget(threads);
  for (auto _ : state) {
    GroupedTable grouped(t, &ws);
    benchmark::DoNotOptimize(grouped.group_count());
  }
  SetThreadBudget(1);
  state.SetItemsProcessed(state.iterations() * t.size());
}

// What one parallel region costs by itself: an empty-bodied ParallelFor
// over 16 one-index chunks, so each row reads the price of starting and
// joining that many helpers (the 1t row runs inline and starts none).
void RunParallelRegion(benchmark::State& state, unsigned threads) {
  Workspace ws(threads, nullptr);
  for (auto _ : state) {
    ParallelFor(16, 1, ws, [](std::size_t, std::size_t, Workspace&) {});
  }
}

// ---- Cross-job artifact cache series ----
//
// `sweep_cached` pushes a 3-l TP sweep through a warm Engine each
// iteration, so the shared GroupedTable resolves from the ContentCache
// instead of being rebuilt per run -- the steady-state cost of a
// repeated grouping-bound sweep. `grouping_artifact_hit` isolates the
// hit path itself (one lookup pinning a resident artifact) for a direct
// ns/op contrast with the cold `grouping` build series at equal n.

void BM_SweepCached(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Engine engine;
  JobSpec spec;
  spec.dataset.name = "sal";
  spec.ns = {n};
  spec.ds = {4};
  spec.algorithms = {Algorithm::kTp};
  spec.ls = {2, 4, 6};
  spec.compute_kl = false;
  spec.timings = false;
  {
    Expected<JobResult, PipelineError> warm = engine.Run(spec);
    if (!warm.ok()) {
      state.SkipWithError(warm.error().message.c_str());
      return;
    }
  }
  for (auto _ : state) {
    Expected<JobResult, PipelineError> result = engine.Run(spec);
    benchmark::DoNotOptimize(result.ok());
  }
  SetThreadBudget(1);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SweepCached)->Name("sweep_cached")->Arg(10000)->Arg(100000);

void BM_GroupingArtifactHit(benchmark::State& state) {
  const Table& t = SizedSal4(static_cast<std::size_t>(state.range(0)));
  ContentCache cache(256u << 20);
  const std::string key = ContentCache::ArtifactKey("bench", t);
  const std::function<std::shared_ptr<const GroupedTable>()> build = [&] {
    return std::make_shared<GroupedTable>(t);
  };
  bool hit = false;
  cache.GetOrBuild(ContentCache::Kind::kGrouped, key, build, &hit);
  for (auto _ : state) {
    std::shared_ptr<const GroupedTable> grouped =
        cache.GetOrBuild(ContentCache::Kind::kGrouped, key, build, &hit);
    benchmark::DoNotOptimize(grouped->group_count());
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_GroupingArtifactHit)->Name("grouping_artifact_hit")->Arg(10000)->Arg(100000);

void RegisterParallelSeries() {
  for (unsigned threads : {1u, 2u, 4u}) {
    std::string suffix = "/";
    suffix += std::to_string(threads);
    suffix += "t";
    auto series = [&suffix](const char* base) {
      std::string name(base);
      name += suffix;
      return name;
    };
    benchmark::RegisterBenchmark(
        series("hilbert_dp_par").c_str(),
        [threads](benchmark::State& state) { RunHilbertDpPar(state, threads); });
    FieldRegistry()[series("hilbert_dp_par")] = {50000, 4, threads, ActiveSimd()};
    benchmark::RegisterBenchmark(
        series("mondrian_par").c_str(),
        [threads](benchmark::State& state) { RunMondrianPar(state, threads); });
    FieldRegistry()[series("mondrian_par")] = {100000, 4, threads, ActiveSimd()};
    benchmark::RegisterBenchmark(
        series("grouping_par").c_str(),
        [threads](benchmark::State& state) { RunGroupingPar(state, threads); });
    FieldRegistry()[series("grouping_par")] = {100000, 7, threads, ActiveSimd()};
    benchmark::RegisterBenchmark(
        series("parallel_region").c_str(),
        [threads](benchmark::State& state) { RunParallelRegion(state, threads); });
    FieldRegistry()[series("parallel_region")] = {16, 0, threads, {}};
  }
}

// Workload descriptors of the statically registered series. The SAL-4
// perf-regression rows run over 4 QI attributes, the columnar rows over
// all 7 -- the `attrs` field is what explains e.g. kl_multidim_columnar
// costing a multiple of kl_multidim at equal n.
void RegisterBenchFields() {
  auto& fields = FieldRegistry();
  for (std::uint64_t n : {10000ull, 100000ull}) {
    std::string suffix = "/";
    suffix += std::to_string(n);
    auto series = [&suffix](const char* base) {
      std::string name(base);
      name += suffix;
      return name;
    };
    fields[series("grouping")] = {n, 4, 1, ActiveSimd()};
    fields[series("tp_solve")] = {n, 4, 1};
    fields[series("mondrian")] = {n, 4, 1, ActiveSimd()};
    fields[series("kl_suppression")] = {n, 4, 1, ActiveSimd()};
    fields[series("kl_multidim")] = {n, 4, 1, ActiveSimd()};
    fields[series("grouping_columnar")] = {n, 7, 1, ActiveSimd()};
    fields[series("kl_multidim_columnar")] = {n, 7, 1, ActiveSimd()};
    fields[series("kl_suppression_masks")] = {n, 7, 1, ActiveSimd()};
    fields[series("tp_solve_sal7")] = {n, 7, 1, {}};
    fields[series("kl_anatomy")] = {n, 4, 1, ActiveSimd()};
    fields[series("kl_points")] = {n, 7, 1, ActiveSimd()};
    fields[series("ingest_stream")] = {n, 7, 1, ActiveSimd()};
    fields[series("grouping_paged")] = {n, 7, 1, ActiveSimd()};
    fields[series("sweep_cached")] = {n, 4, 1, ActiveSimd()};
    fields[series("grouping_artifact_hit")] = {n, 4, 1, ActiveSimd()};
    fields[series("release_write")] = {n, 4, 1, {}};
    fields[series("anatomy_write")] = {n, 4, 1, {}};
    fields[series("csv_read_coded")] = {n, 7, 1, {}};
    fields[series("csv_read_raw")] = {n, 7, 1, {}};
    fields[series("hilbert_order")] = {n, 7, 1, {}};
  }
  fields["BM_GroupedTableConstruction"] = {50000, 4, 1, ActiveSimd()};
  for (const char* name : {"BM_TpSolveFromGroups/2", "BM_TpSolveFromGroups/6",
                           "BM_TpSolveFromGroups/10"}) {
    fields[name] = {50000, 4, 1};
  }
  fields["BM_TpEndToEnd"] = {50000, 4, 1};
  fields["BM_HilbertPartitionGreedy"] = {50000, 4, 1};
  fields["BM_HilbertPartitionWindowDp"] = {50000, 4, 1};
}

// google-benchmark < 1.8 flags failed runs with Run::error_occurred;
// 1.8+ replaced it with the Run::skipped enum. Probe for whichever member
// this library version has.
template <typename R>
bool RunFailed(const R& run) {
  if constexpr (requires { run.error_occurred; }) {
    return run.error_occurred;
  } else {
    return run.skipped != 0;
  }
}

// Normal console output, plus every finished run collected into the JSON
// trajectory report.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || RunFailed(run)) continue;
      // GetAdjustedRealTime reports in the run's time unit (ns by default).
      auto it = FieldRegistry().find(run.benchmark_name());
      report_.Add(run.benchmark_name(), run.GetAdjustedRealTime(),
                  it != FieldRegistry().end() ? it->second : bench::BenchFields{});
    }
  }

  const bench::JsonReport& report() const { return report_; }

 private:
  bench::JsonReport report_{"bench_micro"};
};

}  // namespace
}  // namespace ldv

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The statically registered series are the sequential trajectory: pin
  // the budget to 1 so they stay comparable across hosts. Only the _par
  // series (which set their own budget per run) fan out.
  ldv::SetThreadBudget(1);
  ldv::RegisterBenchFields();
  ldv::RegisterParallelSeries();
  ldv::JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  std::string path = ldv::bench::BenchJsonPath("BENCH_micro.json");
  if (!reporter.report().WriteTo(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu datapoints to %s\n", reporter.report().size(), path.c_str());
  benchmark::Shutdown();
  return 0;
}
