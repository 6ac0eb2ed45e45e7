#ifndef LDIV_CORE_ALGORITHM_H_
#define LDIV_CORE_ALGORITHM_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "anonymity/generalization.h"
#include "anonymity/multidim.h"
#include "anonymity/partition.h"
#include "common/table.h"
#include "common/workspace.h"
#include "core/artifacts.h"
#include "core/tp.h"
#include "hilbert/hilbert_partitioner.h"
#include "metrics/group_stats.h"
#include "tds/tds.h"

namespace ldv {

/// Every anonymization algorithm in the repository, unified behind one
/// enum: the paper's suppression algorithms (Section 6.1) plus the
/// comparison methodologies of Sections 2 / 6.2.
enum class Algorithm {
  kTp,        ///< three-phase (l*d)-approximation (Section 5)
  kTpPlus,    ///< hybrid: TP + Hilbert refinement of R (Section 6.1)
  kHilbert,   ///< the Hilbert baseline of Ghinita et al. [16]
  kMondrian,  ///< multi-dimensional generalization (LeFevre et al. [27])
  kAnatomy,   ///< bucketization (Xiao and Tao [47])
  kTds,       ///< single-dimensional top-down specialization [15]
};

inline constexpr std::size_t kAlgorithmCount = 6;
inline constexpr std::array<Algorithm, kAlgorithmCount> kAllAlgorithms = {
    Algorithm::kTp,       Algorithm::kTpPlus,  Algorithm::kHilbert,
    Algorithm::kMondrian, Algorithm::kAnatomy, Algorithm::kTds,
};

/// Canonical display name. Exhaustive over the enum; aborts on a value
/// outside it (a corrupted enum is a programmer error, never user input).
const char* AlgorithmName(Algorithm algorithm);

/// True iff `algorithm` consumes the shared GroupedTable artifact (TP and
/// TP+ start from the exact-signature grouping).
bool AlgorithmUsesGroupedArtifact(Algorithm algorithm);

/// True iff `algorithm` consumes the shared full-table Hilbert row order
/// (the Hilbert baseline only; TP+'s refinement sorts a sub-table).
bool AlgorithmUsesHilbertOrderArtifact(Algorithm algorithm);

/// The anonymization methodology taxonomy of Section 2, which determines
/// what a release publishes and therefore which KL-divergence estimator
/// (Equation 2) applies.
enum class Methodology {
  kSuppression,       ///< stars in place of generalized values
  kMultiDimensional,  ///< one QI box per group; boxes may overlap
  kSingleDimensional, ///< global per-attribute taxonomy cuts
  kBucketization,     ///< exact QI, SA linked through l-diverse buckets
};

const char* MethodologyName(Methodology methodology);

/// Per-run knobs of an Anonymizer::Run. Every algorithm reads the ones
/// that apply to it and ignores the rest.
struct AnonymizerOptions {
  /// Splitting strategy for the Hilbert-based algorithms (kHilbert and the
  /// refinement stage of kTpPlus); ignored by the others.
  HilbertOptions hilbert;
  /// When false, the shared post-processing skips the KL-divergence
  /// estimate (Equation 2). Timing sweeps disable it so post-processing
  /// stays negligible next to the measured solve.
  bool compute_kl = true;
};

/// Uniform outcome of every algorithm, carrying the utility measures the
/// paper reports. The privacy fields (partition, stars, suppressed_tuples)
/// and the shared metrics (group_stats, kl_divergence) are populated by the
/// common post-processing path in Anonymizer::Run; the artifact pointers
/// expose the methodology-specific published form.
struct AnonymizationOutcome {
  bool feasible = false;
  Algorithm algorithm = Algorithm::kTp;
  Methodology methodology = Methodology::kSuppression;
  Partition partition;
  /// Number of stars of the induced generalization (Problem 1 objective).
  /// Always 0 for kBucketization, which publishes QI values exactly.
  std::uint64_t stars = 0;
  /// Number of tuples with at least one star (Problem 2 objective).
  std::uint64_t suppressed_tuples = 0;
  /// Wall-clock seconds of the solve (excludes post-processing).
  double seconds = 0.0;
  /// TP phase statistics (meaningful for kTp / kTpPlus).
  TpStats tp_stats;
  /// QI-group size summary of the partition.
  GroupSizeStats group_stats;
  /// KL(f, f*) of Equation 2, estimated with the methodology's estimator.
  /// 0 when the run's options set compute_kl = false.
  double kl_divergence = 0.0;

  /// The Definition-1 suppression view of the partition (set for every
  /// methodology except kBucketization; the star counts above come from it).
  std::shared_ptr<const GeneralizedTable> generalized;
  /// The published boxes of a kMultiDimensional release.
  std::shared_ptr<const BoxGeneralization> boxes;
  /// The published taxonomy cuts of a kSingleDimensional release.
  std::shared_ptr<const SingleDimGeneralization> single_dim;
  /// Specializations applied (meaningful for kTds).
  std::uint32_t specializations = 0;
};

/// One of the six algorithms: maps (table, l) to an AnonymizationOutcome.
/// Run dispatches the solve on the id, then runs the shared
/// post-processing -- validation, star counting, group statistics and
/// KL-divergence -- so the utility metrics are computed once here instead
/// of per-bench.
class Anonymizer {
 public:
  constexpr Anonymizer(Algorithm id, Methodology methodology)
      : id_(id), methodology_(methodology) {}

  Algorithm id() const { return id_; }
  const char* name() const { return AlgorithmName(id_); }
  Methodology methodology() const { return methodology_; }

  /// Runs the algorithm on `table` with privacy parameter `l` and fills in
  /// the shared utility metrics. Returns feasible = false iff the table is
  /// not l-eligible. Thread-safe: an Anonymizer holds no state.
  ///
  /// Every solver draws its scratch memory and run context from
  /// `workspace` (null = a local default-constructed one), so repeated
  /// solves stop re-allocating. A workspace is NOT thread-safe: callers
  /// running solves concurrently use one per thread (AnonymizeBatch keeps
  /// one per worker). When `artifacts` supplies the GroupedTable, Hilbert
  /// order or KL point set for `table`, the run skips rebuilding it; any
  /// field may be null, in which case the run derives the input itself.
  /// Artifacts MUST have been built from exactly this table. Outcomes are
  /// identical with or without a workspace or artifacts.
  AnonymizationOutcome Run(const Table& table, std::uint32_t l,
                           const AnonymizerOptions& options = {}, Workspace* workspace = nullptr,
                           const TableArtifacts* artifacts = nullptr) const;

 private:
  Algorithm id_;
  Methodology methodology_;
};

/// The fixed table of the six algorithms, in enum order: lookup by enum
/// for typed callers and by (case-insensitive) name for CLI / bench
/// front-ends. Immutable, so any thread may read it.
class AlgorithmRegistry {
 public:
  /// The process-wide registry.
  static const AlgorithmRegistry& Global();

  /// The entry for `id`.
  const Anonymizer& Get(Algorithm id) const;

  /// Case-insensitive lookup by canonical name ("tp", "TP+", "mondrian",
  /// ...). Returns nullptr for an unknown name.
  const Anonymizer* Find(std::string_view name) const;

  /// All six algorithms, in enum order.
  std::vector<const Anonymizer*> All() const;

 private:
  AlgorithmRegistry() = default;

  std::array<Anonymizer, kAlgorithmCount> entries_ = {{
      {Algorithm::kTp, Methodology::kSuppression},
      {Algorithm::kTpPlus, Methodology::kSuppression},
      {Algorithm::kHilbert, Methodology::kSuppression},
      {Algorithm::kMondrian, Methodology::kMultiDimensional},
      {Algorithm::kAnatomy, Methodology::kBucketization},
      {Algorithm::kTds, Methodology::kSingleDimensional},
  }};
};

}  // namespace ldv

#endif  // LDIV_CORE_ALGORITHM_H_
