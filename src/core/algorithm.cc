#include "core/algorithm.h"

#include <cctype>
#include <optional>
#include <utility>

#include "anonymity/anatomy.h"
#include "anonymity/eligibility.h"
#include "common/check.h"
#include "core/tp_plus.h"
#include "metrics/kl_divergence.h"
#include "mondrian/mondrian.h"

namespace ldv {

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kTp:
      return "TP";
    case Algorithm::kTpPlus:
      return "TP+";
    case Algorithm::kHilbert:
      return "Hilbert";
    case Algorithm::kMondrian:
      return "Mondrian";
    case Algorithm::kAnatomy:
      return "Anatomy";
    case Algorithm::kTds:
      return "TDS";
  }
  LDIV_CHECK(false) << "unknown Algorithm value " << static_cast<int>(algorithm);
  return "";
}

const char* MethodologyName(Methodology methodology) {
  switch (methodology) {
    case Methodology::kSuppression:
      return "suppression";
    case Methodology::kMultiDimensional:
      return "multi-dimensional";
    case Methodology::kSingleDimensional:
      return "single-dimensional";
    case Methodology::kBucketization:
      return "bucketization";
  }
  LDIV_CHECK(false) << "unknown Methodology value " << static_cast<int>(methodology);
  return "";
}

bool AlgorithmUsesGroupedArtifact(Algorithm algorithm) {
  return algorithm == Algorithm::kTp || algorithm == Algorithm::kTpPlus;
}

bool AlgorithmUsesHilbertOrderArtifact(Algorithm algorithm) {
  return algorithm == Algorithm::kHilbert;
}

AnonymizationOutcome Anonymizer::Run(const Table& table, std::uint32_t l,
                                     const AnonymizerOptions& options, Workspace* workspace,
                                     const TableArtifacts* artifacts) const {
  std::optional<Workspace> local;
  if (workspace == nullptr) workspace = &local.emplace();
  const GroupedTable* grouped = artifacts != nullptr ? artifacts->grouped.get() : nullptr;
  const std::vector<RowId>* order =
      artifacts != nullptr ? artifacts->hilbert_order.get() : nullptr;
  AnonymizationOutcome outcome;
  outcome.algorithm = id_;
  outcome.methodology = methodology_;
  // The algorithm-specific solve: fills partition, seconds and the
  // methodology artifacts, and returns early iff infeasible.
  switch (id_) {
    case Algorithm::kTp: {
      TpResult r = grouped != nullptr ? RunTp(*grouped, l) : RunTp(table, l, workspace);
      if (!r.feasible) return outcome;
      outcome.partition = std::move(r.kept_groups);
      outcome.partition.AddGroup(r.residue_rows);
      outcome.seconds = r.seconds;
      outcome.tp_stats = r.stats;
      break;
    }
    case Algorithm::kTpPlus: {
      TpPlusResult r = RunTpPlus(table, l, options.hilbert, workspace, grouped);
      if (!r.feasible) return outcome;
      outcome.partition = std::move(r.partition);
      outcome.seconds = r.seconds();
      outcome.tp_stats = r.tp_stats;
      break;
    }
    case Algorithm::kHilbert: {
      HilbertResult r = HilbertAnonymize(table, l, options.hilbert, workspace, order);
      if (!r.feasible) return outcome;
      outcome.partition = std::move(r.partition);
      outcome.seconds = r.seconds;
      break;
    }
    case Algorithm::kMondrian: {
      MondrianResult r = MondrianAnonymize(table, l, workspace);
      if (!r.feasible) return outcome;
      outcome.partition = std::move(r.partition);
      outcome.boxes = std::make_shared<BoxGeneralization>(std::move(r.generalization));
      outcome.seconds = r.seconds;
      break;
    }
    case Algorithm::kAnatomy: {
      // Anatomy's random-shuffle bucketization has no hot scratch.
      AnatomyResult r = AnatomyAnonymize(table, l);
      if (!r.feasible) return outcome;
      outcome.partition = std::move(r.partition);
      outcome.seconds = r.seconds;
      break;
    }
    case Algorithm::kTds: {
      // TDS is dominated by its taxonomy walks, not scratch churn.
      TdsResult r = RunTds(table, l);
      if (!r.feasible) return outcome;
      outcome.partition = std::move(r.partition);
      outcome.single_dim = std::move(r.generalization);
      outcome.specializations = r.specializations;
      outcome.seconds = r.seconds;
      break;
    }
  }
  outcome.feasible = true;
  LDIV_DCHECK(outcome.partition.CoversExactly(table));
  LDIV_DCHECK(IsLDiverse(table, outcome.partition, l));

  // Shared post-processing: every algorithm reports the same utility
  // metrics, computed once here rather than by each bench.
  outcome.group_stats = ComputeGroupSizeStats(outcome.partition);
  if (methodology_ != Methodology::kBucketization) {
    auto generalized = std::make_shared<GeneralizedTable>(table, outcome.partition);
    outcome.stars = generalized->StarCount();
    outcome.suppressed_tuples = generalized->SuppressedTupleCount();
    outcome.generalized = std::move(generalized);
  }
  if (options.compute_kl) {
    const std::vector<KlPoint>* points =
        artifacts != nullptr ? artifacts->kl_points.get() : nullptr;
    switch (methodology_) {
      case Methodology::kSuppression:
        outcome.kl_divergence =
            KlDivergenceSuppression(table, *outcome.generalized, workspace, points);
        break;
      case Methodology::kMultiDimensional:
        outcome.kl_divergence = KlDivergenceMultiDim(table, *outcome.boxes, workspace, points);
        break;
      case Methodology::kSingleDimensional:
        outcome.kl_divergence =
            KlDivergenceSingleDim(table, *outcome.single_dim, workspace, points);
        break;
      case Methodology::kBucketization:
        outcome.kl_divergence = KlDivergenceAnatomy(table, outcome.partition, workspace, points);
        break;
    }
  }
  return outcome;
}

namespace {

bool NameEqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

const AlgorithmRegistry& AlgorithmRegistry::Global() {
  static const AlgorithmRegistry registry;
  return registry;
}

const Anonymizer& AlgorithmRegistry::Get(Algorithm id) const {
  const std::size_t index = static_cast<std::size_t>(id);
  LDIV_CHECK_LT(index, entries_.size()) << "unknown Algorithm value " << index;
  return entries_[index];
}

const Anonymizer* AlgorithmRegistry::Find(std::string_view name) const {
  for (const Anonymizer& entry : entries_) {
    if (NameEqualsIgnoreCase(entry.name(), name)) return &entry;
  }
  return nullptr;
}

std::vector<const Anonymizer*> AlgorithmRegistry::All() const {
  std::vector<const Anonymizer*> result;
  for (const Anonymizer& entry : entries_) result.push_back(&entry);
  return result;
}

}  // namespace ldv
