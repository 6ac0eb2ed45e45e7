#ifndef LDIV_CORE_TP_H_
#define LDIV_CORE_TP_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "anonymity/partition.h"
#include "common/grouped_table.h"
#include "common/histogram.h"
#include "common/table.h"
#include "core/pillar_index.h"

namespace ldv {

/// Counters describing one run of the three-phase algorithm.
struct TpStats {
  /// Phase in which the algorithm terminated (1, 2 or 3). Termination in
  /// phase one yields an optimal tuple-minimization solution (Corollary 1);
  /// phase two adds at most l-1 tuples over OPT (Corollary 3); phase three
  /// guarantees the factor-l approximation (Theorem 3).
  int terminated_phase = 0;
  /// Tuples moved to the residue set R in each phase.
  std::uint64_t removed_phase1 = 0;
  std::uint64_t removed_phase2 = 0;
  std::uint64_t removed_phase3 = 0;
  /// h(R) right after phase one -- the paper's h(R-dot). Corollary 2 lower
  /// bounds OPT by l * h(R-dot).
  std::uint32_t residue_pillar_after_phase1 = 0;
  /// h(R) right after phase two (equals the phase-one value by Lemma 5).
  std::uint32_t residue_pillar_after_phase2 = 0;
  std::uint32_t phase2_iterations = 0;
  std::uint32_t phase3_rounds = 0;
  /// |R| at termination.
  std::uint64_t residue_size = 0;
};

/// The three-phase tuple-minimization engine of Section 5.
///
/// The engine operates on SA-multisets through the inverted lists of
/// Section 5.5: one PillarIndex holds every QI-group as one set, in group
/// order, and a one-set PillarIndex holds the residue set R. Construction
/// from a GroupedTable sizes the groups' index exactly from the SA runs
/// and additionally tracks which concrete rows are removed; the
/// histogram-only constructors exist so tests can drive the algorithm
/// through the paper's worked examples (Sections 5.2-5.4) and inspect
/// intermediate states.
class TpEngine {
 public:
  /// Engine over a grouped table; removed rows are tracked.
  TpEngine(const GroupedTable& grouped, std::uint32_t l);

  /// Engine over bare group histograms (no row tracking).
  TpEngine(const std::vector<SaHistogram>& group_histograms, std::uint32_t l);

  /// Engine over bare group histograms with a pre-seeded residue set; used
  /// to enter phase three directly from the paper's Section 5.4 example.
  TpEngine(const std::vector<SaHistogram>& group_histograms, const SaHistogram& residue,
           std::uint32_t l);

  TpEngine(const TpEngine&) = delete;
  TpEngine& operator=(const TpEngine&) = delete;

  /// Whether the whole table -- every QI-group plus R -- is l-eligible,
  /// recorded at construction: by Lemma 1, Problems 1 and 2 have a
  /// solution iff it is.
  bool table_eligible() const { return table_eligible_; }

  /// Runs phases one..three until the residue set is l-eligible.
  /// The input table must be l-eligible (checked).
  const TpStats& Run();

  /// Phase one (Section 5.2): per QI-group, remove pillar tuples until the
  /// group is l-eligible.
  void RunPhase1();

  /// Phase two (Section 5.3): grow |R| without changing h(R), taking the
  /// least-frequent alive SA value each iteration via the candidate list C
  /// of Section 5.5. Returns true iff R became l-eligible.
  bool RunPhase2();

  /// Phase three (Section 5.4): rounds of greedy SET-COVER donations that
  /// raise h(R) by at most l-2 while growing |R| by at least l per round.
  void RunPhase3();

  std::uint32_t l() const { return l_; }
  std::size_t group_count() const { return groups_.set_count(); }
  std::size_t sa_domain_size() const { return m_; }

  /// True iff |R| >= l * h(R).
  bool ResidueEligible() const { return residue_.IsEligible(kR, l_); }

  std::uint64_t ResidueSize() const { return residue_.total(kR); }
  std::uint32_t ResiduePillarHeight() const { return residue_.PillarHeight(kR); }
  SaHistogram ResidueHistogram() const { return residue_.ToHistogram(kR, m_); }
  SaHistogram GroupHistogram(GroupId g) const;

  /// Group status predicates of Section 5.3 (meaningful once all groups are
  /// l-eligible, i.e. after phase one).
  bool GroupIsFat(GroupId g) const;
  bool GroupIsThin(GroupId g) const;
  bool GroupIsConflicting(GroupId g) const;
  bool GroupIsDead(GroupId g) const {
    return GroupIsThin(g) && GroupIsConflicting(g);
  }

  const TpStats& stats() const { return stats_; }

  /// Rows moved to R, in removal order (row-tracking constructor only).
  const std::vector<RowId>& removed_rows() const { return removed_rows_; }
  /// The same rows, moved out of the engine.
  std::vector<RowId> TakeRemovedRows() { return std::move(removed_rows_); }

  /// Replaces `*rows` with the rows still in group `g` (row-tracking
  /// constructor only).
  void RemainingRows(GroupId g, std::vector<RowId>* rows) const;

  /// The number of rows still in group `g`.
  std::uint64_t RemainingCount(GroupId g) const { return groups_.total(g); }

 private:
  class CandidateList;

  /// R is the one set of `residue_`; its slot ids equal SA values.
  static constexpr PillarIndex::SetId kR = 0;

  /// Moves one tuple of `slot` from group `g` into R.
  void RemoveTuple(GroupId g, std::uint32_t slot, CandidateList* candidates);

  /// A thin group's donation: one tuple from each of its pillars, snapshot
  /// first (each decrement reshuffles the top level).
  void DonatePillars(GroupId g, CandidateList* candidates);

  /// Chooses the fat-group donation of phase three's step two: a non-pillar
  /// (w.r.t. R) SA value present in `g`, minimizing h(R, v).
  std::uint32_t PickFatDonationSlot(GroupId g) const;

  /// Lemma 1's test over the current sets and R, in one walk of the slots.
  bool WholeTableEligible() const;

  std::uint32_t l_ = 0;
  std::size_t m_ = 0;
  const GroupedTable* grouped_ = nullptr;  // null in histogram-only mode
  PillarIndex groups_;                     // set g is QI-group g
  PillarIndex residue_;
  std::uint64_t initial_residue_ = 0;  // seeded |R| (Section 5.4 test hook)
  std::vector<RowId> removed_rows_;
  std::vector<std::uint32_t> pillars_;  // DonatePillars' snapshot, reused
  TpStats stats_;
  bool table_eligible_ = false;
  bool ran_ = false;
};

/// Result of the full TP pipeline over a concrete table.
struct TpResult {
  /// False iff the input table is not l-eligible (Problem 1 infeasible).
  bool feasible = false;
  /// Surviving QI-groups, flat and in grouping order; every row in a group
  /// shares the exact QI signature, so these groups carry zero stars.
  Partition kept_groups;
  /// The residue set R (suppressed tuples).
  std::vector<RowId> residue_rows;
  TpStats stats;
  /// Wall-clock seconds of the solve (excludes grouping when the caller
  /// supplied a GroupedTable).
  double seconds = 0.0;

  /// The final partition: kept groups plus R as a single QI-group.
  Partition ToPartition() const;
};

/// Runs the three-phase algorithm (paper's "TP") on `table` with privacy
/// parameter `l`. Builds the QI-grouping internally (drawing its scratch
/// from `workspace` when one is supplied).
TpResult RunTp(const Table& table, std::uint32_t l, Workspace* workspace = nullptr);

/// Same, over a pre-grouped table.
TpResult RunTp(const GroupedTable& grouped, std::uint32_t l);

}  // namespace ldv

#endif  // LDIV_CORE_TP_H_
