#include "core/tp.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>

#include "common/check.h"

namespace ldv {

// ---------------------------------------------------------------------------
// Candidate list (the structure C of Section 5.5)
// ---------------------------------------------------------------------------
//
// Buckets are indexed by j = h(R, v). The bucket for value v holds a
// "v-record" whose payload is the list of (group, slot) entries from which a
// tuple with SA value v could be removed. A monotone scan pointer yields the
// least frequent alive SA value in R: during phase two h(R, v) never
// decreases (Lemma 5 keeps h(R) itself constant), so records only migrate to
// higher buckets and no record can ever surface below the pointer.
//
// Entries are validated lazily when popped (the owning group may have died
// or run out of value v since insertion); a dead group additionally has all
// of its entries unlinked eagerly via a per-group chain, mirroring the
// "remove all its entries (i, v) from C" step of Section 5.5.
class TpEngine::CandidateList {
 public:
  /// `entry_capacity` is the exact number of AddEntry calls the caller will
  /// make (one per (alive group, distinct SA value) pair), so the entry
  /// arrays never reallocate during the build.
  CandidateList(std::size_t m, std::size_t group_count, std::uint32_t bucket_cap,
                std::size_t entry_capacity)
      : v_head_(m, kNil),
        v_prev_(m, kNil),
        v_next_(m, kNil),
        v_bucket_(m, kNil),
        group_head_(group_count, kNil),
        bucket_head_(bucket_cap + 1, kNil),
        cap_(bucket_cap) {
    e_group_.reserve(entry_capacity);
    e_slot_.reserve(entry_capacity);
    e_value_.reserve(entry_capacity);
    e_prev_.reserve(entry_capacity);
    e_next_.reserve(entry_capacity);
    e_live_.reserve(entry_capacity);
    e_gnext_.reserve(entry_capacity);
  }

  /// Registers candidate (g, slot) for SA value `v`; `bucket` is the current
  /// h(R, v). Only used while building the list.
  void AddEntry(GroupId g, std::uint32_t slot, SaValue v, std::uint32_t bucket) {
    std::int32_t e = static_cast<std::int32_t>(e_group_.size());
    e_group_.push_back(g);
    e_slot_.push_back(slot);
    e_value_.push_back(v);
    e_prev_.push_back(kNil);
    e_next_.push_back(v_head_[v]);
    e_live_.push_back(1);
    e_gnext_.push_back(group_head_[g]);
    group_head_[g] = e;
    if (v_head_[v] != kNil) e_prev_[v_head_[v]] = e;
    v_head_[v] = e;
    if (v_bucket_[v] == kNil) LinkRecord(v, std::min(bucket, cap_));
  }

  /// Finds the least frequent SA value in R that still has candidates.
  /// Returns false when the list is exhausted (phase two failed).
  bool NextCandidate(SaValue* v, std::int32_t* entry) {
    while (pointer_ <= cap_ && bucket_head_[pointer_] == kNil) ++pointer_;
    if (pointer_ > cap_) return false;
    *v = static_cast<SaValue>(bucket_head_[pointer_]);
    *entry = v_head_[*v];
    LDIV_CHECK_NE(*entry, kNil);
    return true;
  }

  GroupId entry_group(std::int32_t e) const { return e_group_[e]; }
  std::uint32_t entry_slot(std::int32_t e) const { return e_slot_[e]; }

  /// Unlinks a stale entry; deactivates the v-record when it runs empty.
  void DropEntry(std::int32_t e) {
    if (!e_live_[e]) return;
    e_live_[e] = 0;
    SaValue v = e_value_[e];
    std::int32_t p = e_prev_[e];
    std::int32_t n = e_next_[e];
    if (p != kNil) {
      e_next_[p] = n;
    } else {
      v_head_[v] = n;
    }
    if (n != kNil) e_prev_[n] = p;
    if (v_head_[v] == kNil && v_bucket_[v] != kNil) UnlinkRecord(v);
  }

  /// Eagerly drops every entry of a dead group.
  void DropGroup(GroupId g) {
    for (std::int32_t e = group_head_[g]; e != kNil; e = e_gnext_[e]) DropEntry(e);
    group_head_[g] = kNil;
  }

  /// Migrates v's record after h(R, v) increased to `new_count`.
  void OnResidueIncrement(SaValue v, std::uint32_t new_count) {
    if (v_bucket_[v] == kNil) return;
    std::uint32_t target = std::min(new_count, cap_);
    if (static_cast<std::uint32_t>(v_bucket_[v]) == target) return;
    UnlinkRecord(v);
    LinkRecord(v, target);
  }

 private:
  static constexpr std::int32_t kNil = -1;

  void LinkRecord(SaValue v, std::uint32_t bucket) {
    std::int32_t head = bucket_head_[bucket];
    v_prev_[v] = kNil;
    v_next_[v] = head;
    if (head != kNil) v_prev_[head] = static_cast<std::int32_t>(v);
    bucket_head_[bucket] = static_cast<std::int32_t>(v);
    v_bucket_[v] = static_cast<std::int32_t>(bucket);
  }

  void UnlinkRecord(SaValue v) {
    std::int32_t p = v_prev_[v];
    std::int32_t n = v_next_[v];
    if (p != kNil) {
      v_next_[p] = n;
    } else {
      bucket_head_[v_bucket_[v]] = n;
    }
    if (n != kNil) v_prev_[n] = p;
    v_bucket_[v] = kNil;
  }

  // Entry arrays (one logical struct-of-arrays; at most one entry per
  // (group, distinct SA value) pair, so O(n) in total).
  std::vector<GroupId> e_group_;
  std::vector<std::uint32_t> e_slot_;
  std::vector<SaValue> e_value_;
  std::vector<std::int32_t> e_prev_, e_next_;  // v-list links
  std::vector<std::int32_t> e_gnext_;          // per-group chain
  std::vector<char> e_live_;

  std::vector<std::int32_t> v_head_;    // value -> first live entry
  std::vector<std::int32_t> v_prev_, v_next_;  // bucket list links
  std::vector<std::int32_t> v_bucket_;  // value -> bucket index, kNil inactive
  std::vector<std::int32_t> group_head_;
  std::vector<std::int32_t> bucket_head_;
  std::uint32_t cap_ = 0;
  std::uint32_t pointer_ = 0;
};

// ---------------------------------------------------------------------------
// TpEngine
// ---------------------------------------------------------------------------

TpEngine::TpEngine(const GroupedTable& grouped, std::uint32_t l)
    : l_(l),
      m_(grouped.sa_domain_size()),
      grouped_(&grouped),
      groups_(PillarIndex::Build(grouped.group_count(),
                                 [&grouped](std::size_t g, auto&& add) {
                                   const QiGroup& group = grouped.group(static_cast<GroupId>(g));
                                   for (std::size_t i = 0; i < group.sa_runs.size(); ++i) {
                                     add(group.sa_runs[i].first, group.RunLength(i));
                                   }
                                 })),
      residue_(PillarIndex::DenseEmpty(m_)) {
  LDIV_CHECK_GE(l_, 1u);
  table_eligible_ = WholeTableEligible();
  removed_rows_.reserve(grouped.row_count() / 8);
}

TpEngine::TpEngine(const std::vector<SaHistogram>& group_histograms, std::uint32_t l)
    : TpEngine(group_histograms,
               SaHistogram(group_histograms.empty() ? 1 : group_histograms[0].domain_size()), l) {}

TpEngine::TpEngine(const std::vector<SaHistogram>& group_histograms, const SaHistogram& residue,
                   std::uint32_t l)
    : l_(l),
      m_(residue.domain_size()),
      groups_(PillarIndex::FromHistograms(group_histograms)),
      residue_(PillarIndex::FromHistogram(residue)),
      initial_residue_(residue.total()) {
  LDIV_CHECK_GE(l_, 1u);
  for (const SaHistogram& h : group_histograms) LDIV_CHECK_EQ(h.domain_size(), m_);
  table_eligible_ = WholeTableEligible();
}

bool TpEngine::WholeTableEligible() const {
  SaHistogram all = ResidueHistogram();
  for (std::uint32_t slot = 0; slot < groups_.slot_count(); ++slot) {
    if (groups_.count(slot) > 0) all.Add(groups_.value(slot), groups_.count(slot));
  }
  return all.IsEligible(l_);
}

SaHistogram TpEngine::GroupHistogram(GroupId g) const {
  LDIV_CHECK_LT(g, group_count());
  return groups_.ToHistogram(g, m_);
}

bool TpEngine::GroupIsFat(GroupId g) const {
  return groups_.total(g) >= static_cast<std::uint64_t>(l_) * groups_.PillarHeight(g) + 1;
}

bool TpEngine::GroupIsThin(GroupId g) const {
  return groups_.total(g) == static_cast<std::uint64_t>(l_) * groups_.PillarHeight(g);
}

bool TpEngine::GroupIsConflicting(GroupId g) const {
  return groups_.AnyPillarSlot(
      g, [&](std::uint32_t slot) { return residue_.IsPillarSlot(kR, groups_.value(slot)); });
}

void TpEngine::RemoveTuple(GroupId g, std::uint32_t slot, CandidateList* candidates) {
  const SaValue v = groups_.value(slot);
  groups_.Decrement(g, slot);
  if (grouped_ != nullptr) {
    const QiGroup& src = grouped_->group(g);
    const std::uint32_t run = slot - groups_.first_slot(g);
    removed_rows_.push_back(src.rows[src.sa_runs[run].second + groups_.count(slot)]);
  }
  residue_.Increment(kR, v);
  if (candidates != nullptr) candidates->OnResidueIncrement(v, residue_.count(v));
}

void TpEngine::DonatePillars(GroupId g, CandidateList* candidates) {
  groups_.PillarSlots(g, &pillars_);
  for (std::uint32_t slot : pillars_) RemoveTuple(g, slot, candidates);
}

void TpEngine::RunPhase1() {
  for (GroupId g = 0; g < group_count(); ++g) {
    // "Repeatedly remove one tuple from its pillar until the QI-group is
    // l-eligible" (Section 5.2). Ties between pillars are broken by the
    // smallest SA value for determinism; by the paper's argument the end
    // state is independent of this choice.
    while (!groups_.IsEligible(g, l_)) {
      RemoveTuple(g, groups_.FirstPillarSlot(g), nullptr);
    }
  }
  stats_.removed_phase1 = ResidueSize() - initial_residue_;
  stats_.residue_pillar_after_phase1 = ResiduePillarHeight();
}

bool TpEngine::RunPhase2() {
  if (ResidueEligible()) return true;
  const std::uint32_t kResidueHeight = ResiduePillarHeight();  // h(R-dot), fixed by Lemma 5

#ifndef NDEBUG
  for (GroupId g = 0; g < group_count(); ++g) {
    LDIV_DCHECK(groups_.IsEligible(g, l_)) << "phase two requires l-eligible groups";
  }
#endif

  std::size_t entry_capacity = 0;
  for (GroupId g = 0; g < group_count(); ++g) {
    if (groups_.empty(g) || GroupIsDead(g)) continue;
    entry_capacity += groups_.end_slot(g) - groups_.first_slot(g);
  }
  CandidateList candidates(m_, group_count(), kResidueHeight, entry_capacity);
  for (GroupId g = 0; g < group_count(); ++g) {
    if (groups_.empty(g) || GroupIsDead(g)) continue;
    for (std::uint32_t slot = groups_.first_slot(g); slot < groups_.end_slot(g); ++slot) {
      if (groups_.count(slot) == 0) continue;
      SaValue v = groups_.value(slot);
      candidates.AddEntry(g, slot, v, residue_.count(v));
    }
  }

  while (!ResidueEligible()) {
    SaValue v = 0;
    std::int32_t e = -1;
    if (!candidates.NextCandidate(&v, &e)) return false;  // no alive SA value: phase three
    GroupId g = candidates.entry_group(e);
    std::uint32_t slot = candidates.entry_slot(e);
    if (groups_.count(slot) == 0) {
      candidates.DropEntry(e);
      continue;
    }
    if (groups_.empty(g) || GroupIsDead(g)) {
      candidates.DropGroup(g);
      continue;
    }
    ++stats_.phase2_iterations;
    if (GroupIsFat(g)) {
      // Fat group: donate one tuple with the chosen value v.
      RemoveTuple(g, slot, &candidates);
    } else {
      // Thin and alive, hence non-conflicting: donate one tuple from each
      // pillar.
      DonatePillars(g, &candidates);
    }
    if (groups_.empty(g) || GroupIsDead(g)) candidates.DropGroup(g);
    // Lemma 5: phase two never increases h(R).
    LDIV_CHECK_EQ(ResiduePillarHeight(), kResidueHeight);
  }
  return true;
}

std::uint32_t TpEngine::PickFatDonationSlot(GroupId g) const {
  std::uint32_t best_slot = std::numeric_limits<std::uint32_t>::max();
  std::uint64_t best_count = std::numeric_limits<std::uint64_t>::max();
  for (std::uint32_t slot = groups_.first_slot(g); slot < groups_.end_slot(g); ++slot) {
    if (groups_.count(slot) == 0) continue;
    SaValue v = groups_.value(slot);
    if (residue_.IsPillarSlot(kR, v)) continue;  // donating a pillar would raise h(R)
    std::uint64_t rc = residue_.count(v);
    if (rc < best_count) {
      best_count = rc;
      best_slot = slot;
    }
  }
  // An l-eligible group holds >= l distinct values while R has <= l-1
  // pillars (R is not yet l-eligible), so a non-pillar donation exists.
  LDIV_CHECK_NE(best_slot, std::numeric_limits<std::uint32_t>::max());
  return best_slot;
}

void TpEngine::RunPhase3() {
  const std::uint32_t h_start = ResiduePillarHeight();
  // Lemma 9 bounds the number of rounds by h(R-double-dot); the +1 is slack
  // for the round counter check below.
  const std::uint32_t round_limit = h_start + 1;
  std::vector<char> in_p(m_, 0);

  while (!ResidueEligible()) {
    LDIV_CHECK_LT(stats_.phase3_rounds, round_limit)
        << "phase three exceeded the Lemma 9 round bound";
    ++stats_.phase3_rounds;

    // ---- Step one: greedy SET-COVER over the pillars P of R ----
    std::vector<SaValue> p_values;
    residue_.ForEachPillarSlot(kR, [&](std::uint32_t slot) {
      SaValue v = residue_.value(slot);
      in_p[v] = 1;
      p_values.push_back(v);
    });
    std::size_t p_left = p_values.size();
    std::vector<GroupId> selection;
    std::vector<char> picked(group_count(), 0);
    while (p_left > 0) {
      std::int64_t best = -1;
      std::uint64_t best_cost = std::numeric_limits<std::uint64_t>::max();
      for (GroupId g = 0; g < group_count(); ++g) {
        if (picked[g] || groups_.empty(g)) continue;
        std::uint64_t cost = 0;
        groups_.ForEachPillarSlot(g,
                                  [&](std::uint32_t slot) { cost += in_p[groups_.value(slot)]; });
        if (cost < best_cost) {
          best_cost = cost;
          best = static_cast<std::int64_t>(g);
        }
      }
      LDIV_CHECK_GE(best, 0) << "no QI-group available for the cover";
      // Lemma 7 guarantees strict progress: some group does not conflict on
      // each remaining pillar.
      LDIV_CHECK_LT(best_cost, p_left) << "greedy cover made no progress";
      picked[best] = 1;
      selection.push_back(static_cast<GroupId>(best));
      for (SaValue v : p_values) {
        if (in_p[v] && !groups_.IsPillarValue(static_cast<GroupId>(best), v)) {
          in_p[v] = 0;
          --p_left;
        }
      }
    }
    for (SaValue v : p_values) in_p[v] = 0;  // clear any survivors

    // Donate one tuple from each pillar of every selected QI-group. The
    // "terminate as soon as R is l-eligible" rule may only fire after a
    // group's donation completes: a thin group stays l-eligible only once
    // all of its pillars have donated, so stopping mid-donation would leave
    // an ineligible QI-group behind.
    for (GroupId g : selection) {
      DonatePillars(g, nullptr);
      if (ResidueEligible()) return;
    }

    // ---- Step two: re-kill every QI-group that came (back) alive ----
    for (GroupId g = 0; g < group_count(); ++g) {
      while (!groups_.empty(g)) {
        std::uint64_t lh = static_cast<std::uint64_t>(l_) * groups_.PillarHeight(g);
        if (groups_.total(g) > lh) {
          // Fat: donate any SA value that is not a pillar of R (we pick the
          // least frequent in R to also help eligibility along).
          RemoveTuple(g, PickFatDonationSlot(g), nullptr);
          if (ResidueEligible()) return;
        } else {
          LDIV_CHECK_EQ(groups_.total(g), lh) << "QI-group lost l-eligibility";
          if (GroupIsConflicting(g)) break;  // dead again
          // As in step one, the donation of a thin group is atomic: check
          // termination only after every pillar has donated.
          DonatePillars(g, nullptr);
          if (ResidueEligible()) return;
        }
      }
    }
  }
}

const TpStats& TpEngine::Run() {
  LDIV_CHECK(!ran_) << "TpEngine::Run may only be called once";
  ran_ = true;

  LDIV_CHECK(table_eligible_) << "input table is not l-eligible; no solution exists";

  RunPhase1();
  if (ResidueEligible()) {
    stats_.terminated_phase = 1;
    stats_.residue_pillar_after_phase2 = ResiduePillarHeight();
  } else {
    std::uint64_t before2 = ResidueSize();
    bool done = RunPhase2();
    stats_.removed_phase2 = ResidueSize() - before2;
    stats_.residue_pillar_after_phase2 = ResiduePillarHeight();
    if (done) {
      stats_.terminated_phase = 2;
    } else {
      std::uint64_t before3 = ResidueSize();
      RunPhase3();
      stats_.removed_phase3 = ResidueSize() - before3;
      stats_.terminated_phase = 3;
    }
  }
  stats_.residue_size = ResidueSize();
  LDIV_CHECK(ResidueEligible());
  // Condition (a) of Section 5.1: every QI-group must end l-eligible.
  for (GroupId g = 0; g < group_count(); ++g) {
    LDIV_CHECK(groups_.IsEligible(g, l_)) << "QI-group " << g << " ended ineligible";
  }
  return stats_;
}

void TpEngine::RemainingRows(GroupId g, std::vector<RowId>* rows) const {
  LDIV_CHECK(grouped_ != nullptr);
  const QiGroup& src = grouped_->group(g);
  const std::uint32_t first = groups_.first_slot(g);
  rows->clear();
  for (std::uint32_t slot = first; slot < groups_.end_slot(g); ++slot) {
    const auto run = src.rows.subspan(src.sa_runs[slot - first].second, groups_.count(slot));
    rows->insert(rows->end(), run.begin(), run.end());
  }
}

// ---------------------------------------------------------------------------
// TpResult / RunTp
// ---------------------------------------------------------------------------

Partition TpResult::ToPartition() const {
  Partition p;
  p.Reserve(kept_groups.group_count() + 1, kept_groups.row_count() + residue_rows.size());
  p.Append(kept_groups);
  p.AddGroup(residue_rows);
  return p;
}

TpResult RunTp(const GroupedTable& grouped, std::uint32_t l) {
  TpResult result;
  auto start = std::chrono::steady_clock::now();
  TpEngine engine(grouped, l);
  if (!engine.table_eligible()) return result;  // infeasible (Lemma 1)
  engine.Run();
  result.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  result.feasible = true;
  result.stats = engine.stats();
  result.residue_rows = engine.TakeRemovedRows();
  // Room for every row and one group more than survive: TP's outcome
  // appends R as its last group, and TP+ appends R's refined groups,
  // without moving the rows.
  std::size_t kept = 0;
  for (GroupId g = 0; g < grouped.group_count(); ++g) kept += engine.RemainingCount(g) > 0;
  result.kept_groups.Reserve(kept + 1, grouped.row_count());
  std::vector<RowId> rows;  // one group's survivors, reused across groups
  for (GroupId g = 0; g < grouped.group_count(); ++g) {
    engine.RemainingRows(g, &rows);
    result.kept_groups.AddGroup(rows);
  }
  return result;
}

TpResult RunTp(const Table& table, std::uint32_t l, Workspace* workspace) {
  GroupedTable grouped(table, workspace);
  return RunTp(grouped, l);
}

}  // namespace ldv
