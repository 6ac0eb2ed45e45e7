#ifndef LDIV_CORE_PILLAR_INDEX_H_
#define LDIV_CORE_PILLAR_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/histogram.h"
#include "common/types.h"

namespace ldv {

/// The inverted-list structure of Section 5.5, for any number of
/// SA-multisets ("sets") in one arena.
///
/// Each set is one QI-group Q_i or the residue set R. For every tracked SA
/// value a set keeps its multiplicity, and it keeps a doubly-linked list of
/// values per multiplicity level ("the j-th entry A[j] contains a pointer to
/// a list of SA values v such that h(Q_i, v) = j"), together with the
/// pillar pointer p_i = the maximum nonempty level.
///
/// Every set lives in the same flat arrays, so an index over hundreds of
/// thousands of QI-groups is a handful of allocations:
///   - slots: each tracked value of a set is one slot (value, count, prev,
///     next). A set's slots are contiguous and ascending by value; slot ids
///     are global to the index.
///   - level heads: each set owns a slice of one array, sized to its
///     largest initial count + 1 (level 0 is never linked).
///   - sets: each keeps its first slot, its first level head, its pillar
///     height, its total and its distinct count.
/// A set's counts may rise above their initial maximum only in the last
/// set, whose slice ends the array and grows. TpEngine keeps the QI-groups
/// in one index (they only lose tuples) and R in its own one-set index (it
/// only gains them).
///
/// QI-groups track only the values they actually contain (the sum over
/// groups is O(n) memory even when s is close to n), whereas the residue
/// set tracks the whole SA domain so that counts can grow from zero.
///
/// Increment and Decrement are O(1); the pillar pointer moves monotonically
/// per direction, so its maintenance is amortized O(1) exactly as argued in
/// Section 5.5.
class PillarIndex {
 public:
  using SetId = std::uint32_t;

  PillarIndex() = default;

  /// Builds one set per k in [0, set_count): `entries(k, add)` must call
  /// `add(value, count)` once for each value set k tracks, with values
  /// strictly increasing (counts may be zero). It is called twice per set:
  /// once to size every array exactly, once to fill them.
  template <typename Entries>
  static PillarIndex Build(std::size_t set_count, const Entries& entries);

  /// A one-set index tracking every value of an SA domain of size `m`, all
  /// counts zero. Used for the residue set R; slot ids equal SA values.
  static PillarIndex DenseEmpty(std::size_t m);

  /// One set per histogram, each tracking every value of its domain.
  static PillarIndex FromHistograms(std::span<const SaHistogram> histograms);

  /// A one-set index over a dense histogram, tracking every domain value.
  static PillarIndex FromHistogram(const SaHistogram& h) { return FromHistograms({&h, 1}); }

  std::size_t set_count() const { return sets_.size(); }

  /// Number of tracked slots over all sets.
  std::size_t slot_count() const { return slots_.size(); }

  /// Set `s` owns slots [first_slot(s), end_slot(s)).
  std::uint32_t first_slot(SetId s) const { return sets_[s].first_slot; }
  std::uint32_t end_slot(SetId s) const {
    return s + 1 < sets_.size() ? sets_[s + 1].first_slot
                                : static_cast<std::uint32_t>(slots_.size());
  }

  /// SA value bound to `slot`.
  SaValue value(std::uint32_t slot) const { return slots_[slot].value; }

  /// Current multiplicity of `slot`.
  std::uint32_t count(std::uint32_t slot) const { return slots_[slot].count; }

  /// Slot of set `s` bound to SA value `v`, or -1 if `s` does not track
  /// `v`. O(log k).
  std::int64_t FindSlot(SetId s, SaValue v) const;

  /// Multiplicity of SA value `v` in set `s` (0 if untracked).
  std::uint32_t CountOf(SetId s, SaValue v) const;

  /// Total multiset size |Q|.
  std::uint64_t total(SetId s) const { return sets_[s].total; }
  bool empty(SetId s) const { return sets_[s].total == 0; }

  /// The pillar height h(Q) (0 for an empty multiset).
  std::uint32_t PillarHeight(SetId s) const { return sets_[s].pillar; }

  /// True if `slot` of set `s` currently holds a pillar (count > 0 and
  /// maximal).
  bool IsPillarSlot(SetId s, std::uint32_t slot) const {
    return slots_[slot].count > 0 && slots_[slot].count == sets_[s].pillar;
  }

  /// True if SA value `v` is a pillar of set `s`.
  bool IsPillarValue(SetId s, SaValue v) const;

  /// First pillar slot in the top level list (deterministic; ascending by
  /// slot id on a freshly built index, most recently moved first
  /// afterwards). The multiset must be nonempty.
  std::uint32_t FirstPillarSlot(SetId s) const;

  /// Replaces `*slots` with the pillar slots of set `s`, in top-level list
  /// order. O(#pillars); a caller that snapshots many sets reuses one
  /// buffer.
  void PillarSlots(SetId s, std::vector<std::uint32_t>* slots) const;

  /// Calls `fn(slot)` for every pillar slot of set `s`. `fn` must not
  /// mutate the index.
  template <typename Fn>
  void ForEachPillarSlot(SetId s, Fn&& fn) const {
    AnyPillarSlot(s, [&fn](std::uint32_t slot) {
      fn(slot);
      return false;
    });
  }

  /// Returns true iff `pred(slot)` holds for some pillar slot of set `s`.
  template <typename Pred>
  bool AnyPillarSlot(SetId s, Pred&& pred) const {
    const SetState& set = sets_[s];
    if (set.pillar == 0) return false;
    for (std::uint32_t slot = level_head_[set.first_level + set.pillar]; slot != kNil;
         slot = slots_[slot].next) {
      if (pred(slot)) return true;
    }
    return false;
  }

  /// Number of distinct values with positive count in set `s`.
  std::size_t DistinctCount(SetId s) const { return sets_[s].distinct; }

  /// The l-eligibility test |Q| >= l * h(Q) (Definition 2).
  bool IsEligible(SetId s, std::uint32_t l) const {
    return sets_[s].total >= static_cast<std::uint64_t>(l) * sets_[s].pillar;
  }

  /// Removes one tuple from `slot` of set `s` (its count must be positive).
  void Decrement(SetId s, std::uint32_t slot);

  /// Adds one tuple to `slot` of set `s`. Past the set's initial largest
  /// count only the last set may grow (checked).
  void Increment(SetId s, std::uint32_t slot);

  /// Dense histogram of set `s` over SA domain size `m` (must cover all
  /// tracked values).
  SaHistogram ToHistogram(SetId s, std::size_t m) const;

 private:
  static constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();

  struct Slot {
    SaValue value;
    std::uint32_t count;
    std::uint32_t prev;  // intra-level doubly linked list
    std::uint32_t next;
  };

  struct SetState {
    std::uint32_t first_slot;
    std::uint32_t first_level;  // level_head_ index of the set's level 0
    std::uint32_t pillar;       // the pillar pointer p_i
    std::uint32_t total;
    std::uint32_t distinct;
  };

  /// Makes slots [first, slot_count()) a new set and links its levels.
  void CloseSet(std::size_t first);

  void Unlink(const SetState& set, std::uint32_t slot, std::uint32_t level);
  void LinkAtLevel(const SetState& set, std::uint32_t slot, std::uint32_t level);

  std::vector<Slot> slots_;
  std::vector<SetState> sets_;
  std::vector<std::uint32_t> level_head_;  // per set: level -> first slot
};

template <typename Entries>
PillarIndex PillarIndex::Build(std::size_t set_count, const Entries& entries) {
  std::size_t slots = 0;
  std::size_t levels = 0;
  for (std::size_t k = 0; k < set_count; ++k) {
    std::uint32_t max_count = 0;
    entries(k, [&](SaValue, std::uint32_t count) {
      ++slots;
      max_count = std::max(max_count, count);
    });
    levels += std::size_t{max_count} + 1;
  }
  PillarIndex index;
  index.slots_.reserve(slots);
  index.sets_.reserve(set_count);
  index.level_head_.reserve(levels);
  for (std::size_t k = 0; k < set_count; ++k) {
    const std::size_t first = index.slots_.size();
    entries(k, [&](SaValue v, std::uint32_t count) {
      index.slots_.push_back(Slot{v, count, kNil, kNil});
    });
    index.CloseSet(first);
  }
  return index;
}

}  // namespace ldv

#endif  // LDIV_CORE_PILLAR_INDEX_H_
