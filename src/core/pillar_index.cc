#include "core/pillar_index.h"

namespace ldv {

PillarIndex PillarIndex::DenseEmpty(std::size_t m) {
  return Build(1, [&](std::size_t, auto&& add) {
    for (SaValue v = 0; v < m; ++v) add(v, 0u);
  });
}

PillarIndex PillarIndex::FromHistograms(std::span<const SaHistogram> histograms) {
  return Build(histograms.size(), [&](std::size_t k, auto&& add) {
    for (SaValue v = 0; v < histograms[k].domain_size(); ++v) add(v, histograms[k].count(v));
  });
}

void PillarIndex::CloseSet(std::size_t first) {
  const std::size_t end = slots_.size();
  LDIV_CHECK_LT(end, kNil) << "slot ids must fit in 32 bits";
  std::uint64_t total = 0;
  std::uint32_t max_count = 0;
  for (std::size_t slot = first; slot < end; ++slot) {
    if (slot > first) LDIV_CHECK_LT(slots_[slot - 1].value, slots_[slot].value);
    total += slots_[slot].count;
    max_count = std::max(max_count, slots_[slot].count);
  }
  LDIV_CHECK_LT(total, kNil) << "a set's size must fit in 32 bits";
  LDIV_CHECK_LT(level_head_.size() + max_count, kNil) << "level heads must fit in 32 bits";
  SetState set{static_cast<std::uint32_t>(first), static_cast<std::uint32_t>(level_head_.size()),
               max_count, static_cast<std::uint32_t>(total), 0};
  level_head_.resize(level_head_.size() + max_count + 1, kNil);
  // Link in reverse slot order so each level list starts ascending by slot.
  for (std::size_t slot = end; slot-- > first;) {
    if (slots_[slot].count == 0) continue;
    ++set.distinct;
    LinkAtLevel(set, static_cast<std::uint32_t>(slot), slots_[slot].count);
  }
  sets_.push_back(set);
}

std::int64_t PillarIndex::FindSlot(SetId s, SaValue v) const {
  const auto begin = slots_.begin() + first_slot(s);
  const auto end = slots_.begin() + end_slot(s);
  auto it = std::lower_bound(begin, end, v,
                             [](const Slot& slot, SaValue value) { return slot.value < value; });
  if (it == end || it->value != v) return -1;
  return it - slots_.begin();
}

std::uint32_t PillarIndex::CountOf(SetId s, SaValue v) const {
  std::int64_t slot = FindSlot(s, v);
  return slot < 0 ? 0 : slots_[static_cast<std::uint32_t>(slot)].count;
}

bool PillarIndex::IsPillarValue(SetId s, SaValue v) const {
  std::int64_t slot = FindSlot(s, v);
  return slot >= 0 && IsPillarSlot(s, static_cast<std::uint32_t>(slot));
}

std::uint32_t PillarIndex::FirstPillarSlot(SetId s) const {
  const SetState& set = sets_[s];
  LDIV_CHECK_GT(set.pillar, 0u) << "empty multiset has no pillar";
  return level_head_[set.first_level + set.pillar];
}

void PillarIndex::PillarSlots(SetId s, std::vector<std::uint32_t>* slots) const {
  slots->clear();
  ForEachPillarSlot(s, [slots](std::uint32_t slot) { slots->push_back(slot); });
}

void PillarIndex::Unlink(const SetState& set, std::uint32_t slot, std::uint32_t level) {
  Slot& node = slots_[slot];
  if (node.prev != kNil) {
    slots_[node.prev].next = node.next;
  } else {
    level_head_[set.first_level + level] = node.next;
  }
  if (node.next != kNil) slots_[node.next].prev = node.prev;
  node.prev = kNil;
  node.next = kNil;
}

void PillarIndex::LinkAtLevel(const SetState& set, std::uint32_t slot, std::uint32_t level) {
  std::uint32_t& head = level_head_[set.first_level + level];
  Slot& node = slots_[slot];
  node.prev = kNil;
  node.next = head;
  if (head != kNil) slots_[head].prev = slot;
  head = slot;
}

void PillarIndex::Decrement(SetId s, std::uint32_t slot) {
  SetState& set = sets_[s];
  const std::uint32_t c = slots_[slot].count;
  LDIV_CHECK_GT(c, 0u);
  Unlink(set, slot, c);
  slots_[slot].count = c - 1;
  --set.total;
  if (c - 1 > 0) {
    LinkAtLevel(set, slot, c - 1);
  } else {
    --set.distinct;
  }
  // The pillar pointer only moves down on removals; across the lifetime of a
  // QI-group this costs O(initial height) in total, i.e. amortized O(1) per
  // operation (Section 5.5).
  while (set.pillar > 0 && level_head_[set.first_level + set.pillar] == kNil) --set.pillar;
}

void PillarIndex::Increment(SetId s, std::uint32_t slot) {
  SetState& set = sets_[s];
  const std::uint32_t c = slots_[slot].count;
  if (c > 0) {
    Unlink(set, slot, c);
  } else {
    ++set.distinct;
  }
  slots_[slot].count = c + 1;
  ++set.total;
  const std::size_t head = set.first_level + std::size_t{c} + 1;
  if (s + 1 == sets_.size()) {
    if (head >= level_head_.size()) level_head_.resize(head + 1, kNil);
  } else {
    LDIV_CHECK_LT(head, sets_[s + 1].first_level) << "only the last set can grow past its slice";
  }
  LinkAtLevel(set, slot, c + 1);
  set.pillar = std::max(set.pillar, c + 1);
}

SaHistogram PillarIndex::ToHistogram(SetId s, std::size_t m) const {
  SaHistogram h(m);
  for (std::uint32_t slot = first_slot(s); slot < end_slot(s); ++slot) {
    if (slots_[slot].count > 0) {
      LDIV_CHECK_LT(slots_[slot].value, m);
      h.Add(slots_[slot].value, slots_[slot].count);
    }
  }
  return h;
}

}  // namespace ldv
