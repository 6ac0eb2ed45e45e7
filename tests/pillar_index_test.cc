// Unit and differential tests for the Section 5.5 inverted-list structure,
// each driven through a one-set index (set 0).

#include "core/pillar_index.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace ldv {
namespace {

TEST(PillarIndex, SparseConstruction) {
  const std::vector<std::pair<SaValue, std::uint32_t>> entries = {{2, 3}, {5, 1}, {9, 3}};
  PillarIndex idx = PillarIndex::Build(1, [&](std::size_t, auto&& add) {
    for (const auto& [v, count] : entries) add(v, count);
  });
  EXPECT_EQ(idx.set_count(), 1u);
  EXPECT_EQ(idx.slot_count(), 3u);
  EXPECT_EQ(idx.total(0), 7u);
  EXPECT_EQ(idx.PillarHeight(0), 3u);
  EXPECT_EQ(idx.value(0), 2u);
  EXPECT_EQ(idx.CountOf(0, 5), 1u);
  EXPECT_EQ(idx.CountOf(0, 7), 0u);  // untracked
  EXPECT_EQ(idx.FindSlot(0, 9), 2);
  EXPECT_EQ(idx.FindSlot(0, 3), -1);
  std::vector<std::uint32_t> pillars;
  idx.PillarSlots(0, &pillars);
  EXPECT_EQ(pillars, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(idx.DistinctCount(0), 3u);
}

TEST(PillarIndex, DenseEmptyTracksWholeDomain) {
  PillarIndex idx = PillarIndex::DenseEmpty(4);
  EXPECT_EQ(idx.slot_count(), 4u);
  EXPECT_EQ(idx.total(0), 0u);
  EXPECT_EQ(idx.PillarHeight(0), 0u);
  idx.Increment(0, 2);  // the last set's level slice grows past its start
  idx.Increment(0, 2);
  idx.Increment(0, 0);
  EXPECT_EQ(idx.PillarHeight(0), 2u);
  EXPECT_TRUE(idx.IsPillarValue(0, 2));
  EXPECT_FALSE(idx.IsPillarValue(0, 0));
  EXPECT_FALSE(idx.IsPillarValue(0, 3));
}

TEST(PillarIndex, DecrementMovesPillarPointerDown) {
  PillarIndex idx = PillarIndex::FromHistogram(SaHistogram({4, 2, 4}));
  std::vector<std::uint32_t> pillars;
  idx.Decrement(0, 0);
  EXPECT_EQ(idx.PillarHeight(0), 4u);
  idx.PillarSlots(0, &pillars);
  EXPECT_EQ(pillars, (std::vector<std::uint32_t>{2}));
  idx.Decrement(0, 2);
  EXPECT_EQ(idx.PillarHeight(0), 3u);
  idx.PillarSlots(0, &pillars);
  std::sort(pillars.begin(), pillars.end());  // list order is insertion order
  EXPECT_EQ(pillars, (std::vector<std::uint32_t>{0, 2}));
}

TEST(PillarIndex, EligibilityMatchesDefinition) {
  PillarIndex idx = PillarIndex::FromHistogram(SaHistogram({2, 2, 2}));
  EXPECT_TRUE(idx.IsEligible(0, 3));
  idx.Decrement(0, 0);
  EXPECT_FALSE(idx.IsEligible(0, 3));
  EXPECT_TRUE(idx.IsEligible(0, 2));
}

TEST(PillarIndex, FirstPillarSlotIsSmallestSlot) {
  PillarIndex idx = PillarIndex::FromHistogram(SaHistogram({1, 3, 3, 2}));
  EXPECT_EQ(idx.FirstPillarSlot(0), 1u);
}

TEST(PillarIndexDeathTest, FirstPillarOfEmptyAborts) {
  PillarIndex idx = PillarIndex::DenseEmpty(3);
  EXPECT_DEATH(idx.FirstPillarSlot(0), "empty multiset");
}

TEST(PillarIndex, RoundTripToHistogram) {
  SaHistogram h({0, 5, 0, 2, 1});
  PillarIndex idx = PillarIndex::FromHistogram(h);
  EXPECT_EQ(idx.ToHistogram(0, 5), h);
}

TEST(PillarIndex, AnyPillarSlotShortCircuits) {
  PillarIndex idx = PillarIndex::FromHistogram(SaHistogram({3, 3, 1}));
  int visits = 0;
  bool found = idx.AnyPillarSlot(0, [&](std::uint32_t slot) {
    ++visits;
    return idx.value(slot) == 0;  // slot lists are ascending by slot id
  });
  EXPECT_TRUE(found);
  EXPECT_EQ(visits, 1);
}

// Differential test: PillarIndex must agree with a plain SaHistogram under
// a long random sequence of increments and decrements.
TEST(PillarIndex, DifferentialAgainstHistogram) {
  Rng rng(7);
  const std::size_t m = 6;
  PillarIndex idx = PillarIndex::DenseEmpty(m);
  SaHistogram ref(m);
  for (int step = 0; step < 5000; ++step) {
    SaValue v = rng.Below(m);
    bool can_remove = ref.count(v) > 0;
    if (can_remove && rng.Below(2) == 0) {
      idx.Decrement(0, v);  // dense index: slot == value
      ref.Remove(v);
    } else {
      idx.Increment(0, v);
      ref.Add(v);
    }
    ASSERT_EQ(idx.total(0), ref.total());
    ASSERT_EQ(idx.PillarHeight(0), ref.PillarHeight());
    ASSERT_EQ(idx.DistinctCount(0), ref.DistinctCount());
    for (SaValue u = 0; u < m; ++u) ASSERT_EQ(idx.CountOf(0, u), ref.count(u));
    // Pillar sets must match (list order is insertion-dependent; sort).
    std::vector<SaValue> pillars;
    idx.ForEachPillarSlot(0, [&](std::uint32_t slot) { pillars.push_back(idx.value(slot)); });
    std::sort(pillars.begin(), pillars.end());
    ASSERT_EQ(pillars, ref.Pillars());
  }
}

}  // namespace
}  // namespace ldv
