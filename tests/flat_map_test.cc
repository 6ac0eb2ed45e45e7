// Unit tests for the open-addressing FlatMap / FlatSet, the frozen
// WindowTable and the Workspace buffer pools backing the allocation-lean
// hot paths.

#include "common/flat_map.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/workspace.h"

namespace ldv {
namespace {

TEST(FlatMap, EmptyMapFindsNothing) {
  FlatMap<std::uint32_t> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_EQ(map.Find(42), nullptr);
}

TEST(FlatMap, InsertFindAndUpdate) {
  FlatMap<std::uint32_t> map;
  auto [v1, inserted1] = map.TryEmplace(7, 100);
  EXPECT_TRUE(inserted1);
  EXPECT_EQ(*v1, 100u);
  auto [v2, inserted2] = map.TryEmplace(7, 200);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*v2, 100u);  // first value wins
  *v2 = 300;
  EXPECT_EQ(*map.Find(7), 300u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, ExtremeKeysAreOrdinary) {
  // 0 and ~0 are valid keys (occupancy is tracked separately, not via a
  // sentinel key).
  FlatMap<double> map;
  map[0] = 1.5;
  map[~std::uint64_t{0}] = 2.5;
  EXPECT_EQ(map.size(), 2u);
  EXPECT_DOUBLE_EQ(*map.Find(0), 1.5);
  EXPECT_DOUBLE_EQ(*map.Find(~std::uint64_t{0}), 2.5);
}

TEST(FlatMap, OperatorBracketAccumulates) {
  FlatMap<double> map;
  for (int i = 0; i < 10; ++i) map[3] += 0.5;
  EXPECT_DOUBLE_EQ(*map.Find(3), 5.0);
}

TEST(FlatMap, MatchesUnorderedMapUnderRandomChurn) {
  Rng rng(99);
  FlatMap<std::uint32_t> map;
  std::unordered_map<std::uint64_t, std::uint32_t> reference;
  for (int i = 0; i < 20000; ++i) {
    // Structured keys (multiples of a large stride) exercise the mixer.
    std::uint64_t key = static_cast<std::uint64_t>(rng.Below(4096)) * 0x10000001ULL;
    std::uint32_t value = rng.Below(1000);
    auto [slot, inserted] = map.TryEmplace(key, value);
    auto [it, ref_inserted] = reference.try_emplace(key, value);
    EXPECT_EQ(inserted, ref_inserted);
    EXPECT_EQ(*slot, it->second);
  }
  EXPECT_EQ(map.size(), reference.size());
  for (const auto& [key, value] : reference) {
    ASSERT_NE(map.Find(key), nullptr);
    EXPECT_EQ(*map.Find(key), value);
  }
  // ForEach visits every entry exactly once.
  std::size_t visited = 0;
  map.ForEach([&](std::uint64_t key, std::uint32_t value) {
    ++visited;
    EXPECT_EQ(reference.at(key), value);
  });
  EXPECT_EQ(visited, reference.size());
}

TEST(FlatMap, ClearKeepsCapacityAndWorks) {
  FlatMap<std::uint32_t> map;
  for (std::uint64_t k = 0; k < 1000; ++k) map[k] = static_cast<std::uint32_t>(k);
  std::size_t capacity = map.capacity();
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(map.Find(5), nullptr);
  for (std::uint64_t k = 0; k < 1000; ++k) map[k] = 1;
  EXPECT_EQ(map.size(), 1000u);
  EXPECT_EQ(map.capacity(), capacity);  // no regrowth needed
}

TEST(FlatMap, ReservePreventsRehash) {
  FlatMap<std::uint32_t> map(10000);
  std::size_t capacity = map.capacity();
  for (std::uint64_t k = 0; k < 10000; ++k) map[k] = 0;
  EXPECT_EQ(map.capacity(), capacity);
}

TEST(FlatSet, InsertAndContains) {
  FlatSet set;
  EXPECT_FALSE(set.Contains(11));
  EXPECT_TRUE(set.Insert(11));
  EXPECT_FALSE(set.Insert(11));
  EXPECT_TRUE(set.Contains(11));
  EXPECT_FALSE(set.Contains(12));
  EXPECT_EQ(set.size(), 1u);
}

std::uint64_t BitsOf(double value) { return std::bit_cast<std::uint64_t>(value); }

// The first `count` keys, counting up from 0, whose home among `slots`
// home slots is `home`.
std::vector<std::uint64_t> KeysWithHome(std::size_t count, std::size_t slots, std::size_t home) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; keys.size() < count; ++k) {
    if ((MixU64(k) & (slots - 1)) == home) keys.push_back(k);
  }
  return keys;
}

TEST(WindowTable, EveryKeyReturnsItsExactValueBits) {
  Rng rng(101);
  FlatMap<double> map;
  for (int i = 0; i < 5000; ++i) map[rng.Next64() >> 1] = rng.NextDouble() * 1000.0 - 500.0;
  map[12345] = -0.0;  // bits, not values: -0.0 must not come back as +0.0
  const WindowTable table(map);
  EXPECT_EQ(table.size(), map.size());
  EXPECT_LE(2 * table.size(), table.capacity());  // load <= 1/2
  map.ForEach([&](std::uint64_t key, double value) {
    EXPECT_EQ(table.Bits(key), BitsOf(value)) << "key " << key;
  });
}

TEST(WindowTable, AbsentKeysSelectZero) {
  FlatMap<double> map;
  for (std::uint64_t k = 0; k < 2000; k += 2) map[k] = 1.0 + static_cast<double>(k);
  const WindowTable table(map);
  for (std::uint64_t k = 1; k < 2000; k += 2) EXPECT_EQ(table.Bits(k), 0u) << "key " << k;
  // The empty-slot key matches only empty slots, whose bits are 0.
  EXPECT_EQ(table.Bits(WindowTable::kEmptyKey), 0u);
}

TEST(WindowTable, EightKeysSharingAHomeFitTheWindow) {
  // Eight keys take 16 home slots at load 1/2. Sharing the last home,
  // they fill its window exactly, through the padding past the home
  // slots, so the table keeps its first capacity.
  const std::vector<std::uint64_t> keys = KeysWithHome(8, 16, 15);
  FlatMap<double> map;
  for (std::size_t i = 0; i < keys.size(); ++i) map[keys[i]] = 0.25 + static_cast<double>(i);
  const WindowTable table(map);
  EXPECT_EQ(table.capacity(), 16u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table.Bits(keys[i]), BitsOf(0.25 + static_cast<double>(i))) << "key " << i;
  }
}

TEST(WindowTable, NineKeysSharingAHomeForceGrowth) {
  // Nine keys fit 32 home slots at load 1/2, but nine keys with one home
  // cannot all lie within 8 slots of it: the slots must double.
  const std::vector<std::uint64_t> keys = KeysWithHome(9, 32, 5);
  FlatMap<double> map;
  for (std::size_t i = 0; i < keys.size(); ++i) map[keys[i]] = 0.5 + static_cast<double>(i);
  const WindowTable table(map);
  EXPECT_GT(table.capacity(), 32u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table.Bits(keys[i]), BitsOf(0.5 + static_cast<double>(i))) << "key " << i;
  }
}

TEST(WindowTable, LargeStructuredTableFindsEveryKey) {
  // Structured keys (a mixed-radix packing, like the KL projections) at
  // the largest bucket sizes the estimator builds. Near load 1/2 a key
  // can land 8 or more slots out, so a table this size may take the
  // doubling path; either way every key must come back exactly.
  FlatMap<double> map;
  for (std::uint64_t k = 0; k < 250000; ++k) {
    map[(k % 79) + 79 * 50 * (k / 79)] = static_cast<double>(k) + 0.5;
  }
  const WindowTable table(map);
  EXPECT_GE(table.capacity(), std::size_t{1} << 19);  // 2 * 250000 rounded up
  map.ForEach([&](std::uint64_t key, double value) {
    ASSERT_EQ(table.Bits(key), BitsOf(value)) << "key " << key;
  });
  for (std::uint64_t k = 0; k < 10000; ++k) EXPECT_EQ(table.Bits(79 + 79 * 50 * k), 0u);
}

TEST(WindowTable, OneEntryAndEmptyTables) {
  FlatMap<double> map;
  map[42] = 3.25;
  const WindowTable one(map);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(one.capacity(), 2u);
  EXPECT_EQ(one.Bits(42), BitsOf(3.25));
  EXPECT_EQ(one.Bits(0), 0u);
  EXPECT_EQ(one.Bits(43), 0u);
  for (const WindowTable& empty : {WindowTable(), WindowTable(FlatMap<double>())}) {
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_EQ(empty.capacity(), 1u);
    EXPECT_EQ(empty.Bits(42), 0u);
  }
}

TEST(WindowTableDeathTest, EmptySlotKeyIsRejected) {
  FlatMap<double> map;
  map[1] = 1.0;
  map[WindowTable::kEmptyKey] = 2.0;
  EXPECT_DEATH(WindowTable{map}, "CHECK failed");
}

TEST(Workspace, BuffersAreRecycledWithCapacity) {
  Workspace ws;
  std::uint32_t* data = nullptr;
  {
    auto buffer = ws.U32();
    buffer->resize(4096);
    data = buffer->data();
  }  // released back to the pool
  EXPECT_EQ(ws.u32_pool().idle(), 1u);
  {
    auto buffer = ws.U32();
    EXPECT_TRUE(buffer->empty());            // handed out cleared...
    EXPECT_GE(buffer->capacity(), 4096u);    // ...but with its capacity
    EXPECT_EQ(buffer->data(), data);         // and the same storage
    EXPECT_EQ(ws.u32_pool().idle(), 0u);
  }
  EXPECT_EQ(ws.u32_pool().idle(), 1u);
}

TEST(Workspace, NestedAcquisitionsGetDistinctBuffers) {
  Workspace ws;
  auto a = ws.U32();
  auto b = ws.U32();
  a->push_back(1);
  b->push_back(2);
  EXPECT_NE(a->data(), b->data());
  auto c = ws.U64();
  c->push_back(3);
  EXPECT_EQ((*a)[0], 1u);
  EXPECT_EQ((*b)[0], 2u);
}

TEST(Workspace, MoveTransfersOwnership) {
  Workspace ws;
  {
    ScratchVec<std::uint32_t> a = ws.U32();
    a->resize(16);
    ScratchVec<std::uint32_t> b = std::move(a);
    EXPECT_EQ(b->size(), 16u);
  }  // exactly one release
  EXPECT_EQ(ws.u32_pool().idle(), 1u);
}

}  // namespace
}  // namespace ldv
