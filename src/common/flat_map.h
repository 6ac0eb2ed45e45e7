#ifndef LDIV_COMMON_FLAT_MAP_H_
#define LDIV_COMMON_FLAT_MAP_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mix.h"

namespace ldv {

/// Open-addressing hash map from 64-bit keys to small trivially-copyable
/// values, built for the packed-point and packed-cell accumulation loops of
/// the KL estimators and for QI-signature indexing. Compared with
/// std::unordered_map it stores everything in three flat arrays (keys,
/// values, one occupancy byte per slot), probes linearly, and never
/// allocates per node -- a lookup touches one or two cache lines instead of
/// chasing a bucket list. Clear() keeps the capacity so a map owned by a
/// Workspace is allocation-free across solves.
///
/// Keys are arbitrary 64-bit values (0 and ~0 included); occupancy is
/// tracked in a separate byte array rather than via a reserved sentinel key.
/// There is no erase: the hot paths only ever build and probe.
template <typename V>
class FlatMap {
 public:
  FlatMap() = default;

  /// A map pre-sized for `expected` insertions.
  explicit FlatMap(std::size_t expected) { Reserve(expected); }

  /// Number of keys present.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Number of slots currently allocated.
  std::size_t capacity() const { return keys_.size(); }

  /// Grows the backing arrays so `expected` insertions fit without rehash.
  void Reserve(std::size_t expected) {
    std::size_t needed = SlotsFor(expected);
    if (needed > keys_.size()) Rehash(needed);
  }

  /// Forgets every key but keeps the allocated capacity.
  void Clear() {
    if (size_ == 0) return;
    std::fill(used_.begin(), used_.end(), std::uint8_t{0});
    size_ = 0;
  }

  /// Pointer to the value of `key`, or nullptr when absent.
  V* Find(std::uint64_t key) {
    if (keys_.empty()) return nullptr;
    std::size_t i = Mix(key) & mask_;
    while (used_[i]) {
      if (keys_[i] == key) return &vals_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  const V* Find(std::uint64_t key) const {
    return const_cast<FlatMap*>(this)->Find(key);
  }

  /// Inserts (key, value) if the key is absent. Returns the slot's value
  /// pointer and whether an insertion happened (mirroring try_emplace).
  std::pair<V*, bool> TryEmplace(std::uint64_t key, V value) {
    if (ShouldGrow()) Rehash(keys_.empty() ? kMinSlots : keys_.size() * 2);
    std::size_t i = Mix(key) & mask_;
    while (used_[i]) {
      if (keys_[i] == key) return {&vals_[i], false};
      i = (i + 1) & mask_;
    }
    used_[i] = 1;
    keys_[i] = key;
    vals_[i] = value;
    ++size_;
    return {&vals_[i], true};
  }

  /// The value of `key`, default-inserted when absent.
  V& operator[](std::uint64_t key) { return *TryEmplace(key, V{}).first; }

  /// Calls `fn(key, value)` for every entry, in slot order (deterministic
  /// for a given insertion sequence and capacity).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (used_[i]) fn(keys_[i], vals_[i]);
    }
  }

 private:
  static constexpr std::size_t kMinSlots = 16;

  // Slots are kept at most 7/8 full; capacity is always a power of two.
  static std::size_t SlotsFor(std::size_t entries) {
    std::size_t slots = kMinSlots;
    while (slots - slots / 8 < entries) slots <<= 1;
    return slots;
  }

  bool ShouldGrow() const {
    return keys_.empty() || size_ + 1 > keys_.size() - keys_.size() / 8;
  }

  static std::uint64_t Mix(std::uint64_t x) { return MixU64(x); }

  void Rehash(std::size_t new_slots) {
    LDIV_CHECK((new_slots & (new_slots - 1)) == 0);
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_vals = std::move(vals_);
    std::vector<std::uint8_t> old_used = std::move(used_);
    keys_.assign(new_slots, 0);
    vals_.assign(new_slots, V{});
    used_.assign(new_slots, 0);
    mask_ = new_slots - 1;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (!old_used[i]) continue;
      std::size_t j = Mix(old_keys[i]) & mask_;
      while (used_[j]) j = (j + 1) & mask_;
      used_[j] = 1;
      keys_[j] = old_keys[i];
      vals_[j] = old_vals[i];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<V> vals_;
  std::vector<std::uint8_t> used_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Read-only table frozen from a finished FlatMap<double>, for lookups
/// with no data-dependent branch: every key lies within kWindow slots of
/// its home MixU64(key) & slot_mask(), so a lookup compares all kWindow
/// keys of that window and ORs the value bits of the one that matches
/// (Select). The suppression KL estimator probes its mask buckets through
/// simd::WindowProbeAdd, which makes the same select.
///
/// Layout: keys and the values' bit patterns in two flat arrays of
/// capacity() + kWindow slots -- a power of two at load <= 1/2, plus
/// padding so a window never wraps. Empty slots hold key kEmptyKey and
/// bits 0, so a miss selects 0 (+0.0 read as a double); kEmptyKey itself
/// cannot be stored. Placement is Robin Hood from the home, without
/// wrap-around, which keeps every run of slots in home order; when some
/// key would land kWindow or more slots past its home, the slots double
/// and the table is placed again. At load <= 1/2 that is rare: the
/// farthest key sits 5-7 slots out for 1k-100k random keys, and only
/// tables of a few hundred thousand keys near load 1/2 reach 8.
class WindowTable {
 public:
  /// Slots a lookup reads, starting at the key's home.
  static constexpr std::size_t kWindow = 8;
  /// Key of an empty slot.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  /// An empty table: every lookup selects 0.
  WindowTable() : keys_(1 + kWindow, kEmptyKey), bits_(1 + kWindow, 0) {}

  /// Freezes every (key, value) of `map`. CHECKs that no key is kEmptyKey.
  explicit WindowTable(const FlatMap<double>& map) : size_(map.size()) {
    std::size_t slots = 1;
    while (slots < 2 * map.size()) slots <<= 1;
    while (!TryPlace(map, slots)) slots <<= 1;
  }

  /// Number of keys stored.
  std::size_t size() const { return size_; }

  /// Number of home slots (a power of two); the arrays hold kWindow more.
  std::size_t capacity() const { return mask_ + 1; }

  std::uint64_t slot_mask() const { return mask_; }
  const std::uint64_t* keys() const { return keys_.data(); }
  const std::uint64_t* bits() const { return bits_.data(); }

  /// The value bits of `key`, or 0 when absent.
  std::uint64_t Bits(std::uint64_t key) const {
    const std::size_t home = MixU64(key) & mask_;
    return Select(keys_.data() + home, bits_.data() + home, key);
  }

  /// The bits of the slot among keys[0, kWindow) that holds `key`, or 0:
  /// each slot's bits masked by its key compare, ORed together.
  static std::uint64_t Select(const std::uint64_t* keys, const std::uint64_t* bits,
                              std::uint64_t key) {
    std::uint64_t hit = 0;
    for (std::size_t j = 0; j < kWindow; ++j) {
      hit |= bits[j] & (std::uint64_t{0} - std::uint64_t{keys[j] == key});
    }
    return hit;
  }

 private:
  // Places every entry of `map` over `slots` home slots; false when some
  // key would land kWindow or more slots past its home.
  bool TryPlace(const FlatMap<double>& map, std::size_t slots) {
    keys_.assign(slots + kWindow, kEmptyKey);
    bits_.assign(slots + kWindow, 0);
    mask_ = slots - 1;
    bool placed = true;
    map.ForEach([&](std::uint64_t key, double value) {
      LDIV_CHECK_NE(key, kEmptyKey) << "is reserved for empty window-table slots";
      if (placed) placed = Place(key, std::bit_cast<std::uint64_t>(value));
    });
    return placed;
  }

  // Robin Hood insertion without wrap-around: a key that meets a resident
  // whose home lies later (a resident nearer its home) takes that slot
  // and carries the resident on.
  bool Place(std::uint64_t key, std::uint64_t bits) {
    std::size_t home = MixU64(key) & mask_;
    for (std::size_t s = home; s - home < kWindow; ++s) {
      if (keys_[s] == kEmptyKey) {
        keys_[s] = key;
        bits_[s] = bits;
        return true;
      }
      const std::size_t resident_home = MixU64(keys_[s]) & mask_;
      if (resident_home > home) {
        std::swap(key, keys_[s]);
        std::swap(bits, bits_[s]);
        home = resident_home;
      }
    }
    return false;
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> bits_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Companion set of 64-bit keys with the same layout and probing scheme.
class FlatSet {
 public:
  FlatSet() = default;
  explicit FlatSet(std::size_t expected) : map_(expected) {}

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void Reserve(std::size_t expected) { map_.Reserve(expected); }
  void Clear() { map_.Clear(); }

  /// Inserts `key`; returns true iff it was absent.
  bool Insert(std::uint64_t key) { return map_.TryEmplace(key, 0).second; }

  bool Contains(std::uint64_t key) const { return map_.Find(key) != nullptr; }

 private:
  FlatMap<std::uint8_t> map_;
};

}  // namespace ldv

#endif  // LDIV_COMMON_FLAT_MAP_H_
