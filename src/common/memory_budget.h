#ifndef LDIV_COMMON_MEMORY_BUDGET_H_
#define LDIV_COMMON_MEMORY_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace ldv {

/// Byte-accounting object shared by the paged data plane: the paged
/// columns' staging pages, the external sorter, and the budget-aware
/// kernel paths all charge their resident buffers here so one number
/// bounds the engine's working set.
/// A total of 0 means "unlimited" (the in-RAM fast path); accounting is
/// advisory -- Charge never fails -- and callers size their structures via
/// remaining() BEFORE allocating, so the budget steers allocation sizes
/// rather than aborting mid-run.
class MemoryBudget {
 public:
  /// `total_bytes` == 0 builds an unlimited budget.
  explicit MemoryBudget(std::uint64_t total_bytes = 0) : total_(total_bytes) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  bool unlimited() const { return total_ == 0; }
  std::uint64_t total() const { return total_; }
  std::uint64_t used() const { return used_.load(std::memory_order_relaxed); }

  /// High-water mark of used() over the budget's lifetime.
  std::uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }

  /// total() - used(), saturating at 0. Unlimited budgets report a huge
  /// remainder so size derivations (`remaining() / page_bytes`) stay sane.
  std::uint64_t remaining() const;

  /// True if charging `bytes` would keep used() within total(). Always
  /// true for unlimited budgets.
  bool WouldFit(std::uint64_t bytes) const;

  /// Records `bytes` of resident memory. Never fails: the budget is a
  /// sizing signal, not a hard allocator, and transient overshoot (e.g.
  /// a merge heap plus the last run buffer) is visible through peak().
  void Charge(std::uint64_t bytes);

  /// Returns `bytes` previously charged.
  void Release(std::uint64_t bytes);

  /// Bytes charged and not yet released, summed over every MemoryBudget
  /// in the process -- the leak probe for per-run budgets, the memory twin
  /// of SpillFile::LiveCount().
  static std::uint64_t OutstandingBytes();

 private:
  std::uint64_t total_ = 0;
  std::atomic<std::uint64_t> used_{0};
  std::atomic<std::uint64_t> peak_{0};
};

/// RAII charge against a budget; `budget` may be null (no-op) so call
/// sites stay unconditional. Movable so owners can store reservations.
/// The reservation shares ownership of its budget, so a charge always
/// releases into the object it was taken from, however long its owner
/// (e.g. a caller-held paged table) outlives the run that made it.
class MemoryReservation {
 public:
  MemoryReservation() = default;
  MemoryReservation(std::shared_ptr<MemoryBudget> budget, std::uint64_t bytes);
  ~MemoryReservation();

  MemoryReservation(MemoryReservation&& other) noexcept;
  MemoryReservation& operator=(MemoryReservation&& other) noexcept;
  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;

  std::uint64_t bytes() const { return bytes_; }

  /// Grows or shrinks the reservation to `bytes` in place.
  void Resize(std::uint64_t bytes);

  /// Returns the charge now instead of at destruction.
  void Reset();

 private:
  std::shared_ptr<MemoryBudget> budget_;
  std::uint64_t bytes_ = 0;
};

/// The process-default memory budget, the memory twin of SetThreadBudget.
/// It is only the default for callers that pass no context: each engine
/// run builds its own MemoryBudget and carries it in its Workspace, and a
/// default-constructed Workspace falls back to this one. 0 means
/// unlimited -- all paths take the exact in-RAM code. Setting a new total
/// replaces the object (used and peak start at 0); the previous one stays
/// alive as long as any reservation or paged structure still shares
/// ownership of it, so charges always release where they were taken.
void SetMemoryBudget(std::uint64_t total_bytes);

/// The configured default total in bytes; 0 when unlimited.
std::uint64_t MemoryBudgetBytes();

/// The process-default accounting object. Its total() matches
/// MemoryBudgetBytes().
MemoryBudget& GlobalMemoryBudget();

/// Shared ownership of the process-default budget, for holders of a
/// charge that may outlive a later SetMemoryBudget.
std::shared_ptr<MemoryBudget> GlobalMemoryBudgetShared();

/// Parses a human byte size: a non-negative integer with an optional
/// K/M/G/T suffix (binary multiples, case-insensitive, optional trailing
/// "B" or "iB" as in "512MiB"). Returns false and fills `error` on bad
/// syntax or overflow. "0" parses to 0 (= unlimited).
bool ParseByteSize(std::string_view text, std::uint64_t* bytes, std::string* error);

/// Formats bytes compactly for messages: exact binary multiples print
/// with their suffix ("512M", "4G"), everything else as plain bytes.
std::string FormatByteSize(std::uint64_t bytes);

}  // namespace ldv

#endif  // LDIV_COMMON_MEMORY_BUDGET_H_
