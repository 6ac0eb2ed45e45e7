#include "common/memory_budget.h"

#include <limits>
#include <memory>
#include <mutex>

#include "common/check.h"

namespace ldv {

namespace {

std::atomic<std::uint64_t> g_outstanding_bytes{0};

}  // namespace

std::uint64_t MemoryBudget::OutstandingBytes() {
  return g_outstanding_bytes.load(std::memory_order_relaxed);
}

std::uint64_t MemoryBudget::remaining() const {
  if (unlimited()) return std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t u = used();
  return u >= total_ ? 0 : total_ - u;
}

bool MemoryBudget::WouldFit(std::uint64_t bytes) const {
  if (unlimited()) return true;
  const std::uint64_t u = used();
  return u <= total_ && bytes <= total_ - u;
}

void MemoryBudget::Charge(std::uint64_t bytes) {
  if (bytes == 0) return;
  g_outstanding_bytes.fetch_add(bytes, std::memory_order_relaxed);
  const std::uint64_t now = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::uint64_t seen = peak_.load(std::memory_order_relaxed);
  while (now > seen && !peak_.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
  }
}

void MemoryBudget::Release(std::uint64_t bytes) {
  if (bytes == 0) return;
  LDIV_CHECK_LE(bytes, used()) << "memory budget release exceeds charges";
  used_.fetch_sub(bytes, std::memory_order_relaxed);
  g_outstanding_bytes.fetch_sub(bytes, std::memory_order_relaxed);
}

MemoryReservation::MemoryReservation(std::shared_ptr<MemoryBudget> budget, std::uint64_t bytes)
    : budget_(std::move(budget)), bytes_(bytes) {
  if (budget_ != nullptr) budget_->Charge(bytes_);
}

MemoryReservation::~MemoryReservation() { Reset(); }

MemoryReservation::MemoryReservation(MemoryReservation&& other) noexcept
    : budget_(std::move(other.budget_)), bytes_(other.bytes_) {
  other.budget_ = nullptr;
  other.bytes_ = 0;
}

MemoryReservation& MemoryReservation::operator=(MemoryReservation&& other) noexcept {
  if (this != &other) {
    Reset();
    budget_ = std::move(other.budget_);
    bytes_ = other.bytes_;
    other.budget_ = nullptr;
    other.bytes_ = 0;
  }
  return *this;
}

void MemoryReservation::Resize(std::uint64_t bytes) {
  if (budget_ != nullptr) {
    if (bytes > bytes_) budget_->Charge(bytes - bytes_);
    if (bytes < bytes_) budget_->Release(bytes_ - bytes);
  }
  bytes_ = bytes;
}

void MemoryReservation::Reset() {
  if (budget_ != nullptr && bytes_ > 0) budget_->Release(bytes_);
  bytes_ = 0;
}

namespace {

std::mutex g_budget_mutex;
std::shared_ptr<MemoryBudget> g_budget;  // null until first use (= unlimited)

}  // namespace

void SetMemoryBudget(std::uint64_t total_bytes) {
  std::lock_guard<std::mutex> lock(g_budget_mutex);
  // Holders of the old shared_ptr keep it alive and release their charges
  // into it, so its accounting stays balanced.
  g_budget = std::make_shared<MemoryBudget>(total_bytes);
}

std::uint64_t MemoryBudgetBytes() {
  std::lock_guard<std::mutex> lock(g_budget_mutex);
  return g_budget == nullptr ? 0 : g_budget->total();
}

MemoryBudget& GlobalMemoryBudget() { return *GlobalMemoryBudgetShared(); }

std::shared_ptr<MemoryBudget> GlobalMemoryBudgetShared() {
  std::lock_guard<std::mutex> lock(g_budget_mutex);
  if (g_budget == nullptr) g_budget = std::make_shared<MemoryBudget>(0);
  return g_budget;
}

bool ParseByteSize(std::string_view text, std::uint64_t* bytes, std::string* error) {
  const auto fail = [&](std::string_view reason) {
    if (error != nullptr) *error = std::string(reason) + ": '" + std::string(text) + "'";
    return false;
  };
  std::string_view rest = text;
  if (rest.empty()) return fail("empty byte size");
  std::uint64_t value = 0;
  std::size_t digits = 0;
  while (!rest.empty() && rest.front() >= '0' && rest.front() <= '9') {
    const std::uint64_t digit = static_cast<std::uint64_t>(rest.front() - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return fail("byte size overflows");
    }
    value = value * 10 + digit;
    rest.remove_prefix(1);
    ++digits;
  }
  if (digits == 0) return fail("byte size must start with a digit");
  std::uint64_t multiplier = 1;
  // A leading 'b'/'B' is the plain-bytes spelling ("100B"), handled by the
  // shared strip below; anything else here must be a binary multiplier.
  if (!rest.empty() && rest.front() != 'b' && rest.front() != 'B') {
    switch (rest.front()) {
      case 'k':
      case 'K':
        multiplier = 1ull << 10;
        break;
      case 'm':
      case 'M':
        multiplier = 1ull << 20;
        break;
      case 'g':
      case 'G':
        multiplier = 1ull << 30;
        break;
      case 't':
      case 'T':
        multiplier = 1ull << 40;
        break;
      default:
        return fail("unknown byte-size suffix");
    }
    rest.remove_prefix(1);
    if (!rest.empty() && (rest.front() == 'i' || rest.front() == 'I')) rest.remove_prefix(1);
  }
  if (!rest.empty() && (rest.front() == 'b' || rest.front() == 'B')) rest.remove_prefix(1);
  if (!rest.empty()) return fail("trailing characters in byte size");
  if (multiplier > 1 && value > std::numeric_limits<std::uint64_t>::max() / multiplier) {
    return fail("byte size overflows");
  }
  *bytes = value * multiplier;
  return true;
}

std::string FormatByteSize(std::uint64_t bytes) {
  static constexpr struct {
    std::uint64_t unit;
    char suffix;
  } kUnits[] = {{1ull << 40, 'T'}, {1ull << 30, 'G'}, {1ull << 20, 'M'}, {1ull << 10, 'K'}};
  for (const auto& u : kUnits) {
    if (bytes >= u.unit && bytes % u.unit == 0) {
      return std::to_string(bytes / u.unit) + u.suffix;
    }
  }
  return std::to_string(bytes);
}

}  // namespace ldv
