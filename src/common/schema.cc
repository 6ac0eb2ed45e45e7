#include "common/schema.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/check.h"
#include "common/mix.h"

namespace ldv {

namespace {

// The hash of a label and its length, eight bytes at a time through the
// splitmix64 finalizer; a tail of 4-7 bytes is read as two overlapping
// words, one of 1-3 bytes as its first, middle and last byte. Labels are
// short, and every cell of a raw ingest hashes one.
std::uint64_t LabelHash(std::string_view label) {
  const char* p = label.data();
  std::size_t left = label.size();
  std::uint64_t hash = left;
  for (; left >= 8; p += 8, left -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    hash = MixU64(hash ^ word);
  }
  std::uint64_t tail = 0;
  if (left >= 4) {
    std::uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + left - 4, 4);
    tail = std::uint64_t{hi} << 32 | lo;
  } else if (left > 0) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(p);
    tail = std::uint64_t{bytes[0]} << 16 | std::uint64_t{bytes[left / 2]} << 8 | bytes[left - 1];
  }
  return MixU64(hash ^ tail);
}

}  // namespace

const std::string& ValueDictionary::label(Value code) const {
  LDIV_CHECK_LT(code, labels_.size());
  return labels_[code];
}

const Value* ValueDictionary::Find(std::string_view label) const {
  if (slots_.empty()) return nullptr;
  const Slot& slot = slots_[Probe(label, LabelHash(label))];
  return slot.code == kNoCode ? nullptr : &slot.code;
}

Value ValueDictionary::GetOrAdd(std::string_view label) {
  if (2 * (labels_.size() + 1) > slots_.size()) Grow();
  const std::uint64_t hash = LabelHash(label);
  Slot& slot = slots_[Probe(label, hash)];
  if (slot.code != kNoCode) return slot.code;
  LDIV_CHECK_LT(labels_.size(), kNoCode);
  slot = {static_cast<std::uint32_t>(hash >> 32), static_cast<Value>(labels_.size())};
  labels_.emplace_back(label);
  return slot.code;
}

std::size_t ValueDictionary::Probe(std::string_view label, std::uint64_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  const std::uint32_t tag = static_cast<std::uint32_t>(hash >> 32);
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.code == kNoCode || (slot.tag == tag && labels_[slot.code] == label)) return i;
  }
}

void ValueDictionary::Grow() {
  slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), Slot{});
  for (Value code = 0; code < labels_.size(); ++code) {
    const std::uint64_t hash = LabelHash(labels_[code]);
    slots_[Probe(labels_[code], hash)] = {static_cast<std::uint32_t>(hash >> 32), code};
  }
}

Schema::Schema(std::vector<Attribute> qi_attributes, Attribute sensitive_attribute)
    : qi_attributes_(std::move(qi_attributes)), sensitive_(std::move(sensitive_attribute)) {}

const Attribute& Schema::qi(AttrId i) const {
  LDIV_CHECK_LT(i, qi_attributes_.size());
  return qi_attributes_[i];
}

bool Schema::has_dictionaries() const {
  if (sensitive_.has_dictionary()) return true;
  for (const Attribute& a : qi_attributes_) {
    if (a.has_dictionary()) return true;
  }
  return false;
}

Schema Schema::Project(const std::vector<AttrId>& qi_subset) const {
  std::vector<Attribute> kept;
  kept.reserve(qi_subset.size());
  for (AttrId i : qi_subset) {
    LDIV_CHECK_LT(i, qi_attributes_.size());
    kept.push_back(qi_attributes_[i]);
  }
  return Schema(std::move(kept), sensitive_);
}

bool Schema::Valid() const {
  if (sensitive_.domain_size == 0) return false;
  for (const Attribute& a : qi_attributes_) {
    if (a.domain_size == 0) return false;
  }
  return true;
}

std::string Schema::ToString() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < qi_attributes_.size(); ++i) {
    if (i > 0) out << ",";
    out << qi_attributes_[i].name << "(" << qi_attributes_[i].domain_size << ")";
  }
  out << "|" << sensitive_.name << "(" << sensitive_.domain_size << ")";
  return out.str();
}

bool operator==(const Schema& a, const Schema& b) {
  if (a.qi_attributes_.size() != b.qi_attributes_.size()) return false;
  for (std::size_t i = 0; i < a.qi_attributes_.size(); ++i) {
    if (a.qi_attributes_[i].name != b.qi_attributes_[i].name ||
        a.qi_attributes_[i].domain_size != b.qi_attributes_[i].domain_size) {
      return false;
    }
  }
  return a.sensitive_.name == b.sensitive_.name &&
         a.sensitive_.domain_size == b.sensitive_.domain_size;
}

}  // namespace ldv
