#ifndef LDIV_COMMON_SCHEMA_H_
#define LDIV_COMMON_SCHEMA_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace ldv {

/// Insertion-ordered label <-> code mapping for one categorical attribute.
/// Raw (string-valued) CSV ingestion builds one per column: the first
/// distinct label becomes code 0, the next code 1, and so on, so the
/// dictionary doubles as the attribute domain. An empty dictionary means
/// the attribute is natively integer-coded (the seed's only mode) and
/// values print as their codes. Labels are indexed by one flat
/// open-addressing array of (hash, code) slots, checked against the
/// label itself on a hash match.
class ValueDictionary {
 public:
  ValueDictionary() = default;

  bool empty() const { return labels_.empty(); }
  std::size_t size() const { return labels_.size(); }

  /// The label of `code`. `code` must be a valid dictionary code.
  const std::string& label(Value code) const;

  /// The code of `label`, or nullptr if the label has never been added.
  /// The pointer is valid until the next GetOrAdd.
  const Value* Find(std::string_view label) const;

  /// Returns the code of `label`, adding it (insertion-ordered) on first
  /// sight. Ingestion builds dictionaries through this single entry point.
  Value GetOrAdd(std::string_view label);

  /// Dictionaries are equal when they map the same codes to the same
  /// labels in the same order.
  friend bool operator==(const ValueDictionary& a, const ValueDictionary& b) {
    return a.labels_ == b.labels_;
  }

 private:
  // One slot of the label index: the high half of the label's hash, and
  // its code (kNoCode in a free slot).
  struct Slot {
    std::uint32_t tag = 0;
    Value code = kNoCode;
  };
  static constexpr Value kNoCode = ~Value{0};

  // The slot holding `label`, or the free slot where it belongs.
  std::size_t Probe(std::string_view label, std::uint64_t hash) const;

  // Doubles the index (at least 16 slots) and re-inserts every label.
  void Grow();

  std::vector<std::string> labels_;  // code -> label, insertion-ordered
  std::vector<Slot> slots_;          // power-of-two size, at most half full
};

/// Description of one categorical attribute: its name and domain size.
/// Values of the attribute are integer codes in [0, domain_size). When the
/// attribute was ingested from a raw (string-valued) CSV, `dictionary`
/// carries the label of every code so releases can be decoded back to
/// human-readable form; for natively coded data it stays empty.
struct Attribute {
  std::string name;
  std::size_t domain_size = 0;
  ValueDictionary dictionary;

  Attribute() = default;
  Attribute(std::string name, std::size_t domain_size)
      : name(std::move(name)), domain_size(domain_size) {}
  Attribute(std::string name, std::size_t domain_size, ValueDictionary dictionary)
      : name(std::move(name)), domain_size(domain_size), dictionary(std::move(dictionary)) {}

  bool has_dictionary() const { return !dictionary.empty(); }
};

/// Schema of a microdata table (Section 3): d quasi-identifier attributes
/// A_1..A_d plus one sensitive attribute B. All attributes are categorical.
class Schema {
 public:
  Schema() = default;

  /// Builds a schema from QI attribute descriptions and the SA description.
  Schema(std::vector<Attribute> qi_attributes, Attribute sensitive_attribute);

  /// Number of QI attributes (the paper's dimensionality d).
  std::size_t qi_count() const { return qi_attributes_.size(); }

  /// The i-th QI attribute (0-based).
  const Attribute& qi(AttrId i) const;

  /// The sensitive attribute B.
  const Attribute& sensitive() const { return sensitive_; }

  /// Domain size m of the sensitive attribute.
  std::size_t sa_domain_size() const { return sensitive_.domain_size; }

  /// True if any attribute (QI or SA) carries a value dictionary, i.e. the
  /// table was ingested from a raw string-valued CSV.
  bool has_dictionaries() const;

  /// Returns a new schema keeping only the QI attributes listed in
  /// `qi_subset` (in the given order). The SA attribute is always kept.
  /// This models the paper's SAL-d / OCC-d projection workloads.
  /// Dictionaries travel with their attributes.
  Schema Project(const std::vector<AttrId>& qi_subset) const;

  /// True if every QI domain size and the SA domain size are positive.
  bool Valid() const;

  /// Human-readable one-line description, e.g. "Age(79),Gender(2)|Income(50)".
  std::string ToString() const;

  /// Equality compares attribute names and domain sizes; dictionaries are
  /// data payload, not schema identity (two loads of the same raw CSV
  /// compare equal even though each rebuilt its dictionaries).
  friend bool operator==(const Schema& a, const Schema& b);

 private:
  std::vector<Attribute> qi_attributes_;
  Attribute sensitive_;
};

bool operator==(const Schema& a, const Schema& b);

}  // namespace ldv

#endif  // LDIV_COMMON_SCHEMA_H_
