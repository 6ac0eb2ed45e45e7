#ifndef LDIV_TESTS_TEST_UTIL_H_
#define LDIV_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "anonymity/partition.h"
#include "common/rng.h"
#include "common/schema.h"
#include "common/table.h"

namespace ldv {
namespace testutil {

/// Builds a schema with unnamed QI attributes of the given domain sizes and
/// an SA domain of size `m`.
inline Schema MakeSchema(std::vector<std::size_t> qi_domains, std::size_t m) {
  std::vector<Attribute> qi;
  for (std::size_t i = 0; i < qi_domains.size(); ++i) {
    qi.push_back(Attribute{"A" + std::to_string(i + 1), qi_domains[i]});
  }
  return Schema(std::move(qi), Attribute{"B", m});
}

/// Builds a table from rows given as {qi..., sa}.
inline Table MakeTable(const Schema& schema,
                       std::initializer_list<std::vector<Value>> rows) {
  Table table(schema);
  for (const auto& row : rows) {
    std::vector<Value> qi(row.begin(), row.end() - 1);
    table.AppendRow(qi, row.back());
  }
  return table;
}

/// Builds a partition from explicit groups, in order. Empty groups are
/// dropped, as Partition::AddGroup drops them.
inline Partition MakePartition(const std::vector<std::vector<RowId>>& groups) {
  Partition partition;
  for (const std::vector<RowId>& group : groups) partition.AddGroup(group);
  return partition;
}

/// A copy of a group's rows, for EXPECT_EQ and printing.
inline std::vector<RowId> Rows(std::span<const RowId> rows) {
  return {rows.begin(), rows.end()};
}

/// Every group of `partition` as a copy, in order, for EXPECT_EQ.
inline std::vector<std::vector<RowId>> Groups(const Partition& partition) {
  std::vector<std::vector<RowId>> groups;
  for (GroupId g = 0; g < partition.group_count(); ++g) groups.push_back(Rows(partition.group(g)));
  return groups;
}

/// The paper's running example, Table 1 (10 hospital records).
/// Age: {<30, [30,50), >=50} -> {0,1,2};  Gender: {M,F} -> {0,1};
/// Education: {Master, Bachelor, HighSchool} -> {0,1,2};
/// Disease: {HIV, pneumonia, bronchitis, dyspepsia} -> {0,1,2,3}.
inline Table PaperTable1() {
  Schema schema({Attribute{"Age", 3}, Attribute{"Gender", 2}, Attribute{"Education", 3}},
                Attribute{"Disease", 4});
  return MakeTable(schema, {
                               {0, 0, 0, 0},  // 1 Adam:   <30, M, Master,   HIV
                               {0, 0, 0, 0},  // 2 Bob:    <30, M, Master,   HIV
                               {0, 0, 1, 1},  // 3 Calvin: <30, M, Bachelor, pneumonia
                               {1, 0, 1, 2},  // 4 Danny:  30s, M, Bachelor, bronchitis
                               {1, 1, 1, 1},  // 5 Eva
                               {1, 1, 1, 2},  // 6 Fiona
                               {1, 1, 1, 2},  // 7 Ginny
                               {1, 1, 1, 1},  // 8 Helen
                               {2, 1, 2, 3},  // 9 Ivy:    >=50, F, HighSch, dyspepsia
                               {2, 1, 2, 1},  // 10 Jane:  >=50, F, HighSch, pneumonia
                           });
}

/// A random table over `qi_domains` x [0, m) that is guaranteed l-eligible:
/// rows are drawn until the SA histogram satisfies the constraint, by
/// topping up underrepresented values.
inline Table RandomEligibleTable(Rng& rng, std::size_t n, std::vector<std::size_t> qi_domains,
                                 std::size_t m, std::uint32_t l) {
  Schema schema = MakeSchema(std::move(qi_domains), m);
  Table table(schema);
  std::vector<std::uint32_t> counts(m, 0);
  std::vector<Value> qi(schema.qi_count());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t a = 0; a < schema.qi_count(); ++a) {
      qi[a] = rng.Below(static_cast<std::uint32_t>(schema.qi(static_cast<AttrId>(a)).domain_size));
    }
    // Biased SA draw, then eligibility repair below.
    SaValue sa = rng.Below(static_cast<std::uint32_t>(m));
    if (rng.Below(3) == 0) sa = sa / 2;  // skew
    table.AppendRow(qi, sa);
    ++counts[sa];
  }
  // Repair until l-eligible. Two moves, both rebuilding the table (Table is
  // append-only): replace one most-frequent-value row with a fresh value,
  // or -- when no replacement can ever reach eligibility, e.g. n odd with
  // m = l = 2, where max >= ceil(n/m) > n/l -- drop one such row instead.
  for (;;) {
    std::uint32_t max_count = 0;
    SaValue argmax = 0;
    for (SaValue v = 0; v < m; ++v) {
      if (counts[v] > max_count) {
        max_count = counts[v];
        argmax = v;
      }
    }
    if (static_cast<std::uint64_t>(l) * max_count <= table.size()) break;
    std::uint64_t best_possible_max = (table.size() + m - 1) / m;  // perfectly balanced
    bool drop = static_cast<std::uint64_t>(l) * best_possible_max > table.size();
    Table rebuilt(schema);
    bool handled = false;
    for (RowId r = 0; r < table.size(); ++r) {
      SaValue sa = table.sa(r);
      if (!handled && sa == argmax) {
        handled = true;
        --counts[argmax];
        if (drop) continue;  // remove the row entirely
        sa = (argmax + 1 + rng.Below(static_cast<std::uint32_t>(m - 1))) %
             static_cast<std::uint32_t>(m);
        ++counts[sa];
      }
      rebuilt.AppendRow(table.qi_row(r), sa);
    }
    table = std::move(rebuilt);
  }
  return table;
}

}  // namespace testutil
}  // namespace ldv

#endif  // LDIV_TESTS_TEST_UTIL_H_
