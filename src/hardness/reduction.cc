#include "hardness/reduction.h"

#include <set>
#include <vector>

#include "anonymity/partition.h"
#include "common/check.h"

namespace ldv {

namespace {

// The paper's three-case choice of the SA value u for the j-th row
// (1-based j in [1, 3n]); ensures m distinct SA values and distinct values
// across the three domain blocks.
std::uint32_t SaForRow(std::uint32_t j, std::uint32_t n, std::uint32_t m) {
  if (j + 2 <= m) return j;  // j <= m - 2
  if (m - 1 > 2 * n) return (j <= 3 * n - 1) ? m - 1 : m;
  if (m - 1 > n) return (j <= 2 * n) ? m - 1 : m;
  if (j <= n) return m - 2;
  return (j <= 2 * n) ? m - 1 : m;
}

// True iff v_j (1-based row index) is a coordinate of point p.
bool IsCoordinate(std::uint32_t j, std::uint32_t n, const Point3& p) {
  if (j <= n) return p.a == j - 1;
  if (j <= 2 * n) return p.b == j - n - 1;
  return p.c == j - 2 * n - 1;
}

}  // namespace

Table BuildReductionTable(const ThreeDmInstance& instance, std::uint32_t m) {
  LDIV_CHECK(instance.Valid());
  const std::uint32_t n = instance.n;
  const std::uint32_t d = instance.d();
  LDIV_CHECK_GE(m, 3u);
  LDIV_CHECK_LE(m, 3 * n);

  std::vector<Attribute> qi_attrs;
  qi_attrs.reserve(d);
  for (std::uint32_t i = 0; i < d; ++i) {
    qi_attrs.push_back(Attribute{"A" + std::to_string(i + 1), m + 1});
  }
  Table table(Schema(std::move(qi_attrs), Attribute{"B", m}));
  table.Reserve(3 * n);

  std::vector<Value> row(d);
  for (std::uint32_t j = 1; j <= 3 * n; ++j) {
    std::uint32_t u = SaForRow(j, n, m);
    LDIV_CHECK_GE(u, 1u);
    LDIV_CHECK_LE(u, m);
    for (std::uint32_t i = 0; i < d; ++i) {
      row[i] = IsCoordinate(j, n, instance.points[i]) ? 0 : u;
    }
    table.AppendRow(row, u - 1);  // SA codes are 0-based
  }
  return table;
}

std::uint64_t ReductionTargetStars(std::uint32_t n, std::uint32_t d) {
  return static_cast<std::uint64_t>(3) * n * (d - 1);
}

bool CheckReductionProperties(const Table& table, const ThreeDmInstance& instance,
                              std::uint32_t m) {
  const std::uint32_t n = instance.n;
  if (table.size() != 3 * n) return false;
  if (table.qi_count() != instance.d()) return false;

  // Property 1: each QI attribute has exactly three zero rows.
  for (AttrId a = 0; a < table.qi_count(); ++a) {
    std::uint32_t zeros = 0;
    for (RowId r = 0; r < table.size(); ++r) {
      if (table.qi(r, a) == 0) ++zeros;
    }
    if (zeros != 3) return false;
  }

  // Exactly m distinct SA values.
  if (table.DistinctSaCount() != m) return false;

  // Rows from different domains never share an SA value.
  std::set<SaValue> d1, d2, d3;
  for (RowId r = 0; r < table.size(); ++r) {
    (r < n ? d1 : (r < 2 * n ? d2 : d3)).insert(table.sa(r));
  }
  for (SaValue v : d1) {
    if (d2.count(v) || d3.count(v)) return false;
  }
  for (SaValue v : d2) {
    if (d3.count(v)) return false;
  }

  // Non-zero QI values always equal the row's own SA value (paper encoding).
  for (RowId r = 0; r < table.size(); ++r) {
    for (AttrId a = 0; a < table.qi_count(); ++a) {
      Value v = table.qi(r, a);
      if (v != 0 && v != table.sa(r) + 1) return false;
    }
  }
  return true;
}

Partition PartitionFromMatching(const ThreeDmInstance& instance,
                                const std::vector<std::uint32_t>& matching) {
  const std::uint32_t n = instance.n;
  LDIV_CHECK_EQ(matching.size(), n);
  Partition partition;
  for (std::uint32_t idx : matching) {
    const Point3& p = instance.points[idx];
    // The three rows that carry 0 on the point's attribute: its D1, D2 and
    // D3 coordinates (0-based row ids).
    const RowId rows[] = {p.a, n + p.b, 2 * n + p.c};
    partition.AddGroup(rows);
  }
  return partition;
}

}  // namespace ldv
