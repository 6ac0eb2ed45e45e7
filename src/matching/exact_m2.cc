#include "matching/exact_m2.h"

#include <chrono>
#include <vector>

#include "common/check.h"
#include "matching/hungarian.h"

namespace ldv {

ExactM2Result SolveExactM2(const Table& table) {
  ExactM2Result result;
  if (table.empty()) return result;

  // Collect the two SA classes S1, S2.
  std::vector<std::uint32_t> counts = table.SaHistogramCounts();
  std::int64_t first = -1, second = -1;
  for (std::size_t v = 0; v < counts.size(); ++v) {
    if (counts[v] == 0) continue;
    if (first < 0) {
      first = static_cast<std::int64_t>(v);
    } else if (second < 0) {
      second = static_cast<std::int64_t>(v);
    } else {
      return result;  // more than two distinct SA values
    }
  }
  if (second < 0) return result;                      // only one SA value: not 2-eligible
  if (counts[first] != counts[second]) return result;  // |S1| != |S2|: infeasible

  auto start = std::chrono::steady_clock::now();
  std::vector<RowId> s1, s2;
  for (RowId r = 0; r < table.size(); ++r) {
    (table.sa(r) == static_cast<SaValue>(first) ? s1 : s2).push_back(r);
  }

  const std::size_t n = s1.size();
  const std::size_t d = table.qi_count();
  std::vector<const Value*> cols(d);
  for (AttrId a = 0; a < d; ++a) cols[a] = table.column(a).data();
  std::vector<std::vector<std::int64_t>> cost(n, std::vector<std::int64_t>(n, 0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      std::int64_t differing = 0;
      for (std::size_t a = 0; a < d; ++a) {
        if (cols[a][s1[i]] != cols[a][s2[j]]) ++differing;
      }
      // Definition 1 assigns one star to each tuple on each disagreeing
      // attribute, so a pair costs 2 stars per disagreeing attribute.
      cost[i][j] = 2 * differing;
    }
  }

  std::vector<std::int32_t> assignment;
  std::int64_t total = SolveAssignment(cost, &assignment);

  result.feasible = true;
  result.stars = static_cast<std::uint64_t>(total);
  for (std::size_t i = 0; i < n; ++i) {
    const RowId pair[] = {s1[i], s2[assignment[i]]};
    result.partition.AddGroup(pair);
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

}  // namespace ldv
