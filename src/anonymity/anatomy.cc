#include "anonymity/anatomy.h"

#include <algorithm>
#include <chrono>
#include <queue>
#include <vector>

#include "anonymity/eligibility.h"
#include "common/check.h"

namespace ldv {

AnatomyResult AnatomyAnonymize(const Table& table, std::uint32_t l) {
  AnatomyResult result;
  if (table.empty()) {
    result.feasible = true;
    return result;
  }
  if (!IsTableEligible(table, l)) return result;
  auto start = std::chrono::steady_clock::now();

  // Row stacks per SA value.
  const std::size_t m = table.schema().sa_domain_size();
  std::vector<std::vector<RowId>> rows_by_sa(m);
  for (RowId r = 0; r < table.size(); ++r) rows_by_sa[table.sa(r)].push_back(r);

  // Max-heap of (remaining count, SA value).
  std::priority_queue<std::pair<std::uint32_t, SaValue>> heap;
  for (SaValue v = 0; v < m; ++v) {
    if (!rows_by_sa[v].empty()) {
      heap.push({static_cast<std::uint32_t>(rows_by_sa[v].size()), v});
    }
  }

  std::vector<std::vector<RowId>> buckets;
  while (heap.size() >= l) {
    // Pop the l most frequent remaining values and take one tuple of each.
    std::vector<std::pair<std::uint32_t, SaValue>> picked;
    std::vector<RowId> bucket;
    for (std::uint32_t i = 0; i < l; ++i) {
      auto [count, v] = heap.top();
      heap.pop();
      bucket.push_back(rows_by_sa[v].back());
      rows_by_sa[v].pop_back();
      if (count > 1) picked.push_back({count - 1, v});
    }
    for (const auto& p : picked) heap.push(p);
    buckets.push_back(std::move(bucket));
  }

  // Residual tuples (fewer than l distinct values remain): append each to a
  // bucket not yet containing its SA value. Eligibility of the whole table
  // guarantees enough buckets exist: the residue of value v has at most
  // (#buckets / l) tuples left... concretely, h(T, v) <= n / l = #buckets
  // when every bucket has exactly l members, and each bucket absorbed at
  // most one v-tuple so far.
  while (!heap.empty()) {
    SaValue v = heap.top().second;
    heap.pop();
    std::size_t cursor = 0;
    while (!rows_by_sa[v].empty()) {
      // Find the next bucket without value v.
      bool placed = false;
      for (; cursor < buckets.size(); ++cursor) {
        bool has_v = false;
        for (RowId r : buckets[cursor]) {
          if (table.sa(r) == v) {
            has_v = true;
            break;
          }
        }
        if (!has_v) {
          buckets[cursor].push_back(rows_by_sa[v].back());
          rows_by_sa[v].pop_back();
          ++cursor;
          placed = true;
          break;
        }
      }
      LDIV_CHECK(placed) << "anatomy residual placement failed (value " << v << ")";
    }
  }

  result.partition.Reserve(buckets.size(), table.size());
  for (const auto& bucket : buckets) result.partition.AddGroup(bucket);
  result.feasible = true;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  LDIV_DCHECK(result.partition.CoversExactly(table));
  return result;
}

}  // namespace ldv
