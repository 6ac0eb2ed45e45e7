#include "hardness/exact_solver.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "anonymity/eligibility.h"
#include "anonymity/generalization.h"
#include "common/check.h"

namespace ldv {

ExactStarResult ExactStarMinimization(const Table& table, std::uint32_t l) {
  ExactStarResult result;
  const std::size_t n = table.size();
  LDIV_CHECK_LE(n, 16u) << "exhaustive solver limited to 16 rows";
  if (n == 0) {
    result.feasible = true;
    return result;
  }
  if (!IsTableEligible(table, l)) return result;

  const std::uint32_t full = (n == 32) ? ~0u : ((1u << n) - 1);
  const std::size_t m = table.schema().sa_domain_size();
  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();

  // Precompute eligibility and star cost for every row subset.
  std::vector<char> eligible(full + 1, 0);
  std::vector<std::uint64_t> stars(full + 1, 0);
  std::vector<std::uint32_t> counts(m);
  std::vector<RowId> members;
  for (std::uint32_t mask = 1; mask <= full; ++mask) {
    std::fill(counts.begin(), counts.end(), 0);
    members.clear();
    for (std::uint32_t r = 0; r < n; ++r) {
      if ((mask >> r) & 1u) {
        ++counts[table.sa(r)];
        members.push_back(r);
      }
    }
    std::uint32_t max_count = *std::max_element(counts.begin(), counts.end());
    eligible[mask] =
        members.size() >= static_cast<std::size_t>(l) * max_count ? 1 : 0;
    stars[mask] = GroupStarCount(table, members);
  }

  std::vector<std::uint64_t> dp(full + 1, kInf);
  std::vector<std::uint32_t> choice(full + 1, 0);
  dp[0] = 0;
  for (std::uint32_t mask = 1; mask <= full; ++mask) {
    std::uint32_t low = mask & (~mask + 1);  // lowest set bit
    // Enumerate submasks of `mask` containing `low` as the group holding
    // the lowest remaining row; this canonicalization enumerates every set
    // partition exactly once.
    for (std::uint32_t sub = mask; sub > 0; sub = (sub - 1) & mask) {
      if (!(sub & low) || !eligible[sub]) continue;
      std::uint64_t rest = dp[mask ^ sub];
      if (rest == kInf) continue;
      if (rest + stars[sub] < dp[mask]) {
        dp[mask] = rest + stars[sub];
        choice[mask] = sub;
      }
    }
  }
  LDIV_CHECK_NE(dp[full], kInf);  // the whole table is one eligible group

  result.feasible = true;
  result.stars = dp[full];
  std::vector<RowId> group;
  for (std::uint32_t mask = full; mask > 0; mask ^= choice[mask]) {
    group.clear();
    for (std::uint32_t r = 0; r < n; ++r) {
      if ((choice[mask] >> r) & 1u) group.push_back(r);
    }
    result.partition.AddGroup(group);
  }
  return result;
}

namespace {

// Packs a residue histogram (m <= 8 values, counts < 256) into a uint64.
std::uint64_t PackHistogram(const std::vector<std::uint32_t>& counts) {
  std::uint64_t key = 0;
  for (std::size_t v = 0; v < counts.size(); ++v) {
    key |= static_cast<std::uint64_t>(counts[v]) << (8 * v);
  }
  return key;
}

// Enumerates all removal vectors for one group: counts_removed[v] in
// [0, h(Q, v)] such that the remaining group multiset is l-eligible.
// For each valid removal vector, calls fn(removal_counts).
void EnumerateGroupRemovals(const std::vector<std::uint32_t>& group_counts, std::uint32_t l,
                            std::vector<std::uint32_t>& removal, std::size_t v,
                            const std::function<void(const std::vector<std::uint32_t>&)>& fn) {
  if (v == group_counts.size()) {
    std::uint64_t remaining_total = 0;
    std::uint32_t remaining_max = 0;
    for (std::size_t i = 0; i < group_counts.size(); ++i) {
      std::uint32_t rem = group_counts[i] - removal[i];
      remaining_total += rem;
      remaining_max = std::max(remaining_max, rem);
    }
    if (remaining_total >= static_cast<std::uint64_t>(l) * remaining_max) fn(removal);
    return;
  }
  for (std::uint32_t r = 0; r <= group_counts[v]; ++r) {
    removal[v] = r;
    EnumerateGroupRemovals(group_counts, l, removal, v + 1, fn);
  }
  removal[v] = 0;
}

}  // namespace

ExactTupleResult ExactTupleMinimization(const GroupedTable& grouped, std::uint32_t l) {
  ExactTupleResult result;
  const std::size_t m = grouped.sa_domain_size();
  LDIV_CHECK_LE(m, 8u) << "exhaustive tuple solver requires m <= 8";
  LDIV_CHECK_LT(grouped.row_count(), 256u);

  // Feasibility: the whole table must be l-eligible.
  {
    SaHistogram all(m);
    for (const QiGroup& g : grouped.groups()) {
      for (std::size_t i = 0; i < g.sa_runs.size(); ++i) {
        all.Add(g.sa_runs[i].first, g.RunLength(i));
      }
    }
    if (!all.IsEligible(l)) return result;
  }

  // Reachable residue histograms after processing a prefix of groups.
  std::unordered_set<std::uint64_t> reachable = {0};
  for (const QiGroup& group : grouped.groups()) {
    std::vector<std::uint32_t> counts(m, 0);
    for (std::size_t i = 0; i < group.sa_runs.size(); ++i) {
      counts[group.sa_runs[i].first] = group.RunLength(i);
    }
    std::vector<std::vector<std::uint32_t>> removals;
    std::vector<std::uint32_t> removal(m, 0);
    EnumerateGroupRemovals(counts, l, removal, 0,
                           [&](const std::vector<std::uint32_t>& rv) { removals.push_back(rv); });

    std::unordered_set<std::uint64_t> next;
    next.reserve(reachable.size() * removals.size());
    for (std::uint64_t key : reachable) {
      for (const auto& rv : removals) {
        std::uint64_t add = PackHistogram(rv);
        next.insert(key + add);  // counts never exceed 255, so no carries
      }
    }
    reachable = std::move(next);
  }

  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (std::uint64_t key : reachable) {
    std::uint64_t total = 0;
    std::uint32_t max_count = 0;
    for (std::size_t v = 0; v < m; ++v) {
      std::uint32_t c = static_cast<std::uint32_t>((key >> (8 * v)) & 0xFF);
      total += c;
      max_count = std::max(max_count, c);
    }
    if (total >= static_cast<std::uint64_t>(l) * max_count) best = std::min(best, total);
  }
  LDIV_CHECK_NE(best, std::numeric_limits<std::uint64_t>::max());
  result.feasible = true;
  result.removed = best;
  return result;
}

ExactTupleResult ExactTupleMinimization(const Table& table, std::uint32_t l) {
  GroupedTable grouped(table);
  return ExactTupleMinimization(grouped, l);
}

}  // namespace ldv
