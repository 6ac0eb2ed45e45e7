#include "hardness/k_dim_matching.h"

#include <algorithm>
#include <set>

#include "anonymity/partition.h"
#include "common/check.h"

namespace ldv {

bool KDmInstance::Valid() const {
  if (k < 2) return false;
  std::set<std::vector<std::uint32_t>> seen;
  for (const auto& p : points) {
    if (p.size() != k) return false;
    for (std::uint32_t c : p) {
      if (c >= n) return false;
    }
    if (!seen.insert(p).second) return false;
  }
  return true;
}

namespace {

bool SolveKDmRec(const KDmInstance& inst, std::uint32_t next_first,
                 std::vector<std::uint32_t>& used,  // bitmask per dimension 1..k-1
                 std::vector<std::uint32_t>& chosen) {
  if (next_first == inst.n) return true;
  for (std::uint32_t i = 0; i < inst.points.size(); ++i) {
    const auto& p = inst.points[i];
    if (p[0] != next_first) continue;
    bool clash = false;
    for (std::uint32_t dim = 1; dim < inst.k && !clash; ++dim) {
      clash = (used[dim] >> p[dim]) & 1u;
    }
    if (clash) continue;
    for (std::uint32_t dim = 1; dim < inst.k; ++dim) used[dim] |= 1u << p[dim];
    chosen.push_back(i);
    if (SolveKDmRec(inst, next_first + 1, used, chosen)) return true;
    chosen.pop_back();
    for (std::uint32_t dim = 1; dim < inst.k; ++dim) used[dim] &= ~(1u << p[dim]);
  }
  return false;
}

}  // namespace

std::optional<std::vector<std::uint32_t>> SolveKDm(const KDmInstance& instance) {
  LDIV_CHECK(instance.Valid());
  LDIV_CHECK_LE(instance.n, 30u);
  std::vector<std::uint32_t> used(instance.k, 0);
  std::vector<std::uint32_t> chosen;
  if (SolveKDmRec(instance, 0, used, chosen)) return chosen;
  return std::nullopt;
}

KDmInstance MakePlantedKDmInstance(std::uint32_t k, std::uint32_t n, std::uint32_t extra,
                                   Rng& rng) {
  KDmInstance inst;
  inst.k = k;
  inst.n = n;
  std::set<std::vector<std::uint32_t>> seen;
  // Planted matching: point i = (i, perm_2(i), ..., perm_k(i)).
  std::vector<std::vector<std::uint32_t>> perms(k);
  for (std::uint32_t dim = 0; dim < k; ++dim) {
    perms[dim].resize(n);
    for (std::uint32_t i = 0; i < n; ++i) perms[dim][i] = i;
    if (dim > 0) rng.Shuffle(perms[dim]);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    std::vector<std::uint32_t> p(k);
    for (std::uint32_t dim = 0; dim < k; ++dim) p[dim] = perms[dim][i];
    seen.insert(p);
    inst.points.push_back(std::move(p));
  }
  std::uint32_t added = 0;
  while (added < extra) {
    std::vector<std::uint32_t> p(k);
    for (std::uint32_t dim = 0; dim < k; ++dim) p[dim] = rng.Below(n);
    if (seen.insert(p).second) {
      inst.points.push_back(std::move(p));
      ++added;
    }
  }
  return inst;
}

Table BuildKDimReductionTable(const KDmInstance& instance) {
  LDIV_CHECK(instance.Valid());
  const std::uint32_t k = instance.k;
  const std::uint32_t n = instance.n;
  const std::uint32_t d = instance.d();
  const std::uint32_t m = k * n;  // every row its own SA value

  std::vector<Attribute> qi_attrs;
  qi_attrs.reserve(d);
  for (std::uint32_t i = 0; i < d; ++i) {
    qi_attrs.push_back(Attribute{"A" + std::to_string(i + 1), m + 1});
  }
  Table table(Schema(std::move(qi_attrs), Attribute{"B", m}));
  table.Reserve(m);

  std::vector<Value> row(d);
  for (std::uint32_t j = 0; j < k * n; ++j) {
    std::uint32_t block = j / n;       // which domain D_block
    std::uint32_t value = j % n;       // which value within the domain
    std::uint32_t u = j + 1;           // SA value (1-based paper style)
    for (std::uint32_t i = 0; i < d; ++i) {
      row[i] = (instance.points[i][block] == value) ? 0 : u;
    }
    table.AppendRow(row, u - 1);
  }
  return table;
}

std::uint64_t KDimReductionTargetStars(const KDmInstance& instance) {
  return static_cast<std::uint64_t>(instance.k) * instance.n * (instance.d() - 1);
}

Partition KDimPartitionFromMatching(const KDmInstance& instance,
                                    const std::vector<std::uint32_t>& matching) {
  LDIV_CHECK_EQ(matching.size(), instance.n);
  Partition partition;
  std::vector<RowId> rows(instance.k);
  for (std::uint32_t idx : matching) {
    const auto& p = instance.points[idx];
    for (std::uint32_t dim = 0; dim < instance.k; ++dim) rows[dim] = dim * instance.n + p[dim];
    partition.AddGroup(rows);
  }
  return partition;
}

}  // namespace ldv
