#include "common/grouped_table.h"

#include <algorithm>

#include "common/check.h"
#include "common/external_sort.h"
#include "common/failpoint.h"
#include "common/flat_map.h"
#include "common/memory_budget.h"
#include "common/parallel.h"
#include "common/simd.h"

namespace ldv {

std::uint32_t QiGroup::SaCount(SaValue v) const {
  auto it = std::lower_bound(
      sa_runs.begin(), sa_runs.end(), v,
      [](const std::pair<SaValue, std::uint32_t>& run, SaValue value) {
        return run.first < value;
      });
  if (it == sa_runs.end() || it->first != v) return 0;
  return RunLength(static_cast<std::size_t>(it - sa_runs.begin()));
}

SaHistogram QiGroup::ToHistogram(std::size_t m) const {
  SaHistogram h(m);
  for (std::size_t i = 0; i < sa_runs.size(); ++i) h.Add(sa_runs[i].first, RunLength(i));
  return h;
}

namespace {

// The build always runs sharded, at every thread count: one code path, one
// output. 16 shards keyed on the TOP four bits of the mixed hash -- the
// per-shard probe slot uses the low bits, so shard choice and slot choice
// stay independent. Equal signatures hash equal and therefore land in the
// same shard, which is what makes the per-shard indexes private.
constexpr std::size_t kShards = 16;
constexpr unsigned kShardShift = 60;
constexpr std::size_t kRowGrain = 16384;

std::size_t ShardOf(std::uint64_t mixed) { return mixed >> kShardShift; }

/// Rough resident scratch of the sharded build: the u64 hash array plus
/// six u32 row-length arrays (~32 bytes per row).
std::uint64_t ShardedScratchBytes(std::size_t n) { return 32ull * n; }

}  // namespace

GroupedTable::GroupedTable(const Table& table, Workspace* workspace) {
  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;
  const std::shared_ptr<MemoryBudget> budget = ws.budget();
  if (budget != nullptr && !table.empty() &&
      !budget->WouldFit(ShardedScratchBytes(table.size()))) {
    BuildChunkedImpl(table, ws, 0);
  } else {
    BuildSharded(table, ws);
  }
}

GroupedTable GroupedTable::BuildChunked(const Table& table, Workspace* workspace,
                                        std::size_t sort_buffer_records) {
  Workspace local;
  GroupedTable grouped;
  grouped.BuildChunkedImpl(table, workspace != nullptr ? *workspace : local,
                           sort_buffer_records);
  return grouped;
}

void GroupedTable::BuildSharded(const Table& table, Workspace& ws) {
  row_count_ = table.size();
  sa_domain_size_ = table.schema().sa_domain_size();
  if (table.empty()) return;

  const std::size_t n = table.size();
  const std::size_t d = table.qi_count();
  const std::size_t m = sa_domain_size_;

  // Per-attribute column base pointers, hoisted once so the scans below
  // stream contiguous columns instead of striding rows.
  std::vector<const Value*> cols(d);
  for (AttrId a = 0; a < d; ++a) cols[a] = table.column(a).data();

  // Row signature hashes, computed once. FNV-1a folded column by column:
  // every row's hash absorbs its values in attribute order (identical to a
  // per-row FNV over the signature), but each pass streams one contiguous
  // column through the SIMD fold kernel. Equal signatures hash equal, and
  // the shard indexes below compare full signatures on every hash hit, so
  // collisions only cost an extra comparison. The fold is a pure per-row
  // map, so the hash array is byte-identical at any thread count.
  auto hashes_s = ws.U64();
  std::vector<std::uint64_t>& hashes = *hashes_s;
  hashes.assign(n, 1469598103934665603ULL);
  std::uint64_t* hash_data = hashes.data();
  ParallelFor(n, kRowGrain, ws, [&](std::size_t begin, std::size_t end, Workspace&) {
    for (AttrId a = 0; a < d; ++a) {
      simd::FnvFoldColumn(hash_data + begin, cols[a] + begin, end - begin);
    }
  });

  // Scatter rows into shard-major order: a chunked histogram pass counts
  // rows per (chunk, shard), a sequential scan turns the counts into write
  // cursors, and a second pass scatters. Chunks are visited in row order
  // and each chunk owns its cursors, so within every shard the rows come
  // out in ascending global row order -- the property the first-occurrence
  // tie-break below relies on.
  const std::size_t chunk_count = (n + kRowGrain - 1) / kRowGrain;
  auto shard_counts_s = ws.U32();
  std::vector<std::uint32_t>& shard_counts = *shard_counts_s;
  shard_counts.assign(chunk_count * kShards, 0);
  ParallelFor(n, kRowGrain, ws, [&](std::size_t begin, std::size_t end, Workspace&) {
    std::uint32_t* counts = shard_counts.data() + (begin / kRowGrain) * kShards;
    for (std::size_t r = begin; r < end; ++r) ++counts[ShardOf(MixU64(hash_data[r]))];
  });
  std::uint32_t shard_begin[kShards + 1] = {0};
  for (std::size_t sh = 0; sh < kShards; ++sh) {
    std::uint32_t total = 0;
    for (std::size_t c = 0; c < chunk_count; ++c) total += shard_counts[c * kShards + sh];
    shard_begin[sh + 1] = shard_begin[sh] + total;
  }
  {
    std::uint32_t cursor[kShards];
    std::copy(shard_begin, shard_begin + kShards, cursor);
    for (std::size_t c = 0; c < chunk_count; ++c) {
      for (std::size_t sh = 0; sh < kShards; ++sh) {
        const std::uint32_t count = shard_counts[c * kShards + sh];
        shard_counts[c * kShards + sh] = cursor[sh];
        cursor[sh] += count;
      }
    }
  }
  auto shard_rows_s = ws.U32();
  std::vector<std::uint32_t>& shard_rows = *shard_rows_s;
  shard_rows.resize(n);
  ParallelFor(n, kRowGrain, ws, [&](std::size_t begin, std::size_t end, Workspace&) {
    std::uint32_t* cursor = shard_counts.data() + (begin / kRowGrain) * kShards;
    for (std::size_t r = begin; r < end; ++r) {
      shard_rows[cursor[ShardOf(MixU64(hash_data[r]))]++] = static_cast<std::uint32_t>(r);
    }
  });

  // Per-shard signature resolution: each shard probes a private
  // open-addressing index (slot -> shard-local group id + 1, sized to stay
  // at most half full) over its own rows, in ascending row order, so a
  // shard-local representative is the globally first row of its signature.
  // local_of / reps / local_sizes are written at row- or shard-disjoint
  // positions, so the shards run concurrently.
  auto local_of_s = ws.U32();
  std::vector<std::uint32_t>& local_of = *local_of_s;  // row -> shard-local gid
  local_of.resize(n);
  auto reps_s = ws.U32();
  std::vector<std::uint32_t>& reps = *reps_s;  // shard_begin[sh] + lg -> rep row
  reps.resize(n);
  auto local_sizes_s = ws.U32();
  std::vector<std::uint32_t>& local_sizes = *local_sizes_s;
  local_sizes.resize(n);
  std::uint32_t shard_groups[kShards] = {0};

  auto same_signature = [&cols, d](RowId x, RowId y) {
    for (AttrId a = 0; a < d; ++a) {
      if (cols[a][x] != cols[a][y]) return false;
    }
    return true;
  };

  ParallelFor(kShards, 1, ws, [&](std::size_t sb, std::size_t se, Workspace& cws) {
    for (std::size_t sh = sb; sh < se; ++sh) {
      const std::uint32_t row_begin = shard_begin[sh];
      const std::uint32_t row_end = shard_begin[sh + 1];
      if (row_begin == row_end) continue;
      const std::size_t n_sh = row_end - row_begin;
      std::size_t cap = 16;
      while (cap < 2 * n_sh) cap <<= 1;
      const std::size_t mask = cap - 1;
      auto slots_s = cws.U32();
      std::vector<std::uint32_t>& slots = *slots_s;
      slots.assign(cap, 0);
      std::uint32_t* shard_reps = reps.data() + row_begin;
      std::uint32_t* shard_sizes = local_sizes.data() + row_begin;
      std::uint32_t ng = 0;
      for (std::uint32_t k = row_begin; k < row_end; ++k) {
        const RowId r = shard_rows[k];
        std::size_t i = MixU64(hash_data[r]) & mask;
        for (;;) {
          if (slots[i] == 0) {
            slots[i] = ng + 1;
            local_of[r] = ng;
            shard_reps[ng] = r;
            shard_sizes[ng] = 1;
            ++ng;
            break;
          }
          const std::uint32_t g = slots[i] - 1;
          if (hash_data[shard_reps[g]] == hash_data[r] && same_signature(r, shard_reps[g])) {
            local_of[r] = g;
            ++shard_sizes[g];
            break;
          }
          i = (i + 1) & mask;
        }
      }
      shard_groups[sh] = ng;
    }
  });

  // Deterministic merge: the global group id of a signature is the rank of
  // its representative row among all representatives -- exactly the
  // first-occurrence order a sequential scan would assign, independent of
  // sharding and thread count. Marking reps and ranking them is one flag
  // array and one parallel exclusive prefix sum.
  auto rank_s = ws.U32();
  std::vector<std::uint32_t>& rank = *rank_s;
  rank.assign(n, 0);
  ParallelFor(kShards, 1, ws, [&](std::size_t sb, std::size_t se, Workspace&) {
    for (std::size_t sh = sb; sh < se; ++sh) {
      for (std::uint32_t lg = 0; lg < shard_groups[sh]; ++lg) {
        rank[reps[shard_begin[sh] + lg]] = 1;
      }
    }
  });
  const std::uint32_t s = ParallelExclusivePrefixSum(rank.data(), n, kRowGrain, ws);

  // Global per-group arrays, gid-indexed, plus the local->global id map.
  auto glob_s = ws.U32();
  std::vector<std::uint32_t>& glob = *glob_s;  // shard_begin[sh] + lg -> gid
  glob.resize(n);
  auto rep_row_s = ws.U32();
  std::vector<std::uint32_t>& rep_row = *rep_row_s;
  rep_row.resize(s);
  auto sizes_s = ws.U32();
  std::vector<std::uint32_t>& sizes = *sizes_s;
  sizes.resize(s);
  ParallelFor(kShards, 1, ws, [&](std::size_t sb, std::size_t se, Workspace&) {
    for (std::size_t sh = sb; sh < se; ++sh) {
      for (std::uint32_t lg = 0; lg < shard_groups[sh]; ++lg) {
        const RowId rep = reps[shard_begin[sh] + lg];
        const std::uint32_t gid = rank[rep];
        glob[shard_begin[sh] + lg] = gid;
        rep_row[gid] = rep;
        sizes[gid] = local_sizes[shard_begin[sh] + lg];
      }
    }
  });

  // Arena offsets: rows_arena_ packs the groups back to back; runs_arena_
  // reserves min(|Q|, m) entries per group (an upper bound on its distinct
  // SA values -- the spans carry the exact counts, the slack is never
  // read).
  auto row_off_s = ws.U32();
  std::vector<std::uint32_t>& row_off = *row_off_s;
  row_off.assign(sizes.begin(), sizes.end());
  ParallelExclusivePrefixSum(row_off.data(), s, kRowGrain, ws);
  auto run_off_s = ws.U32();
  std::vector<std::uint32_t>& run_off = *run_off_s;
  run_off.resize(s);
  const std::uint32_t m32 = static_cast<std::uint32_t>(m);
  ParallelFor(s, kRowGrain, ws, [&](std::size_t begin, std::size_t end, Workspace&) {
    for (std::size_t g = begin; g < end; ++g) run_off[g] = std::min(sizes[g], m32);
  });
  const std::uint32_t run_total = ParallelExclusivePrefixSum(run_off.data(), s, kRowGrain, ws);

  qi_arena_.resize(static_cast<std::size_t>(s) * d);
  rows_arena_.resize(n);
  runs_arena_.resize(run_total);
  groups_.resize(s);

  // Signatures and the fixed-size views. sa_runs is bound later, once the
  // counting sort knows each group's distinct-value count.
  const std::size_t group_grain = std::max<std::size_t>(64, (s + 63) / 64);
  ParallelFor(s, group_grain, ws, [&](std::size_t gb, std::size_t ge, Workspace&) {
    for (std::size_t g = gb; g < ge; ++g) {
      Value* qi = qi_arena_.data() + g * d;
      for (AttrId a = 0; a < d; ++a) qi[a] = cols[a][rep_row[g]];
      groups_[g].qi_values = {qi, d};
      groups_[g].rows = {rows_arena_.data() + row_off[g], sizes[g]};
    }
  });

  // Row fill, parallel across shards: a shard's groups are disjoint from
  // every other shard's, and its rows arrive in ascending global row
  // order, so each group's arena segment fills in row order -- the same
  // order the sequential build produced.
  ParallelFor(kShards, 1, ws, [&](std::size_t sb, std::size_t se, Workspace& cws) {
    for (std::size_t sh = sb; sh < se; ++sh) {
      if (shard_groups[sh] == 0) continue;
      auto cursor_s = cws.U32();
      std::vector<std::uint32_t>& cursor = *cursor_s;
      cursor.assign(shard_groups[sh], 0);
      const std::uint32_t* shard_glob = glob.data() + shard_begin[sh];
      for (std::uint32_t k = shard_begin[sh]; k < shard_begin[sh + 1]; ++k) {
        const RowId r = shard_rows[k];
        const std::uint32_t lg = local_of[r];
        rows_arena_[row_off[shard_glob[lg]] + cursor[lg]++] = r;
      }
    }
  });

  // Sort each group's rows by SA value and build the runs. A stable
  // counting sort keeps the seed's stable_sort order (row order preserved
  // within a value) at O(|Q| + distinct) per group with zero allocation:
  // `counts` is a dense per-value counter reset through `distinct`, then
  // reused as the per-run write cursor. Groups are independent -- each
  // chunk sorts its own groups with its own dense counter -- and the chunk
  // geometry depends only on the group count, so the built runs are
  // byte-identical at any thread count.
  ParallelFor(s, group_grain, ws, [&](std::size_t gb, std::size_t ge, Workspace& cws) {
    auto counts_s = cws.U32();
    std::vector<std::uint32_t>& counts = *counts_s;
    counts.assign(m, 0);
    auto distinct_s = cws.U32();
    std::vector<std::uint32_t>& distinct = *distinct_s;
    auto sorted_s = cws.U32();
    std::vector<std::uint32_t>& sorted = *sorted_s;
    for (std::size_t g = gb; g < ge; ++g) {
      RowId* rows = rows_arena_.data() + row_off[g];
      const std::uint32_t size = sizes[g];
      std::pair<SaValue, std::uint32_t>* runs = runs_arena_.data() + run_off[g];
      if (size == 1) {
        runs[0] = {table.sa(rows[0]), 0};
        groups_[g].sa_runs = {runs, 1};
        continue;
      }
      distinct.clear();
      for (std::uint32_t i = 0; i < size; ++i) {
        SaValue v = table.sa(rows[i]);
        if (counts[v]++ == 0) distinct.push_back(v);
      }
      std::sort(distinct.begin(), distinct.end());
      std::uint32_t offset = 0;
      std::size_t k = 0;
      for (SaValue v : distinct) {
        runs[k++] = {v, offset};
        offset += counts[v];
        counts[v] = runs[k - 1].second;  // becomes the write cursor
      }
      sorted.resize(size);
      for (std::uint32_t i = 0; i < size; ++i) sorted[counts[table.sa(rows[i])]++] = rows[i];
      std::copy(sorted.begin(), sorted.end(), rows);
      for (SaValue v : distinct) counts[v] = 0;
      groups_[g].sa_runs = {runs, distinct.size()};
    }
  });
  ChargeArenas(ws);
}

void GroupedTable::BuildChunkedImpl(const Table& table, Workspace& ws,
                                    std::size_t sort_buffer_records) {
  row_count_ = table.size();
  sa_domain_size_ = table.schema().sa_domain_size();
  if (table.empty()) return;

  const std::size_t n = table.size();
  const std::size_t d = table.qi_count();
  const std::size_t m = sa_domain_size_;

  std::vector<const Value*> cols(d);
  for (AttrId a = 0; a < d; ++a) cols[a] = table.column(a).data();
  const SaValue* sa_col = table.sa_column().data();

  const std::shared_ptr<MemoryBudget> budget = ws.budget();
  if (sort_buffer_records == 0) {
    // Give the sort buffer a quarter of what's left, within sane bounds.
    const std::uint64_t spend =
        budget != nullptr ? budget->remaining() / 4 : 64ull << 20;
    sort_buffer_records = static_cast<std::size_t>(std::clamp<std::uint64_t>(
        spend / sizeof(SortRecord), 1u << 16, 4u << 20));
  }
  std::string sort_error;
  std::unique_ptr<ExternalSorter> sorter = ExternalSorter::Create(
      ExternalSorter::Options{
          .buffer_records = sort_buffer_records, .budget = budget, .workspace = &ws},
      &sort_error);
  // No temp space mid-build is recoverable: the engine boundary turns
  // this into a typed I/O error, never an abort.
  if (sorter == nullptr) throw IoFailure("external sort unavailable: " + sort_error);

  // Single sequential pass in fixed row chunks: hash the chunk with the
  // SIMD column fold, then resolve each row's signature in a growing
  // (hash, gid) probe table. Scanning rows in order makes group ids
  // first-occurrence ranks -- the exact ids the sharded build assigns.
  auto chunk_hashes_s = ws.U64();
  std::vector<std::uint64_t>& chunk_hashes = *chunk_hashes_s;
  chunk_hashes.resize(std::min(n, kRowGrain));
  std::vector<std::uint32_t> rep_row;      // gid -> globally first row
  std::vector<std::uint32_t> sizes;        // gid -> |Q|
  std::vector<std::uint64_t> slot_hash;    // probe table: signature hash
  std::vector<std::uint32_t> slot_gid;     // probe table: gid + 1 (0 = empty)
  std::size_t cap = 1024;
  slot_hash.assign(cap, 0);
  slot_gid.assign(cap, 0);

  const auto same_signature = [&cols, d](RowId x, RowId y) {
    for (AttrId a = 0; a < d; ++a) {
      if (cols[a][x] != cols[a][y]) return false;
    }
    return true;
  };

  for (std::size_t begin = 0; begin < n; begin += kRowGrain) {
    const std::size_t end = std::min(n, begin + kRowGrain);
    const std::size_t len = end - begin;
    std::fill_n(chunk_hashes.data(), len, 1469598103934665603ULL);
    for (AttrId a = 0; a < d; ++a) {
      simd::FnvFoldColumn(chunk_hashes.data(), cols[a] + begin, len);
    }
    for (std::size_t i = 0; i < len; ++i) {
      const RowId r = static_cast<RowId>(begin + i);
      const std::uint64_t h = chunk_hashes[i];
      std::size_t mask = cap - 1;
      std::size_t slot = MixU64(h) & mask;
      std::uint32_t gid;
      for (;;) {
        if (slot_gid[slot] == 0) {
          gid = static_cast<std::uint32_t>(rep_row.size());
          slot_hash[slot] = h;
          slot_gid[slot] = gid + 1;
          rep_row.push_back(r);
          sizes.push_back(0);
          for (AttrId a = 0; a < d; ++a) qi_arena_.push_back(cols[a][r]);
          break;
        }
        if (slot_hash[slot] == h && same_signature(r, rep_row[slot_gid[slot] - 1])) {
          gid = slot_gid[slot] - 1;
          break;
        }
        slot = (slot + 1) & mask;
      }
      ++sizes[gid];
      sorter->Add((static_cast<std::uint64_t>(gid) << 32) | sa_col[r], r);
      if (2 * rep_row.size() >= cap) {
        // Grow the probe table; stored hashes make the rehash table-free.
        const std::size_t new_cap = cap * 2;
        std::vector<std::uint64_t> new_hash(new_cap, 0);
        std::vector<std::uint32_t> new_gid(new_cap, 0);
        const std::size_t new_mask = new_cap - 1;
        for (std::size_t j = 0; j < cap; ++j) {
          if (slot_gid[j] == 0) continue;
          std::size_t k = MixU64(slot_hash[j]) & new_mask;
          while (new_gid[k] != 0) k = (k + 1) & new_mask;
          new_hash[k] = slot_hash[j];
          new_gid[k] = slot_gid[j];
        }
        slot_hash.swap(new_hash);
        slot_gid.swap(new_gid);
        cap = new_cap;
      }
    }
  }

  const std::size_t s = rep_row.size();
  std::vector<std::uint32_t> row_off(s + 1, 0);
  for (std::size_t g = 0; g < s; ++g) row_off[g + 1] = row_off[g] + sizes[g];
  std::vector<std::uint32_t> run_off(s + 1, 0);
  const std::uint32_t m32 = static_cast<std::uint32_t>(m);
  for (std::size_t g = 0; g < s; ++g) run_off[g + 1] = run_off[g] + std::min(sizes[g], m32);

  rows_arena_.resize(n);
  runs_arena_.resize(run_off[s]);
  groups_.resize(s);
  for (std::size_t g = 0; g < s; ++g) {
    groups_[g].qi_values = {qi_arena_.data() + g * d, d};
    groups_[g].rows = {rows_arena_.data() + row_off[g], sizes[g]};
  }

  // The merged (gid, sa, row) order IS the arena layout: groups back to
  // back in first-occurrence order, rows sorted by (sa, row) within each
  // group -- exactly what the sharded build's stable counting sort emits.
  sorter->Finish();
  SortRecord record;
  std::uint32_t current_gid = 0;
  SaValue current_sa = 0;
  std::size_t run_cursor = 0;
  bool first = true;
  for (std::size_t i = 0; i < n; ++i) {
    LDIV_CHECK(sorter->Next(&record)) << "external sort lost records";
    const std::uint32_t gid = static_cast<std::uint32_t>(record.key >> 32);
    const SaValue sa = static_cast<SaValue>(record.key & 0xffffffffu);
    rows_arena_[i] = static_cast<RowId>(record.payload);
    if (first || gid != current_gid || sa != current_sa) {
      if (first || gid != current_gid) {
        if (!first) {
          groups_[current_gid].sa_runs = {runs_arena_.data() + run_off[current_gid],
                                          run_cursor - run_off[current_gid]};
        }
        run_cursor = run_off[gid];
      }
      runs_arena_[run_cursor++] = {sa, static_cast<std::uint32_t>(i - row_off[gid])};
      current_gid = gid;
      current_sa = sa;
      first = false;
    }
  }
  LDIV_CHECK(!sorter->Next(&record)) << "external sort produced extra records";
  if (!first) {
    groups_[current_gid].sa_runs = {runs_arena_.data() + run_off[current_gid],
                                    run_cursor - run_off[current_gid]};
  }
  ChargeArenas(ws);
}

void GroupedTable::ChargeArenas(const Workspace& ws) {
  arena_reservation_ = MemoryReservation(ws.budget(), ApproxBytes());
}

std::uint64_t GroupedTable::ApproxBytes() const {
  return qi_arena_.capacity() * sizeof(Value) + rows_arena_.capacity() * sizeof(RowId) +
         runs_arena_.capacity() * sizeof(runs_arena_[0]) + groups_.capacity() * sizeof(QiGroup);
}

std::uint64_t GroupedTable::MaxGroupSize() const {
  std::uint64_t best = 0;
  for (const QiGroup& g : groups_) best = std::max<std::uint64_t>(best, g.size());
  return best;
}

}  // namespace ldv
