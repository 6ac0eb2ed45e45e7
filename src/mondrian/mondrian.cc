#include "mondrian/mondrian.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "anonymity/eligibility.h"
#include "common/check.h"
#include "common/memory_budget.h"
#include "common/parallel.h"
#include "common/workspace.h"

namespace ldv {

namespace {

// An owned, mutable box: the walker's current box and each frontier
// node's. What a walker publishes is a QiBox view of one.
struct Bounds {
  std::vector<Value> lo;
  std::vector<Value> hi;
};

// Immutable per-solve context shared by every walker: the table, the
// hoisted column pointers and the concatenated-histogram layout.
struct MondrianShared {
  MondrianShared(const Table& table, std::uint32_t l)
      : table(table),
        l(l),
        n(table.size()),
        d(table.qi_count()),
        m(table.schema().sa_domain_size()) {
    cols.resize(d);
    for (AttrId a = 0; a < d; ++a) cols[a] = table.column(a).data();
    // 64-bit sums: 32-bit domains may add up past 2^32.
    vhist_offset.resize(d + 1);
    vhist_offset[0] = 0;
    for (AttrId a = 0; a < d; ++a) {
      vhist_offset[a + 1] = vhist_offset[a] + table.schema().qi(a).domain_size;
    }
  }

  Bounds RootBox() const {
    Bounds box;
    box.lo.assign(d, 0);
    box.hi.resize(d);
    for (AttrId a = 0; a < d; ++a) {
      box.hi[a] = static_cast<Value>(table.schema().qi(a).domain_size);
    }
    return box;
  }

  const Table& table;
  const std::uint32_t l;
  const std::size_t n;
  const std::size_t d;
  const std::size_t m;
  std::vector<const Value*> cols;
  std::vector<std::uint64_t> vhist_offset;
};

// In-place Mondrian recursion over a single shared RowId buffer. Each call
// owns the half-open range [begin, end) of the buffer; an accepted cut
// stably partitions that range in place (two passes through a shared
// scratch buffer, preserving relative row order on both sides exactly like
// the seed's left/right copies), a rejected cut leaves it untouched. The
// SA column is materialized once and permuted alongside the row ids, so
// the eligibility pass streams it sequentially.
//
// Per node, one gather pass per attribute over its contiguous column
// builds a small per-attribute value histogram (the QI domains are
// categorical codes, so the histograms fit comfortably in cache); spread,
// minimum and median all fall out of a walk
// over that histogram, replacing the seed's per-split copy-and-sort. When
// the combined domains outgrow the range the node falls back to min/max
// scans plus nth_element selection -- both paths produce the identical
// median, so the partitions cannot depend on the mode. All scratch lives
// in the Workspace; a whole solve allocates only the published groups.
//
// A walker owns only scratch and outputs; the row/SA buffers are shared
// between walkers, and independent subtrees cover disjoint ranges of
// them, which is what makes the parallel driver below safe: every walker
// reads and writes exclusively inside its subtree's range.
class MondrianWalker {
 public:
  MondrianWalker(const MondrianShared& shared, std::vector<RowId>& rows,
                 std::vector<SaValue>& sa, BoxGeneralization* out, Workspace& ws)
      : s_(shared),
        out_(out),
        scratch_s_(ws.U32()),
        values_s_(ws.U32()),
        vhist_s_(ws.U32()),
        left_counts_s_(ws.U32()),
        right_counts_s_(ws.U32()),
        touched_s_(ws.U32()),
        rows_(rows),
        sa_(sa),
        scratch_(*scratch_s_),
        values_(*values_s_),
        vhist_(*vhist_s_),
        left_counts_(*left_counts_s_),
        right_counts_(*right_counts_s_),
        touched_(*touched_s_) {
    left_counts_.assign(s_.m, 0);
    right_counts_.assign(s_.m, 0);
    spreads_.reserve(s_.d);
    mins_.resize(s_.d);
    maxs_.resize(s_.d);
    medians_.resize(s_.d);
    // A range takes the histogram path only when the combined domains
    // fit it, so larger domains never need the histograms.
    if (s_.vhist_offset[s_.d] <= s_.n) vhist_.resize(s_.vhist_offset[s_.d]);
    box_ = shared.RootBox();
  }

  /// The box the next Recurse/TrySplit call starts from; defaults to the
  /// root box. The parallel driver points it at a frontier node's box.
  Bounds& box() { return box_; }

  void Recurse(std::size_t begin, std::size_t end) {
    AttrId attr = 0;
    Value split = 0;
    std::size_t mid = 0;
    if (TrySplit(begin, end, &attr, &split, &mid)) {
      // Recurse with the shared box mutated and restored around each side.
      Value old_hi = box_.hi[attr];
      box_.hi[attr] = split;
      Recurse(begin, mid);
      box_.hi[attr] = old_hi;
      Value old_lo = box_.lo[attr];
      box_.lo[attr] = split;
      Recurse(mid, end);
      box_.lo[attr] = old_lo;
      return;
    }
    // No allowable cut: emit the group.
    out_->AddGroup({box_.lo, box_.hi}, std::span(rows_).subspan(begin, end - begin));
  }

  /// One cut attempt on [begin, end): finds the best allowable median cut
  /// and, on success, stably partitions rows_/sa_ in place, returning the
  /// cut attribute, split value and partition point. A rejected range is
  /// left untouched.
  bool TrySplit(std::size_t begin, std::size_t end, AttrId* out_attr, Value* out_split,
                std::size_t* out_mid) {
    // Per-attribute min / max / median for the range, via one histogram
    // pass when the combined domains are no larger than the range, via
    // min-max scans plus lazy nth_element selection otherwise.
    const std::size_t d = s_.d;
    const bool use_hist = s_.vhist_offset[d] <= end - begin;
    if (use_hist) {
      std::fill(vhist_.begin(), vhist_.end(), 0u);
      // Column-major: one pass per attribute, each streaming a single
      // contiguous column (gathered through rows_) into its histogram.
      // Stays scalar: histogram increments scatter to data-dependent
      // slots (with possible duplicates per vector), which SIMD cannot
      // express without a slow conflict-detection pass.
      for (AttrId a = 0; a < d; ++a) {
        const Value* col = s_.cols[a];
        std::uint32_t* hist = vhist_.data() + s_.vhist_offset[a];
        for (std::size_t i = begin; i < end; ++i) ++hist[col[rows_[i]]];
      }
      const std::size_t k = (end - begin) / 2;  // median = (k+1)-th smallest
      for (AttrId a = 0; a < d; ++a) {
        const std::uint32_t* hist = vhist_.data() + s_.vhist_offset[a];
        const auto domain = static_cast<std::uint32_t>(s_.vhist_offset[a + 1] - s_.vhist_offset[a]);
        std::uint32_t mn = 0, mx = 0, median = 0;
        std::uint64_t cum = 0;
        bool first = true, median_found = false;
        for (std::uint32_t v = 0; v < domain; ++v) {
          if (hist[v] == 0) continue;
          if (first) {
            mn = v;
            first = false;
          }
          mx = v;
          cum += hist[v];
          if (!median_found && cum >= k + 1) {
            median = v;
            median_found = true;
          }
        }
        mins_[a] = mn;
        maxs_[a] = mx;
        medians_[a] = median;
      }
    } else {
      for (AttrId a = 0; a < d; ++a) {
        const Value* col = s_.cols[a];
        Value lo = col[rows_[begin]], hi = lo;
        for (std::size_t i = begin + 1; i < end; ++i) {
          const Value v = col[rows_[i]];
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
        mins_[a] = lo;
        maxs_[a] = hi;
      }
    }

    // Candidate attributes by descending normalized spread inside the
    // range; the per-attribute min doubles as the median cut's lower guard.
    spreads_.clear();
    for (AttrId a = 0; a < d; ++a) {
      double spread = static_cast<double>(maxs_[a] - mins_[a]) /
                      static_cast<double>(s_.table.schema().qi(a).domain_size);
      spreads_.push_back({spread, a});
    }
    std::sort(spreads_.begin(), spreads_.end(), [](const auto& x, const auto& y) {
      return x.first != y.first ? x.first > y.first : x.second < y.second;
    });

    for (std::size_t si = 0; si < spreads_.size(); ++si) {
      const double spread = spreads_[si].first;
      const AttrId attr = spreads_[si].second;
      if (spread <= 0.0) break;  // no attribute with two distinct values
      Value split = MedianSplitValue(begin, end, attr, use_hist);
      if (split == 0) continue;  // all rows share one value on attr

      // Counting pass: side sizes and SA histograms, without moving
      // anything, so a rejected cut leaves the range untouched.
      for (SaValue v : touched_) left_counts_[v] = right_counts_[v] = 0;
      touched_.clear();
      const Value* cut_col = s_.cols[attr];
      std::uint64_t left_total = 0, right_total = 0;
      std::uint32_t left_max = 0, right_max = 0;
      for (std::size_t i = begin; i < end; ++i) {
        SaValue v = sa_[i];
        if (left_counts_[v] == 0 && right_counts_[v] == 0) touched_.push_back(v);
        if (cut_col[rows_[i]] < split) {
          left_max = std::max(left_max, ++left_counts_[v]);
          ++left_total;
        } else {
          right_max = std::max(right_max, ++right_counts_[v]);
          ++right_total;
        }
      }
      if (left_total == 0 || right_total == 0) continue;
      if (left_total < static_cast<std::uint64_t>(s_.l) * left_max ||
          right_total < static_cast<std::uint64_t>(s_.l) * right_max) {
        continue;  // a side would not be l-eligible
      }

      // Commit: stable two-way partition of rows_ and sa_ in place. The
      // right side detours through the scratch buffer so both sides keep
      // their relative order (identical to the seed's push_back copies).
      scratch_.clear();
      std::size_t write = begin;
      for (std::size_t i = begin; i < end; ++i) {
        RowId r = rows_[i];
        if (cut_col[r] < split) {
          rows_[write++] = r;
        } else {
          scratch_.push_back(r);
        }
      }
      std::copy(scratch_.begin(), scratch_.end(), rows_.begin() + write);
      const SaValue* sa_col = s_.table.sa_column().data();
      for (std::size_t i = begin; i < end; ++i) sa_[i] = sa_col[rows_[i]];

      *out_attr = attr;
      *out_split = split;
      *out_mid = write;
      return true;
    }
    return false;
  }

 private:
  /// The median cut point for `attr` within [begin, end): the smallest
  /// value v such that at least half the rows are strictly below v, or 0
  /// when the rows share a single value (no cut). The histogram pass
  /// already computed the median; the fallback selects it with
  /// nth_element -- the (k+1)-th smallest value either way, exactly the
  /// seed's values[size/2] after a full sort.
  Value MedianSplitValue(std::size_t begin, std::size_t end, AttrId attr, bool use_hist) {
    if (mins_[attr] == maxs_[attr]) return 0;
    Value median;
    if (use_hist) {
      median = medians_[attr];
    } else {
      const Value* col = s_.cols[attr];
      values_.resize(end - begin);
      for (std::size_t i = begin; i < end; ++i) values_[i - begin] = col[rows_[i]];
      const std::size_t k = values_.size() / 2;
      std::nth_element(values_.begin(), values_.begin() + k, values_.end());
      median = values_[k];
    }
    // Cut strictly above the minimum so both sides are nonempty.
    return median > mins_[attr] ? median : median + 1;
  }

  const MondrianShared& s_;
  BoxGeneralization* out_;

  ScratchVec<std::uint32_t> scratch_s_, values_s_, vhist_s_;
  ScratchVec<std::uint32_t> left_counts_s_, right_counts_s_, touched_s_;
  std::vector<RowId>& rows_;             // the single shared row index buffer
  std::vector<SaValue>& sa_;             // SA column, permuted alongside rows_
  std::vector<std::uint32_t>& scratch_;  // right-side staging for stable partition
  std::vector<Value>& values_;           // nth_element fallback scratch
  std::vector<std::uint32_t>& vhist_;    // concatenated per-attr value histograms
  std::vector<std::uint32_t>& left_counts_;   // dense SA histograms,
  std::vector<std::uint32_t>& right_counts_;  // reset via touched_
  std::vector<SaValue>& touched_;
  std::vector<std::pair<double, AttrId>> spreads_;
  std::vector<Value> mins_, maxs_, medians_;
  Bounds box_;  // current box, mutated and restored around recursion
};

// One pending subtree of the parallel driver: its row range and the box
// the sequential recursion would have carried into it.
struct FrontierNode {
  std::size_t begin = 0;
  std::size_t end = 0;
  Bounds box;
  bool leaf = false;  // TrySplit already failed: the node is one group
};

// Parallel Mondrian: expand the top of the tree sequentially into a
// left-to-right frontier of independent subtrees, solve the subtrees in
// parallel (disjoint row ranges, per-task scratch, per-task outputs), and
// concatenate the per-subtree groups in frontier order. The tree is a pure
// function of (table, l) -- every node's cut depends only on the rows it
// covers -- and frontier order is depth-first left-to-right order, so the
// merged output is byte-identical to the sequential recursion at any
// thread count.
void RunParallel(const MondrianShared& shared, std::vector<RowId>& rows,
                 std::vector<SaValue>& sa, unsigned threads, Workspace& ws,
                 BoxGeneralization* out) {
  const std::size_t target_nodes = 8 * static_cast<std::size_t>(threads);
  const std::size_t cutoff =
      std::max<std::size_t>(4096, shared.n / (8 * static_cast<std::size_t>(threads)));

  std::vector<FrontierNode> frontier;
  frontier.push_back({0, shared.n, shared.RootBox(), false});
  MondrianWalker expander(shared, rows, sa, nullptr, ws);
  while (frontier.size() < target_nodes) {
    // Expand the largest splittable node; stop when every remaining node
    // is below the task-granularity cutoff (its subtree runs as one task).
    std::size_t best = frontier.size();
    std::size_t best_size = cutoff;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const std::size_t size = frontier[i].end - frontier[i].begin;
      if (!frontier[i].leaf && size >= best_size) {
        best = i;
        best_size = size + 1;
      }
    }
    if (best == frontier.size()) break;
    FrontierNode& node = frontier[best];
    expander.box() = node.box;
    AttrId attr = 0;
    Value split = 0;
    std::size_t mid = 0;
    if (!expander.TrySplit(node.begin, node.end, &attr, &split, &mid)) {
      node.leaf = true;
      continue;
    }
    FrontierNode right = node;
    node.end = mid;
    node.box.hi[attr] = split;
    right.begin = mid;
    right.box.lo[attr] = split;
    frontier.insert(frontier.begin() + static_cast<std::ptrdiff_t>(best) + 1,
                    std::move(right));
  }

  // Solve the subtrees in parallel, one task per frontier node, each with
  // its own walker (scratch from the executing thread's workspace) and
  // its own outputs. Leaf nodes re-run one failing TrySplit and emit.
  std::vector<BoxGeneralization> gens(frontier.size());
  ParallelFor(frontier.size(), 1, ws,
              [&](std::size_t begin, std::size_t end, Workspace& cws) {
                for (std::size_t i = begin; i < end; ++i) {
                  MondrianWalker walker(shared, rows, sa, &gens[i], cws);
                  walker.box() = frontier[i].box;
                  walker.Recurse(frontier[i].begin, frontier[i].end);
                }
              });

  for (const BoxGeneralization& gen : gens) out->Append(gen);
}

}  // namespace

MondrianResult MondrianAnonymize(const Table& table, std::uint32_t l, Workspace* workspace) {
  MondrianResult result;
  if (table.empty()) {
    result.feasible = true;
    return result;
  }
  if (!IsTableEligible(table, l)) return result;
  auto start = std::chrono::steady_clock::now();

  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;
  MondrianShared shared(table, l);

  // The recursion's resident working set is dominated by the two O(n)
  // buffers below; under a workspace budget, account for them so peak()
  // reflects the solve (the passes themselves already run chunk-at-a-time
  // over columns or in-place over these buffers).
  MemoryReservation budget_charge(ws.budget(), 2ull * shared.n * sizeof(std::uint32_t));

  // The shared row-id and SA buffers every walker indexes into.
  auto rows_s = ws.U32();
  std::vector<RowId>& rows = *rows_s;
  rows.resize(shared.n);
  std::iota(rows.begin(), rows.end(), 0u);
  auto sa_s = ws.U32();
  std::vector<SaValue>& sa = *sa_s;
  sa.resize(shared.n);
  for (RowId r = 0; r < shared.n; ++r) sa[r] = table.sa(r);

  // Every row lands in exactly one group.
  result.generalization.ReserveRows(shared.n);
  const unsigned threads = ws.threads();
  if (threads > 1 && shared.n >= 8192) {
    RunParallel(shared, rows, sa, threads, ws, &result.generalization);
  } else {
    MondrianWalker walker(shared, rows, sa, &result.generalization, ws);
    walker.Recurse(0, shared.n);
  }
  // Splits are global cuts of the parent box, so the boxes tile the QI
  // space (see MondrianResult::generalization).
  result.generalization.MarkTiling();
  result.generalization.ShrinkToFit();
  result.partition = result.generalization.partition();

  result.feasible = true;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  LDIV_DCHECK(result.partition.CoversExactly(table));
  return result;
}

}  // namespace ldv
