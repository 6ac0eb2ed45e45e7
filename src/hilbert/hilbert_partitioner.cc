#include "hilbert/hilbert_partitioner.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "anonymity/eligibility.h"
#include "common/check.h"
#include "common/external_sort.h"
#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/workspace.h"
#include "hilbert/hilbert_curve.h"

namespace ldv {

namespace {

// Incremental l-eligibility tracker for a growing multiset of SA values,
// backed by a caller-supplied dense counter so repeated splits reuse one
// buffer.
class GrowingEligibility {
 public:
  GrowingEligibility(std::vector<std::uint32_t>* counts, std::vector<SaValue>* touched,
                     std::size_t m)
      : counts_(*counts), touched_(*touched) {
    counts_.assign(m, 0);
    touched_.clear();
  }

  void Add(SaValue v) {
    ++counts_[v];
    touched_.push_back(v);
    max_ = std::max(max_, counts_[v]);
    ++total_;
  }

  bool Eligible(std::uint32_t l) const {
    return total_ >= static_cast<std::uint64_t>(l) * max_;
  }

  std::uint64_t total() const { return total_; }

  void Reset() {
    for (SaValue v : touched_) counts_[v] = 0;
    touched_.clear();
    max_ = 0;
    total_ = 0;
  }

 private:
  std::vector<std::uint32_t>& counts_;
  std::vector<SaValue>& touched_;
  std::uint32_t max_ = 0;
  std::uint64_t total_ = 0;
};

// The table's rows as points on one Hilbert curve, sized to the widest QI
// domain. Domains larger than the representable grid are right-shifted
// (graceful coarsening); the paper's workloads (d <= 7, domains <= 79)
// always fit exactly.
struct RowEncoder {
  HilbertCurve curve;
  std::uint32_t shift;
  std::vector<const Value*> cols;

  void Encode(std::size_t begin, std::size_t count, std::uint64_t* out) const {
    curve.EncodeBlock(cols.data(), shift, begin, count, out);
  }
};

RowEncoder MakeRowEncoder(const Table& table) {
  const std::uint32_t d = static_cast<std::uint32_t>(table.qi_count());
  std::uint32_t bits_needed = 1;
  std::vector<const Value*> cols(d);
  for (AttrId a = 0; a < d; ++a) {
    bits_needed = std::max(bits_needed,
                           HilbertCurve::BitsForDomain(table.schema().qi(a).domain_size));
    cols[a] = table.column(a).data();
  }
  const std::uint32_t bits = std::min(bits_needed, std::max(1u, 64u / d));
  return {HilbertCurve(d, bits), bits_needed - bits, std::move(cols)};
}

// Hilbert code per row, written into `codes`. The encode is a pure
// per-row map, so the rows are fanned out in fixed chunks -- the result
// cannot depend on the thread count.
void ComputeCodes(const Table& table, Workspace& ws, std::vector<std::uint64_t>* codes) {
  const RowEncoder encoder = MakeRowEncoder(table);
  codes->resize(table.size());
  std::uint64_t* out = codes->data();
  ParallelFor(table.size(), 8192, ws, [&](std::size_t begin, std::size_t end, Workspace&) {
    encoder.Encode(begin, end - begin, out + begin);
  });
}

// Out-of-core variant of ComputeOrder: rows are Hilbert-encoded in fixed
// chunks and fed straight into a budget-bounded external sort of
// (code, row) records, so neither the full code array (8 bytes/row) nor
// any sort scratch is ever resident -- peak memory is one encode chunk
// plus the sorter's buffer. The sorted (key, payload) order equals the
// in-RAM path's comparator `codes[a] < codes[b], ties by a < b` exactly,
// so the emitted order is byte-identical.
void ComputeOrderExternal(const Table& table, Workspace& ws, std::vector<RowId>* order) {
  constexpr std::size_t kEncodeChunk = 65536;
  const RowEncoder encoder = MakeRowEncoder(table);
  std::string sort_error;
  std::unique_ptr<ExternalSorter> sorter = ExternalSorter::Create(
      ExternalSorter::Options{.budget = ws.budget(), .workspace = &ws}, &sort_error);
  // Recoverable: the engine boundary converts the throw to a typed I/O
  // error instead of aborting the process mid-sort.
  if (sorter == nullptr) throw IoFailure("external sort unavailable: " + sort_error);

  auto chunk_s = ws.U64();
  std::vector<std::uint64_t>& chunk = *chunk_s;
  chunk.resize(std::min(table.size(), kEncodeChunk));
  for (std::size_t begin = 0; begin < table.size(); begin += kEncodeChunk) {
    const std::size_t count = std::min(kEncodeChunk, table.size() - begin);
    encoder.Encode(begin, count, chunk.data());
    for (std::size_t i = 0; i < count; ++i) sorter->Add(chunk[i], begin + i);
  }
  sorter->Finish();
  order->resize(table.size());
  SortRecord record;
  for (std::size_t i = 0; i < table.size(); ++i) {
    LDIV_CHECK(sorter->Next(&record)) << "external sort lost records";
    (*order)[i] = static_cast<RowId>(record.payload);
  }
}

// The rows sorted by code, ties by row: an LSD radix over the codes'
// kDigitBits-bit digits, with only as many passes as the largest code
// needs. Every pass is a stable scatter and the first reads the rows in
// ascending order, so the result is exactly the order of the comparator
// `codes[a] < codes[b], ties by a < b`.
void RadixOrder(const std::vector<std::uint64_t>& codes, std::vector<RowId>* scratch,
                std::vector<RowId>* order) {
  constexpr unsigned kDigitBits = 11;
  constexpr std::uint64_t kDigitMask = (std::uint64_t{1} << kDigitBits) - 1;
  const std::uint64_t largest = codes.empty() ? 0 : *std::ranges::max_element(codes);
  order->resize(codes.size());
  std::iota(order->begin(), order->end(), 0u);
  scratch->resize(codes.size());
  RowId* from = order->data();
  RowId* to = scratch->data();
  std::vector<std::uint32_t> start(kDigitMask + 1);
  for (unsigned shift = 0; shift < 64 && largest >> shift != 0; shift += kDigitBits) {
    std::ranges::fill(start, 0u);
    for (std::uint64_t code : codes) ++start[(code >> shift) & kDigitMask];
    std::exclusive_scan(start.begin(), start.end(), start.begin(), 0u);
    for (std::size_t i = 0; i < codes.size(); ++i) {
      to[start[(codes[from[i]] >> shift) & kDigitMask]++] = from[i];
    }
    std::swap(from, to);
  }
  if (from != order->data()) std::copy(from, from + codes.size(), order->data());
}

// Sorted Hilbert order of the table's rows, drawn from the workspace.
// Under a workspace budget that cannot fit the codes, the order and the
// radix scratch, the external-sort path streams instead (byte-identical
// output).
void ComputeOrder(const Table& table, Workspace& ws, std::vector<RowId>* order) {
  const std::shared_ptr<MemoryBudget> budget = ws.budget();
  if (budget != nullptr && !budget->WouldFit(16ull * table.size())) {
    ComputeOrderExternal(table, ws, order);
    return;
  }
  auto codes_s = ws.U64();
  std::vector<std::uint64_t>& codes = *codes_s;
  ComputeCodes(table, ws, &codes);
  auto scratch_s = ws.U32();
  RadixOrder(codes, &*scratch_s, order);
}

// Greedy splitter: close each group as soon as it becomes l-eligible; merge
// an ineligible tail backwards (the union of l-eligible groups stays
// l-eligible by Lemma 1, and the whole table is l-eligible, so the merge
// terminates). Group start offsets are appended to `starts`.
void GreedySplit(const Table& table, const std::vector<RowId>& order, std::uint32_t l,
                 Workspace& ws, std::vector<std::uint32_t>* starts) {
  auto counts_s = ws.U32();
  auto touched_s = ws.U32();
  GrowingEligibility acc(&*counts_s, &*touched_s, table.schema().sa_domain_size());
  std::size_t group_start = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (acc.total() == 0) group_start = i;
    acc.Add(table.sa(order[i]));
    if (acc.Eligible(l)) {
      starts->push_back(static_cast<std::uint32_t>(group_start));
      acc.Reset();
    }
  }
  if (acc.total() > 0) {
    // Ineligible tail: merge backwards until the combined suffix is
    // l-eligible (at worst the suffix becomes the whole table).
    std::size_t tail_start = group_start;
    while (!acc.Eligible(l)) {
      LDIV_CHECK(!starts->empty());
      std::size_t prev = starts->back();
      starts->pop_back();
      for (std::size_t i = prev; i < tail_start; ++i) acc.Add(table.sa(order[i]));
      tail_start = prev;
    }
    starts->push_back(static_cast<std::uint32_t>(tail_start));
  }
}

// Sliding-window DP splitter: dp[i] = fewest stars for the first i rows in
// Hilbert order, transitioning over the last group (j, i]. Groups larger
// than the window are considered only when no in-window transition is
// eligible, which keeps the DP feasible on adversarial SA runs.
//
// The dominant cost -- scanning every position's candidate window for
// group eligibility and star counts -- depends only on the data, never on
// dp, so it is computed block-parallel: fixed chunks of positions fill a
// candidate-cost table (stars of (j, i], or a sentinel when ineligible),
// then a sequential combine walks the positions in order and resolves the
// dp recurrence over the precomputed costs. Positions whose window holds
// no eligible reachable transition replay the original unbounded backward
// scan (the adversarial-run escape hatch, which does consult dp); the
// replay is verbatim the sequential loop, so the split is byte-identical
// to the single-threaded path at any thread count.
void WindowDpSplit(const Table& table, const std::vector<RowId>& order, std::uint32_t l,
                   std::uint32_t window, Workspace& ws, std::vector<std::uint32_t>* starts) {
  const std::size_t n = order.size();
  const std::size_t d = table.qi_count();
  const std::size_t m = table.schema().sa_domain_size();
  const std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint32_t kIneligible = std::numeric_limits<std::uint32_t>::max();
  const std::size_t w = std::min<std::size_t>(std::max(1u, window), n);
  // In-window star counts are at most d * w; they must stay clear of the
  // sentinel for the u32 candidate table to be lossless.
  LDIV_CHECK_LT(static_cast<std::uint64_t>(d) * w, kIneligible);

  auto dp_s = ws.U64();
  std::vector<std::uint64_t>& dp = *dp_s;
  dp.assign(n + 1, kInf);
  auto parent_s = ws.U32();
  std::vector<std::uint32_t>& parent = *parent_s;
  parent.assign(n + 1, 0);
  dp[0] = 0;

  std::vector<const Value*> cols(d);
  for (AttrId a = 0; a < d; ++a) cols[a] = table.column(a).data();

  // Candidate-cost table for one block of positions: entry k * w + off is
  // the cost of ending a group at position i = block_begin + k with the
  // transition j = i - 1 - off. Blocked so the table stays a few MB even
  // for wide windows; the block size is a function of (n, w) only.
  const std::size_t kMaxEntries = std::size_t{1} << 22;
  const std::size_t block = std::max<std::size_t>(1, kMaxEntries / w);
  auto cand_s = ws.U32();
  std::vector<std::uint32_t>& cand = *cand_s;
  cand.resize(std::min(n, block) * w);

  // Scratch for the sequential escape-hatch replay.
  auto fb_counts_s = ws.U32();
  auto fb_touched_s = ws.U32();
  GrowingEligibility fb_acc(&*fb_counts_s, &*fb_touched_s, m);
  std::vector<Value> fb_first(d);
  std::vector<char> fb_uniform(d);

  for (std::size_t block_begin = 1; block_begin <= n; block_begin += block) {
    const std::size_t count = std::min(block, n + 1 - block_begin);
    // Parallel fill: each chunk of positions keeps one eligibility
    // accumulator and scans its windows backward, exactly like the
    // sequential inner loop (minus the dp-dependent parts).
    ParallelFor(count, 128, ws, [&](std::size_t cb, std::size_t ce, Workspace& cws) {
      auto counts_s = cws.U32();
      auto touched_s = cws.U32();
      GrowingEligibility acc(&*counts_s, &*touched_s, m);
      std::vector<Value> first_value(d);
      std::vector<char> uniform(d);
      for (std::size_t k = cb; k < ce; ++k) {
        const std::size_t i = block_begin + k;
        std::uint32_t* out = cand.data() + k * w;
        acc.Reset();
        std::fill(uniform.begin(), uniform.end(), 1);
        for (std::size_t a = 0; a < d; ++a) first_value[a] = cols[a][order[i - 1]];
        std::size_t nonuniform = 0;
        const std::size_t lo = i > w ? i - w : 0;
        for (std::size_t j = i; j-- > lo;) {
          acc.Add(table.sa(order[j]));
          const RowId row = order[j];
          for (std::size_t a = 0; a < d; ++a) {
            if (uniform[a] && cols[a][row] != first_value[a]) {
              uniform[a] = 0;
              ++nonuniform;
            }
          }
          out[i - 1 - j] = acc.Eligible(l)
                               ? static_cast<std::uint32_t>(nonuniform * (i - j))
                               : kIneligible;
        }
      }
    });

    // Sequential combine, positions in ascending order: the recurrence
    // itself, over the precomputed candidate costs. Descending-j candidate
    // order and the strict improvement test reproduce the sequential
    // tie-breaking (ties keep the larger j).
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t i = block_begin + k;
      const std::uint32_t* row_cand = cand.data() + k * w;
      const std::size_t limit = std::min(i, w);
      bool found = false;
      for (std::size_t off = 0; off < limit; ++off) {
        const std::uint32_t cost = row_cand[off];
        if (cost == kIneligible) continue;
        const std::size_t j = i - 1 - off;
        if (dp[j] == kInf) continue;
        found = true;
        if (dp[j] + cost < dp[i]) {
          dp[i] = dp[j] + cost;
          parent[i] = static_cast<std::uint32_t>(j);
        }
      }
      if (found || i <= w) continue;
      // No eligible reachable transition inside the window: replay the
      // original unbounded backward scan for this position (verbatim the
      // pre-parallel loop, including its beyond-window stopping rule).
      fb_acc.Reset();
      std::fill(fb_uniform.begin(), fb_uniform.end(), 1);
      for (std::size_t a = 0; a < d; ++a) fb_first[a] = cols[a][order[i - 1]];
      std::size_t nonuniform = 0;
      bool found_eligible = false;
      for (std::size_t j = i; j-- > 0;) {
        fb_acc.Add(table.sa(order[j]));
        const RowId row = order[j];
        for (std::size_t a = 0; a < d; ++a) {
          if (fb_uniform[a] && cols[a][row] != fb_first[a]) {
            fb_uniform[a] = 0;
            ++nonuniform;
          }
        }
        if (i - j > window && found_eligible) break;
        if (!fb_acc.Eligible(l) || dp[j] == kInf) continue;
        found_eligible = true;
        std::uint64_t stars = static_cast<std::uint64_t>(nonuniform) * (i - j);
        if (dp[j] + stars < dp[i]) {
          dp[i] = dp[j] + stars;
          parent[i] = static_cast<std::uint32_t>(j);
        }
      }
    }
  }
  LDIV_CHECK_NE(dp[n], kInf);

  for (std::size_t i = n; i > 0; i = parent[i]) starts->push_back(parent[i]);
  std::reverse(starts->begin(), starts->end());
}

// Emits order[starts[i], starts[i+1]) as the partition's groups.
void EmitGroups(const std::vector<RowId>& order, const std::vector<std::uint32_t>& starts,
                Partition* partition) {
  partition->Reserve(starts.size(), order.size());
  for (std::size_t gi = 0; gi < starts.size(); ++gi) {
    std::size_t end = (gi + 1 < starts.size()) ? starts[gi + 1] : order.size();
    partition->AddGroup(std::span(order).subspan(starts[gi], end - starts[gi]));
  }
}

}  // namespace

void HilbertComputeOrder(const Table& table, Workspace* workspace, std::vector<RowId>* order) {
  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;
  ComputeOrder(table, ws, order);
}

HilbertResult HilbertAnonymize(const Table& table, std::uint32_t l,
                               const HilbertOptions& options, Workspace* workspace,
                               const std::vector<RowId>* precomputed_order) {
  HilbertResult result;
  if (table.empty() || !IsTableEligible(table, l)) {
    result.feasible = table.empty();
    return result;
  }
  auto start_time = std::chrono::steady_clock::now();

  Workspace local;
  Workspace& ws = workspace != nullptr ? *workspace : local;
  auto order_s = ws.U32();
  const std::vector<RowId>* order_ptr;
  if (precomputed_order != nullptr) {
    order_ptr = precomputed_order;
  } else {
    ComputeOrder(table, ws, &*order_s);
    order_ptr = &*order_s;
  }
  const std::vector<RowId>& order = *order_ptr;

  auto starts_s = ws.U32();
  std::vector<std::uint32_t>& starts = *starts_s;
  if (options.splitter == HilbertOptions::Splitter::kGreedy) {
    GreedySplit(table, order, l, ws, &starts);
  } else {
    WindowDpSplit(table, order, l, options.dp_window_factor * l, ws, &starts);
  }

  EmitGroups(order, starts, &result.partition);
  result.feasible = true;
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time).count();
  return result;
}

}  // namespace ldv
