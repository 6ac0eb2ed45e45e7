#include "core/tp_plus.h"

#include <utility>

#include "common/check.h"

namespace ldv {

TpPlusResult RunTpPlus(const Table& table, std::uint32_t l,
                       const HilbertOptions& hilbert_options, Workspace* workspace,
                       const GroupedTable* grouped) {
  TpPlusResult result;
  TpResult tp = grouped != nullptr ? RunTp(*grouped, l) : RunTp(table, l, workspace);
  if (!tp.feasible) return result;
  result.feasible = true;
  result.tp_stats = tp.stats;
  result.tp_seconds = tp.seconds;

  result.partition = std::move(tp.kept_groups);

  if (!tp.residue_rows.empty()) {
    // Refine R with the Hilbert baseline; R is l-eligible by construction,
    // so the sub-problem is always feasible.
    Table residue_table = table.SelectRows(tp.residue_rows);
    HilbertResult refined = HilbertAnonymize(residue_table, l, hilbert_options, workspace);
    LDIV_CHECK(refined.feasible) << "residue set must be l-eligible";
    result.hilbert_seconds = refined.seconds;
    result.partition.Reserve(refined.partition.group_count(), tp.residue_rows.size());
    std::vector<RowId> rows;  // one refined group, mapped back to table rows
    for (GroupId g = 0; g < refined.partition.group_count(); ++g) {
      rows.clear();
      for (RowId local : refined.partition.group(g)) rows.push_back(tp.residue_rows[local]);
      result.partition.AddGroup(rows);
    }
  }
  return result;
}

}  // namespace ldv
