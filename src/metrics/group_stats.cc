#include "metrics/group_stats.h"

#include <algorithm>

namespace ldv {

GroupSizeStats ComputeGroupSizeStats(const Partition& partition) {
  GroupSizeStats stats;
  stats.group_count = partition.group_count();
  if (stats.group_count == 0) return stats;
  stats.min_size = partition.group(0).size();
  for (GroupId g = 0; g < partition.group_count(); ++g) {
    stats.min_size = std::min(stats.min_size, partition.group(g).size());
    stats.max_size = std::max(stats.max_size, partition.group(g).size());
  }
  stats.mean_size =
      static_cast<double>(partition.row_count()) / static_cast<double>(stats.group_count);
  return stats;
}

}  // namespace ldv
