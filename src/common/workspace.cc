#include "common/workspace.h"

#include "common/parallel.h"

namespace ldv {

// The process defaults are read at every use, not captured at
// construction, so a default Workspace sees whatever SetThreadBudget,
// InnerThreadsScope and SetMemoryBudget say at the moment a kernel asks.

unsigned Workspace::threads() const { return own_context_ ? threads_ : InnerThreads(); }

std::shared_ptr<MemoryBudget> Workspace::budget() const {
  if (own_context_) return budget_;
  std::shared_ptr<MemoryBudget> global = GlobalMemoryBudgetShared();
  return global->unlimited() ? nullptr : global;
}

}  // namespace ldv
