#include "core/anonymizer.h"

namespace ldv {

AnonymizationOutcome Anonymize(const Table& table, std::uint32_t l, Algorithm algorithm,
                               const AnonymizerOptions& options, Workspace* workspace) {
  return AlgorithmRegistry::Global().Get(algorithm).Run(table, l, options, workspace);
}

}  // namespace ldv
