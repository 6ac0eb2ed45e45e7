#include "core/anonymizer.h"

namespace ldv {

AnonymizationOutcome Anonymize(const Table& table, std::uint32_t l, Algorithm algorithm,
                               const AnonymizerOptions& options, Workspace* workspace) {
  return AlgorithmRegistry::Global().Create(algorithm, options)->Run(table, l, workspace);
}

}  // namespace ldv
