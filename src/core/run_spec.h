#ifndef LDIV_CORE_RUN_SPEC_H_
#define LDIV_CORE_RUN_SPEC_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/algorithm.h"

namespace ldv {

/// One pipeline invocation: run `algorithm` with privacy parameter `l` on
/// the `table_index`-th input table. RunSpecs are the unit the CLI sweeps
/// over, and AnonymizeBatch runs a list of them.
struct RunSpec {
  Algorithm algorithm = Algorithm::kTp;
  std::uint32_t l = 2;
  std::size_t table_index = 0;
  AnonymizerOptions options;
};

/// Human-readable job label, e.g. "TP+/l=4/table=0".
std::string RunSpecLabel(const RunSpec& spec);

/// Expands the full `tables x algorithms x ls` grid in deterministic job
/// order: table-major, then algorithm, then l -- the order results are
/// reported in, independent of how many batch workers run the jobs.
std::vector<RunSpec> ExpandRunGrid(std::span<const Algorithm> algorithms,
                                   std::span<const std::uint32_t> ls, std::size_t table_count,
                                   const AnonymizerOptions& options);

/// Parses a comma-separated list of registry names ("tp,mondrian"), or
/// "all" for every registered algorithm in enum order. Returns false with
/// a message naming the registered algorithms on an unknown name --
/// front-end input, so never an LDIV_CHECK.
bool ParseAlgorithmList(std::string_view list, std::vector<Algorithm>* out, std::string* error);

/// The registered algorithm names in enum order, joined by `separator`
/// (usage strings, error messages).
std::string RegisteredAlgorithmNames(std::string_view separator);

}  // namespace ldv

#endif  // LDIV_CORE_RUN_SPEC_H_
