#include "core/run_spec.h"

namespace ldv {

std::string RunSpecLabel(const RunSpec& spec) {
  return std::string(AlgorithmName(spec.algorithm)) + "/l=" + std::to_string(spec.l) +
         "/table=" + std::to_string(spec.table_index);
}

std::vector<RunSpec> ExpandRunGrid(std::span<const Algorithm> algorithms,
                                   std::span<const std::uint32_t> ls, std::size_t table_count,
                                   const AnonymizerOptions& options) {
  std::vector<RunSpec> specs;
  specs.reserve(table_count * algorithms.size() * ls.size());
  for (std::size_t t = 0; t < table_count; ++t) {
    for (Algorithm algorithm : algorithms) {
      for (std::uint32_t l : ls) {
        RunSpec spec;
        spec.algorithm = algorithm;
        spec.l = l;
        spec.table_index = t;
        spec.options = options;
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

bool ParseAlgorithmList(std::string_view list, std::vector<Algorithm>* out, std::string* error) {
  out->clear();
  if (list.empty()) {
    *error = "empty algorithm list (registered: " + RegisteredAlgorithmNames(", ") + ")";
    return false;
  }
  std::string_view rest = list;
  while (true) {
    std::size_t comma = rest.find(',');
    std::string_view name = rest.substr(0, comma);
    if (name == "all" || name == "ALL" || name == "All") {
      for (const Anonymizer* algo : AlgorithmRegistry::Global().All()) {
        out->push_back(algo->id());
      }
    } else {
      const Anonymizer* algo = AlgorithmRegistry::Global().Find(name);
      if (algo == nullptr) {
        *error = "unknown algorithm '" + std::string(name) +
                 "' (registered: " + RegisteredAlgorithmNames(", ") + ", or 'all')";
        return false;
      }
      out->push_back(algo->id());
    }
    if (comma == std::string_view::npos) return true;
    rest.remove_prefix(comma + 1);
  }
}

std::string RegisteredAlgorithmNames(std::string_view separator) {
  std::string names;
  for (const Anonymizer* algo : AlgorithmRegistry::Global().All()) {
    if (!names.empty()) names += separator;
    names += algo->name();
  }
  return names;
}

}  // namespace ldv
