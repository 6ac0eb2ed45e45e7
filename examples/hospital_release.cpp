// Hospital scenario from the paper's introduction: a hospital releases
// patient records to medical researchers and must defeat linking attacks
// without the homogeneity problem of plain k-anonymity. Demonstrates why
// l-diversity is needed and how every algorithm in the registry compares
// on medical-style data (small QI domains, skewed diagnosis column -- the
// Section 5.6 sweet spot for TP).
//
//   build/examples/hospital_release

#include <cstdio>

#include "anonymity/eligibility.h"
#include "anonymity/generalization.h"
#include "common/rng.h"
#include "common/text_table.h"
#include "core/algorithm.h"

using namespace ldv;

namespace {

// Fraction of tuples in a QI-group of two or more whose members all share
// one SA value: the homogeneity problem of plain k-anonymity (Section 1),
// where an adversary learns the diagnosis without identifying the tuple.
double HomogeneousTupleFraction(const Table& table, const Partition& partition) {
  std::size_t exposed = 0;
  for (GroupId g = 0; g < partition.group_count(); ++g) {
    const auto rows = partition.group(g);
    bool homogeneous = rows.size() >= 2;
    for (RowId r : rows) homogeneous = homogeneous && table.sa(r) == table.sa(rows[0]);
    if (homogeneous) exposed += rows.size();
  }
  return static_cast<double>(exposed) / static_cast<double>(table.size());
}

// Synthetic hospital microdata: AgeBand(16), Gender(2), Ward(12),
// AdmissionMonth(12); Diagnosis(20), skewed like real ICD frequency data.
Table HospitalData(std::size_t n) {
  Schema schema({Attribute{"AgeBand", 16}, Attribute{"Gender", 2}, Attribute{"Ward", 12},
                 Attribute{"AdmissionMonth", 12}},
                Attribute{"Diagnosis", 20});
  Table table(schema);
  Rng rng(99);
  ZipfSampler diagnosis(20, 0.9);
  std::vector<Value> row(4);
  for (std::size_t i = 0; i < n; ++i) {
    Value age = rng.Below(16);
    row[0] = age;
    row[1] = rng.Below(2);
    // Ward correlates with age (geriatric vs pediatric wards).
    row[2] = (rng.Below(4) + age * 12 / 16 * 3) % 12;
    row[3] = rng.Below(12);
    table.AppendRow(row, diagnosis.Sample(rng));
  }
  return table;
}

}  // namespace

int main() {
  Table records = HospitalData(20000);
  std::printf("Hospital microdata: %zu records, schema %s\n\n", records.size(),
              records.schema().ToString().c_str());

  const AlgorithmRegistry& registry = AlgorithmRegistry::Global();

  // Step 1: show the homogeneity problem. A 4-anonymous partition built by
  // grouping identical QI signatures (padding small groups together) can
  // still leak diagnoses.
  AnonymizationOutcome k_anon_like = registry.Get(Algorithm::kHilbert).Run(records, 1);
  std::printf("k-anonymity-style release (no SA constraint):\n");
  std::printf("  homogeneous-group tuple fraction: %.2f%%\n\n",
              100.0 * HomogeneousTupleFraction(records, k_anon_like.partition));

  // Step 2: l-diverse releases, one row per registered algorithm.
  TextTable report(
      {"algorithm", "l", "stars", "suppressed", "homog. fraction", "KL", "seconds"});
  for (std::uint32_t l : {3u, 5u}) {
    for (const Anonymizer* algo : registry.All()) {
      AnonymizationOutcome outcome = algo->Run(records, l);
      if (!outcome.feasible) continue;
      report.AddRow({algo->name(), std::to_string(l), std::to_string(outcome.stars),
                     std::to_string(outcome.suppressed_tuples),
                     FormatDouble(HomogeneousTupleFraction(records, outcome.partition), 4),
                     FormatDouble(outcome.kl_divergence, 3),
                     FormatDouble(outcome.seconds, 3)});
    }
  }
  std::printf("l-diverse releases:\n%s\n", report.ToString().c_str());
  std::printf(
      "Every l-diverse release has homogeneous fraction 0: no adversary can\n"
      "infer a diagnosis with confidence above 1/l, even after locating the\n"
      "patient's QI-group (Section 1 threat model).\n");
  return 0;
}
