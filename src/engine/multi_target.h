// Multi-target preparation engine: satisfy droplet demands for several
// different mixtures from one shared mixing forest (the SDMT/MDMT
// generalization of the paper's Table 1). Sharing sub-mixtures across
// targets saves reactant and time over preparing each target separately.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/mdst.h"

namespace dmf::engine {

/// One target mixture and how many droplets of it are needed.
struct TargetDemand {
  Ratio ratio;
  std::uint64_t demand = 2;
};

/// Metrics of a multi-target run, with the separate-preparation comparison.
struct MultiTargetResult {
  /// Shared-forest execution.
  unsigned completionTime = 0;
  unsigned storageUnits = 0;
  std::uint64_t mixSplits = 0;
  std::uint64_t waste = 0;
  std::uint64_t inputDroplets = 0;
  unsigned mixers = 0;
  /// Baseline: each target prepared by its own engine, run back to back on
  /// the same mixer bank (sum of completion times / inputs, max storage).
  unsigned separateCompletionTime = 0;
  unsigned separateStorageUnits = 0;
  std::uint64_t separateInputDroplets = 0;
  std::uint64_t separateWaste = 0;
};

/// Runs the shared multi-target forest and the separate baseline. All
/// targets must share fluid space and accuracy (buildMultiTarget's rules).
/// `mixers == 0` resolves to the minimum mixer count that lets the shared
/// two-droplet pass finish at its critical path. Throws
/// std::invalid_argument on an empty target list or zero demands.
[[nodiscard]] MultiTargetResult runMultiTarget(
    const std::vector<TargetDemand>& targets, Scheme scheme = Scheme::kSRS,
    unsigned mixers = 0);

}  // namespace dmf::engine
