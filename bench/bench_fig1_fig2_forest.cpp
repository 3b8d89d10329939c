// Reproduces Fig. 1 and Fig. 2: mixing-forest construction for the PCR
// master-mix ratio 2:1:1:1:1:1:9 (d = 4) at demands 16 and 20.
//
// Paper values: D=16 -> |F| = 8,  Tms = 19, W = 0, I = [2,1,1,1,1,1,9] (16)
//               D=20 -> |F| = 10, Tms = 27, W = 5, I = [3,2,2,2,2,2,12] (25)
#include <iostream>

#include "forest/task_forest.h"
#include "mixgraph/builders.h"
#include "protocols/protocols.h"
#include "report/table.h"

#include "bench_obs.h"

int main() {
  const dmf::bench::BenchSession benchObs("fig1_fig2_forest");
  using namespace dmf;

  const Ratio ratio = protocols::pcrMasterMixRatio();
  const mixgraph::MixingGraph graph = mixgraph::buildMM(ratio);

  std::cout << "# Fig. 1 / Fig. 2 — mixing forest for " << ratio.toString()
            << " (MM base tree, d = " << ratio.accuracy() << ")\n\n";

  report::Table table({"demand D", "|F|", "Tms", "W", "I", "I[] per fluid",
                       "paper (|F|, Tms, W, I)"});
  struct Reference {
    std::uint64_t demand;
    std::string paper;
  };
  for (const Reference& ref :
       {Reference{16, "8, 19, 0, 16"}, Reference{20, "10, 27, 5, 25"}}) {
    const forest::TaskForest forest(graph, ref.demand);
    const auto& s = forest.stats();
    std::string perFluid;
    for (std::size_t i = 0; i < s.inputPerFluid.size(); ++i) {
      if (i > 0) perFluid += ',';
      perFluid += std::to_string(s.inputPerFluid[i]);
    }
    table.addRow({std::to_string(ref.demand),
                  std::to_string(s.componentTrees),
                  std::to_string(s.mixSplits), std::to_string(s.waste),
                  std::to_string(s.inputTotal), perFluid, ref.paper});
  }
  std::cout << table.render();

  std::cout << "\n# Waste-free demands (D = p * 2^d):\n\n";
  report::Table zeros({"demand D", "W", "I"});
  for (std::uint64_t p = 1; p <= 4; ++p) {
    const forest::TaskForest forest(graph, p * 16);
    zeros.addRow({std::to_string(p * 16),
                  std::to_string(forest.stats().waste),
                  std::to_string(forest.stats().inputTotal)});
  }
  std::cout << zeros.render();
  return 0;
}
