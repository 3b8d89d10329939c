// Reproduces Table 4: streaming the PCR master-mix with three on-chip mixers
// under fixed storage budgets. For each accuracy level d (the percentages
// re-approximated on scale 2^d), storage cap q' and demand D, report the
// number of passes and the total (time-cycles, waste droplets).
//
// Paper anchors (d=4): D=2 -> One (4,6) for every q'; D=16, q'>=5 -> One
// (7,0); larger demands under tight storage need Two/Three passes.
//
// One persistent engine + PassCache per accuracy level: the 12 cells of a
// level share every candidate-pass evaluation (the same D' forests recur
// across caps and demands).
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "engine/pass_cache.h"
#include "engine/streaming.h"
#include "protocols/protocols.h"
#include "report/table.h"

#include "bench_obs.h"

int main(int argc, char** argv) {
  const dmf::bench::BenchSession benchObs("table4_streaming", argc, argv);
  using namespace dmf;

  std::cout << "# Table 4 — PCR master-mix streaming, 3 mixers, capped "
               "storage\n# cell format: passes (total cycles, total waste)\n\n";

  const std::vector<double>& percentages =
      protocols::pcrMasterMixPercentages();

  std::vector<std::string> headers{"D"};
  for (unsigned d : {4u, 5u, 6u}) {
    for (unsigned q : {3u, 5u, 7u}) {
      headers.push_back("d=" + std::to_string(d) +
                        ",q'=" + std::to_string(q));
    }
  }
  report::Table table(headers);

  // Engines and caches persist across the demand rows.
  struct Level {
    std::unique_ptr<engine::MdstEngine> engine;
    engine::PassCache cache;
  };
  std::map<unsigned, Level> levels;
  for (unsigned d : {4u, 5u, 6u}) {
    levels[d].engine = std::make_unique<engine::MdstEngine>(
        protocols::approximatePercentages(percentages, d));
  }

  for (std::uint64_t demand : {2u, 16u, 20u, 32u}) {
    std::vector<std::string> row{std::to_string(demand)};
    for (unsigned d : {4u, 5u, 6u}) {
      Level& level = levels[d];
      for (unsigned cap : {3u, 5u, 7u}) {
        engine::StreamingRequest request;
        request.algorithm = mixgraph::Algorithm::MM;
        request.scheme = engine::Scheme::kSRS;
        request.demand = demand;
        request.storageCap = cap;
        request.mixers = 3;
        try {
          const engine::StreamingPlan plan =
              planStreaming(*level.engine, request, level.cache);
          row.push_back(std::to_string(plan.passes.size()) + " (" +
                        std::to_string(plan.totalCycles) + "," +
                        std::to_string(plan.totalWaste) + ")");
        } catch (const std::exception&) {
          row.push_back("infeasible");
        }
      }
    }
    table.addRow(std::move(row));
  }
  std::cout << table.render();

  // Cache accounting goes to stderr, so stdout stays a diffable table.
  for (unsigned d : {4u, 5u, 6u}) {
    const engine::PassCacheStats stats = levels[d].cache.stats();
    std::cerr << "d=" << d << " pass cache: " << stats.hits << " hits, "
              << stats.misses << " misses over " << stats.evaluations()
              << " evaluations\n";
  }

  std::cout << "\nApproximated ratios per accuracy level:\n";
  for (unsigned d : {4u, 5u, 6u}) {
    std::cout << "  d=" << d << " : "
              << protocols::approximatePercentages(percentages, d).toString()
              << "\n";
  }
  std::cout << "\nPaper (d=4): D=2 -> One(4,6); D=16 -> Two(10,7) at q'=3, "
               "One(7,0) at q'>=5;\nD=20 -> Two(11,5)/One(11,5); D=32 -> "
               "Three(17,7)/Two(14,0).\n";
  return 0;
}
