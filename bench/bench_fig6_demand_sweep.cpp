// Reproduces Fig. 6: average completion time Tc and average input-droplet
// count I as the demand D grows, over the synthetic ratio corpus (L = 32,
// 2 <= N <= 12), comparing repeated baselines (RMM, RMTCS) against the
// forest engine (MM+MMS, MTCS+MMS).
//
// Paper shape: the repeated baselines grow linearly in D; the forest engine
// grows far slower — at D = 32 it uses roughly a quarter of the inputs.
//
// Evaluation runs through the pass-evaluation layer: one persistent engine
// and PassCache per ratio (base graphs, Mlb and the repeated two-droplet
// baseline pass are computed once instead of once per demand point), fanned
// out over `--jobs N` workers. Per-ratio results land in indexed slots and
// the averages are reduced in ratio order, so the output is byte-identical
// for every job count.
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dmf/parse.h"
#include "engine/baseline.h"
#include "engine/mdst.h"
#include "engine/pass_cache.h"
#include "report/chart.h"
#include "report/table.h"
#include "runtime/parallel_for.h"
#include "workload/ratio_corpus.h"

#include "bench_obs.h"

int main(int argc, char** argv) {
  const dmf::bench::BenchSession benchObs("fig6_demand_sweep", argc, argv);
  using namespace dmf;
  using mixgraph::Algorithm;

  unsigned jobs = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--jobs" && i + 1 < argc) {
      try {
        jobs = readUnsigned<unsigned>(argv[++i], "--jobs");
      } catch (const std::invalid_argument& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
      }
    }
  }

  const auto& corpus = workload::evaluationCorpus();
  std::cout << "# Fig. 6 — average Tc and I vs demand D over "
            << corpus.size() << " ratios (L = 32)\n\n";

  std::vector<std::uint64_t> demands;
  for (std::uint64_t d = 2; d <= 32; d += 2) demands.push_back(d);

  // cells[ratio][demand][series]: series 0/1 = repeated RMM/RMTCS, 2/3 =
  // MM+MMS/MTCS+MMS; each holds {Tc, I}.
  struct Cell {
    double tc = 0;
    double in = 0;
  };
  std::vector<std::vector<std::vector<Cell>>> cells(
      corpus.size(), std::vector<std::vector<Cell>>(
                         demands.size(), std::vector<Cell>(4)));

  runtime::parallelFor(jobs, corpus.size(), [&](std::uint64_t ri, unsigned) {
    engine::MdstEngine engine(corpus[ri]);
    engine::PassCache cache;
    const unsigned mixers = engine.defaultMixers();
    const Algorithm algos[2] = {Algorithm::MM, Algorithm::MTCS};
    for (std::size_t di = 0; di < demands.size(); ++di) {
      const std::uint64_t demand = demands[di];
      for (int a = 0; a < 2; ++a) {
        const engine::BaselineResult rep = engine::runRepeatedBaseline(
            engine, algos[a], demand, mixers, cache);
        cells[ri][di][static_cast<std::size_t>(a)] = {
            static_cast<double>(rep.completionTime),
            static_cast<double>(rep.inputDroplets)};

        const engine::StreamingPass pass = cache.evaluate(
            engine, algos[a], engine::Scheme::kMMS, mixers, demand);
        cells[ri][di][static_cast<std::size_t>(2 + a)] = {
            static_cast<double>(pass.cycles),
            static_cast<double>(pass.inputDroplets)};
      }
    }
  });

  report::Series tcSeries[4] = {{"RMM", {}},
                                {"RMTCS", {}},
                                {"MM+MMS", {}},
                                {"MTCS+MMS", {}}};
  report::Series inSeries[4] = {{"RMM", {}},
                                {"RMTCS", {}},
                                {"MM+MMS", {}},
                                {"MTCS+MMS", {}}};

  report::Table table({"D", "Tc RMM", "Tc RMTCS", "Tc MM+MMS", "Tc MTCS+MMS",
                       "I RMM", "I RMTCS", "I MM+MMS", "I MTCS+MMS"});

  for (std::size_t di = 0; di < demands.size(); ++di) {
    double tc[4] = {0, 0, 0, 0};
    double in[4] = {0, 0, 0, 0};
    for (std::size_t ri = 0; ri < corpus.size(); ++ri) {
      for (std::size_t s = 0; s < 4; ++s) {
        tc[s] += cells[ri][di][s].tc;
        in[s] += cells[ri][di][s].in;
      }
    }
    std::vector<std::string> row{std::to_string(demands[di])};
    for (int s = 0; s < 4; ++s) {
      tc[s] /= static_cast<double>(corpus.size());
      tcSeries[s].points.push_back(
          {static_cast<double>(demands[di]), tc[s]});
    }
    for (int s = 0; s < 4; ++s) {
      in[s] /= static_cast<double>(corpus.size());
      inSeries[s].points.push_back(
          {static_cast<double>(demands[di]), in[s]});
    }
    for (int s = 0; s < 4; ++s) row.push_back(report::fixed(tc[s], 1));
    for (int s = 0; s < 4; ++s) row.push_back(report::fixed(in[s], 1));
    table.addRow(std::move(row));
  }

  std::cout << table.render() << "\n";
  std::cout << "(a) average time of completion Tc vs demand D:\n"
            << report::renderChart({tcSeries[0], tcSeries[1], tcSeries[2],
                                    tcSeries[3]})
            << "\n(b) average input reactant droplets I vs demand D:\n"
            << report::renderChart({inSeries[0], inSeries[1], inSeries[2],
                                    inSeries[3]});
  return 0;
}
