// Ablation of the paper's Sec. IV-C1 U2U pruning: a confidence-gamma sweep
// of the grid pruner against the unpruned scan, on runtime and on result
// fidelity (pruning with finite gamma may drop low-probability candidates
// the threshold alpha would have kept).

#include <chrono>

#include "bench/bench_common.h"

namespace scguard::bench {
namespace {

void Main() {
  sim::ExperimentConfig config = PaperConfig();
  config.num_seeds = 5;
  const auto runner = OrDie(sim::ExperimentRunner::Create(config));
  const privacy::PrivacyParams p{0.7, 800.0};

  sim::TablePrinter table(
      "Pruning ablation (eps=0.7, r=800, alpha=0.1)",
      {"configuration", "utility", "overhead", "recall", "runtime (ms/run)",
       "cells bulk", "cells skip", "boundary wkrs"});

  auto report = [&](const std::string& name, std::optional<double> gamma) {
    assign::AlgorithmParams params = MakeParams(p);
    params.pruning_gamma = gamma;
    assign::MatcherHandle handle = assign::MakeProbabilisticModel(params);
    const auto start = std::chrono::steady_clock::now();
    const auto agg = OrDie(runner.Run(handle, p, p));
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count() /
        config.num_seeds;
    // The cell counters separate the two ways the grid query avoids work:
    // bulk-accepted cells skip the per-member box tests entirely, skipped
    // cells never touch their members, and boundary_workers counts the
    // members that still needed the per-member test (zero unpruned).
    table.AddRow(name,
                 {agg.assigned_tasks, agg.candidates, agg.recall, elapsed_ms,
                  agg.cells_bulk_accepted, agg.cells_skipped,
                  agg.boundary_workers},
                 2);
  };

  report("no pruning (full scan)", std::nullopt);
  for (double gamma : {0.5, 0.9, 0.99}) {
    report(StrCat("grid, gamma=", gamma), gamma);
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace scguard::bench

int main() {
  scguard::bench::Main();
  return 0;
}
