#include "assign/scguard_engine.h"

#include <chrono>
#include <utility>

#include "assign/pipeline.h"
#include "common/str_format.h"
#include "obs/trace.h"

namespace scguard::assign {

ScGuardEngine::ScGuardEngine(EnginePolicy policy) : policy_(std::move(policy)) {
  CheckPolicy(policy_);
}

std::string ScGuardEngine::name() const {
  if (!policy_.name.empty()) return policy_.name;
  return StrCat("SCGuard[", policy_.u2u_model->name(), ",",
                RankStrategyName(policy_.rank), "]");
}

MatchResult ScGuardEngine::Run(const Workload& workload, stats::Rng& rng) {
  const obs::Span run_span("engine.run");
  const auto run_start = std::chrono::steady_clock::now();
  // Pipeline state is per-Run: ExperimentRunner shares one matcher across
  // concurrently running seeds, so nothing may live in the engine between
  // runs.
  TaskPipeline pipeline(policy_, workload.region, workload.workers);
  pipeline.AddWorkers(rng);
  pipeline.Prepare();
  for (const Task& task : workload.tasks) {
    pipeline.RunTask(task.id, task.location, task.noisy_location);
  }
  pipeline.Flush();
  MatchResult result = std::move(pipeline.result());
  result.metrics.total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    run_start)
          .count();
  return result;
}

}  // namespace scguard::assign
