#include "assign/pipeline.h"

#include <chrono>
#include <iterator>
#include <limits>
#include <string>
#include <tuple>

#include "assign/scguard_engine.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "obs/recorder.h"

namespace scguard::assign {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

uint64_t ToNs(Clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

/// Powers of two from 1 to 2^24: the bucket grid of worker-count
/// histograms (a per-task scan touches at most a few million workers).
std::vector<double> CountBounds() {
  std::vector<double> bounds;
  for (int k = 0; k <= 24; ++k) bounds.push_back(static_cast<double>(1 << k));
  return bounds;
}

/// The pipeline's metric set (DESIGN.md §7), resolved once per process.
/// Counts accumulate in RunMetrics and pipeline locals and reach the
/// counters only through TaskPipeline::Flush, so the per-worker hot loop
/// never touches an atomic; stage histograms reuse the two clock reads per
/// task per stage that RunMetrics takes anyway.
struct PipelineObs {
  /// In TaskPipeline::CounterValues order.
  std::array<obs::Counter*, TaskPipeline::kNumCounters> counters;
  obs::Histogram* u2u_seconds;
  obs::Histogram* u2e_seconds;
  obs::Histogram* e2e_seconds;
  obs::Histogram* u2u_scan_workers;
  // Pre-interned flight-recorder ids of the per-task stage spans
  // (interning is a mutex, so it happens once per process, not per task).
  uint16_t u2u_span;
  uint16_t u2e_span;
  uint16_t e2e_span;

  static const PipelineObs& Get() {
    static const PipelineObs o = [] {
      auto& registry = obs::MetricsRegistry::Global();
      auto& recorder = obs::FlightRecorder::Global();
      PipelineObs p{};
      const char* const names[] = {
          "tasks",           "assigned_tasks",      "assignments",
          "candidates",      "workers_evaluated",   "workers_pruned",
          "alpha_rejections", "beta_cancels",       "disclosures",
          "false_hits",      "false_dismissals",    "u2u_band_evals",
          "cells_bulk_accepted", "cells_skipped",   "boundary_workers",
          "u2u_gather_bytes", "cells_emitted_direct"};
      static_assert(std::size(names) == std::tuple_size_v<decltype(counters)>);
      for (size_t k = 0; k < p.counters.size(); ++k) {
        p.counters[k] =
            registry.GetCounter(std::string("scguard.engine.") + names[k]);
      }
      p.u2u_seconds = registry.GetHistogram("scguard.engine.u2u_seconds");
      p.u2e_seconds = registry.GetHistogram("scguard.engine.u2e_seconds");
      p.e2e_seconds = registry.GetHistogram("scguard.engine.e2e_seconds");
      p.u2u_scan_workers = registry.GetHistogram(
          "scguard.engine.u2u_scan_workers", CountBounds());
      p.u2u_span = recorder.InternName("engine.u2u");
      p.u2e_span = recorder.InternName("engine.u2e");
      p.e2e_span = recorder.InternName("engine.e2e");
      return p;
    }();
    return o;
  }
};

U2uCandidateStage::Config U2uConfig(const EnginePolicy& policy,
                                    const geo::BoundingBox& region) {
  U2uCandidateStage::Config config;
  config.model = policy.u2u_model;
  config.alpha = policy.alpha;
  if (policy.pruning_gamma.has_value()) {
    config.pruning = U2uCandidateStage::Pruning{
        *policy.pruning_gamma, policy.pruning_backend, policy.worker_params,
        policy.task_params, region};
  }
  return config;
}

}  // namespace

void CheckPolicy(const EnginePolicy& policy) {
  SCGUARD_CHECK(policy.u2u_model != nullptr);
  if (policy.rank == RankStrategy::kProbability) {
    SCGUARD_CHECK(policy.u2e_model != nullptr);
  }
  SCGUARD_CHECK(policy.alpha > 0.0 && policy.alpha <= 1.0);
  SCGUARD_CHECK(policy.beta >= 0.0 && policy.beta <= 1.0);
  SCGUARD_CHECK(policy.redundancy_k >= 1);
}

TaskPipeline::TaskPipeline(const EnginePolicy& policy,
                           const geo::BoundingBox& region,
                           const std::vector<Worker>& workers)
    : workers_(workers),
      compute_accuracy_metrics_(policy.compute_accuracy_metrics),
      u2u_(U2uConfig(policy, region)),
      u2e_({.model = policy.u2e_model, .rank = policy.rank,
            .kernel = policy.kernel,
            .audit_epsilon = policy.worker_params.epsilon}),
      e2e_({.rank = policy.rank, .beta = policy.beta,
            .beta_mode = policy.beta_mode,
            .redundancy_k = policy.redundancy_k}) {
  CheckPolicy(policy);
}

void TaskPipeline::AddWorkers(stats::Rng& rank_rng) {
  const auto start = Clock::now();
  const size_t n = workers_.size();
  SCGUARD_CHECK(n <= std::numeric_limits<uint32_t>::max());
  // An exact reserve pays for a batch registration (no growth overshoot at
  // a million workers); for one worker at a time (the service's
  // RegisterWorker) it would reallocate on every call, so geometric growth
  // is left to push_back there.
  if (n > u2u_.size() + 1) {
    u2u_.ReserveWorkers(n);
    random_rank_.reserve(n);
  }
  for (size_t i = u2u_.size(); i < n; ++i) {
    random_rank_.push_back(rank_rng.UniformDouble());
    u2u_.AddWorker(workers_[i].noisy_location, workers_[i].reach_radius_m);
  }
  result_.metrics.setup_seconds += Seconds(start, Clock::now());
}

void TaskPipeline::Prepare() {
  const auto start = Clock::now();
  u2u_.Prepare();
  // Reused between tasks: allocating per task shows up on pruned runs,
  // where the real work per task is small.
  ranked_.reserve(u2u_.size());
  result_.metrics.num_workers = static_cast<int64_t>(u2u_.size());
  result_.metrics.setup_seconds += Seconds(start, Clock::now());
}

void TaskPipeline::ScoreAccuracy(const std::vector<uint32_t>& candidates,
                                 geo::Point exact) {
  // U2U accuracy scored against ground truth. Observer-only: no protocol
  // party computes this, and the availability scan is O(workers) per task.
  RunMetrics& m = result_.metrics;
  const reachability::WorkerFilterSoA& soa = u2u_.soa();
  int64_t truly_reachable_available = 0;
  int64_t candidates_reachable = 0;
  for (size_t i = 0; i < u2u_.size(); ++i) {
    if (!soa.matched[i] && workers_[i].CanReach(exact)) {
      ++truly_reachable_available;
    }
  }
  for (const uint32_t i : candidates) {
    if (workers_[i].CanReach(exact)) ++candidates_reachable;
  }
  if (!candidates.empty()) {
    m.precision_sum += static_cast<double>(candidates_reachable) /
                       static_cast<double>(candidates.size());
    m.precision_count += 1;
  }
  if (truly_reachable_available > 0) {
    m.recall_sum += static_cast<double>(candidates_reachable) /
                    static_cast<double>(truly_reachable_available);
    m.recall_count += 1;
  }
}

TaskOutcome TaskPipeline::RunTask(int64_t task_id, geo::Point exact,
                                  geo::Point noisy) {
  const bool obs_on = obs::Enabled();
  const bool rec_on = obs::RecorderEnabled();
  const PipelineObs& po = PipelineObs::Get();
  RunMetrics& m = result_.metrics;
  m.num_tasks += 1;
  TaskOutcome outcome;

  // ---- Stage 1: U2U (server) ---------------------------------------
  // The server sees only noisy locations and the workers' reach radii.
  const auto u2u_start = Clock::now();
  const std::vector<uint32_t>& candidates = u2u_.Collect(noisy);
  const U2uCandidateStage::Stats& scan = u2u_.stats();
  pruned_ += scan.pruned_last;
  m.u2u_scanned += scan.scanned_last;
  if (m.num_tasks == 1) m.u2u_scanned_first_task = scan.scanned_last;
  m.u2u_scanned_last_task = scan.scanned_last;
  {
    // One end-of-stage clock read serves RunMetrics, the histogram, and
    // the flight-recorder span — recording adds no extra clock cost.
    const auto u2u_end = Clock::now();
    const double elapsed = Seconds(u2u_start, u2u_end);
    m.u2u_seconds += elapsed;
    if (obs_on) {
      po.u2u_seconds->Observe(elapsed);
      po.u2u_scan_workers->Observe(static_cast<double>(scan.scanned_last));
    }
    if (rec_on) obs::EmitSpanAt(po.u2u_span, ToNs(u2u_start), ToNs(u2u_end));
  }
  m.candidates_sum += static_cast<int64_t>(candidates.size());
  m.server_to_requester_msgs += 1;

  if (compute_accuracy_metrics_) {
    const auto accuracy_start = Clock::now();
    ScoreAccuracy(candidates, exact);
    m.accuracy_seconds += Seconds(accuracy_start, Clock::now());
  }
  if (candidates.empty()) return outcome;  // Task remains unassigned.

  // ---- Stage 2: U2E (requester) ------------------------------------
  // The requester knows the exact task location and the candidates' noisy
  // locations; ranks them best-first.
  const reachability::WorkerFilterSoA& soa = u2u_.soa();
  const auto u2e_start = Clock::now();
  u2e_.Rank(soa, candidates, exact, random_rank_.data(), ranked_, task_id);
  {
    const auto u2e_end = Clock::now();
    const double elapsed = Seconds(u2e_start, u2e_end);
    m.u2e_seconds += elapsed;
    if (obs_on) po.u2e_seconds->Observe(elapsed);
    if (rec_on) obs::EmitSpanAt(po.u2e_span, ToNs(u2e_start), ToNs(u2e_end));
  }

  // ---- Stage 3: E2E (workers), interleaved with U2E re-ranking ------
  const auto e2e_start = Clock::now();
  const E2eContactStage::Outcome contact = e2e_.Run(
      ranked_,
      [&](size_t i) {
        const Worker& w = workers_[i];
        if (!w.CanReach(exact)) return false;
        u2u_.MarkMatched(static_cast<uint32_t>(i));
        const double travel = geo::Distance(w.location, exact);
        result_.assignments.push_back({task_id, w.id, travel});
        m.accepted_assignments += 1;
        m.travel_sum_m += travel;
        if (outcome.worker_id < 0) outcome = {w.id, travel};
        return true;
      },
      [&](size_t i) { return workers_[i].CanReach(exact); }, m, task_id,
      [&](size_t i) {
        // Audit attribution of the admitting U2U filter: a candidate inside
        // the certain-accept band was admitted without a model evaluation;
        // everything else went through the direct-evaluation band.
        const double dx = soa.x[i] - noisy.x;
        const double dy = soa.y[i] - noisy.y;
        return dx * dx + dy * dy <= soa.accept_below_sq[i]
                   ? obs::AuditFilter::kAlphaBandAccept
                   : obs::AuditFilter::kDirectEval;
      });
  if (contact.cancelled) ++beta_cancels_;
  {
    const auto e2e_end = Clock::now();
    const double elapsed = Seconds(e2e_start, e2e_end);
    m.e2e_seconds += elapsed;
    if (obs_on) po.e2e_seconds->Observe(elapsed);
    if (rec_on) obs::EmitSpanAt(po.e2e_span, ToNs(e2e_start), ToNs(e2e_end));
  }
  return outcome;
}

void TaskPipeline::Relocate(uint32_t worker, geo::Point noisy,
                            bool reactivate) {
  // Order matters: the relocate updates the grid's stored row first,
  // so a matched worker's Restore (inside MarkAvailable) re-inserts at the
  // *new* noisy location.
  u2u_.UpdateWorkerLocation(worker, noisy);
  if (reactivate) u2u_.MarkAvailable(worker);
}

std::array<int64_t, TaskPipeline::kNumCounters> TaskPipeline::CounterValues()
    const {
  const RunMetrics& m = result_.metrics;
  return {m.num_tasks,
          m.assigned_tasks,
          m.accepted_assignments,
          m.candidates_sum,
          m.u2u_scanned,
          pruned_,
          m.u2u_scanned - m.candidates_sum,
          beta_cancels_,
          m.requester_to_worker_msgs,
          m.false_hits,
          m.false_dismissals,
          u2u_.band_evals(),
          m.cells_bulk_accepted,
          m.cells_skipped,
          m.boundary_workers,
          m.u2u_gather_bytes,
          m.cells_emitted_direct};
}

void TaskPipeline::Flush() {
  RunMetrics& m = result_.metrics;
  // Cell-certification and traffic accounting are cumulative over the
  // stage's life, so the latest snapshot is the running total.
  if (const index::GridIndex::QueryStats* gs = u2u_.grid_query_stats()) {
    m.cells_bulk_accepted = gs->cells_bulk_accepted;
    m.cells_skipped = gs->cells_skipped;
    m.boundary_workers = gs->boundary_workers;
  }
  m.u2u_gather_bytes = u2u_.stats().gather_bytes;
  m.cells_emitted_direct = u2u_.stats().cells_emitted_direct;

  // One atomic add per counter per flush; no-ops while obs is disabled.
  const PipelineObs& po = PipelineObs::Get();
  const std::array<int64_t, kNumCounters> now = CounterValues();
  for (size_t k = 0; k < kNumCounters; ++k) {
    po.counters[k]->Increment(now[k] - flushed_[k]);
  }
  flushed_ = now;
}

}  // namespace scguard::assign
