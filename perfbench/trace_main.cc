// Traced driver of the repository benchmark (README.md). Prints the
// per-layer metrics as the last line of stdout and writes every span to
// --trace-out as a Chrome trace-event file.
//
//   perfbench_trace --workload NAME --seed N --seconds S [--trace-out FILE]
//
// The spans are recorded here, around the public calls into each layer;
// the program's own instrumentation stays off. `batch-1m` runs the
// engine's per-task body by driving the stage library directly and must
// reproduce ScGuardEngine::Run exactly. The service workloads run the
// open-loop window with every SubmitTask / ReportLocation call spanned,
// Replay the admission log, and drive the stages through the same log; all
// three must agree. Exit status 0 when every check holds, 1 otherwise.

#include <cstdio>
#include <utility>
#include <vector>

#include "assign/stages/candidate_stage.h"
#include "assign/stages/contact_stage.h"
#include "assign/stages/rank_stage.h"
#include "common.h"

namespace perfbench {
namespace {

using scguard::assign::Assignment;
using scguard::assign::E2eContactStage;
using scguard::assign::MatchResult;
using scguard::assign::ScGuardEngine;
using scguard::assign::U2eRankStage;
using scguard::assign::U2uCandidateStage;
using scguard::service::ServiceEvent;

/// The engine's and the service's per-task protocol body, driven stage by
/// stage with a span around each call.
class StageDriver {
 public:
  StageDriver(const scguard::reachability::ReachabilityModel& model,
              const scguard::geo::BoundingBox& region,
              std::vector<Worker> workers, SpanBuffer& spans)
      : workers_(std::move(workers)),
        spans_(spans),
        u2u_(U2uConfig(model, region)),
        u2e_({.model = &model,
              .rank = scguard::assign::RankStrategy::kProbability,
              .kernel = {},
              .audit_epsilon = kPrivacy.epsilon}),
        e2e_({.rank = scguard::assign::RankStrategy::kProbability,
              .beta = kBeta,
              .beta_mode = scguard::assign::BetaMode::kEveryContact,
              .redundancy_k = 1}) {}

  /// Ranking priorities (one draw per worker, as Run and RegisterWorker
  /// do), AddWorker for every worker, then Prepare.
  void SetUp() {
    scguard::stats::Rng rank_rng(kRankSeed);
    random_rank_.resize(workers_.size());
    for (double& r : random_rank_) r = rank_rng.UniformDouble();
    const uint64_t add_start = NowNs();
    u2u_.ReserveWorkers(workers_.size());
    for (const Worker& w : workers_) {
      u2u_.AddWorker(w.noisy_location, w.reach_radius_m);
    }
    const uint64_t prepared_start = NowNs();
    u2u_.Prepare();
    spans_.Add(kSpanU2uAdd, add_start, prepared_start);
    spans_.Add(kSpanU2uPrepare, prepared_start, NowNs());
    ranked_.reserve(workers_.size());
  }

  /// The service's ApplyReport: relocate, then make available again.
  void Report(const ServiceEvent& ev, uint32_t request) {
    const uint64_t start = NowNs();
    Worker& w = workers_[ev.worker];
    w.location = ev.exact;
    w.noisy_location = ev.noisy;
    u2u_.UpdateWorkerLocation(ev.worker, ev.noisy);
    u2u_.MarkAvailable(ev.worker);
    spans_.Add(kSpanU2uRelocate, start, NowNs(), request);
  }

  /// U2U collect -> U2E rank -> E2E contact for one task. Returns the
  /// first accepting worker's id, or -1.
  int64_t Task(int64_t task_id, scguard::geo::Point exact,
               scguard::geo::Point noisy, uint32_t request) {
    m_.num_tasks += 1;
    const uint64_t collect_start = NowNs();
    const std::vector<uint32_t>& candidates = u2u_.Collect(noisy);
    spans_.Add(kSpanU2uCollect, collect_start, NowNs(), request);
    scanned_ += u2u_.stats().scanned_last;
    pruned_ += u2u_.stats().pruned_last;
    m_.candidates_sum += static_cast<int64_t>(candidates.size());
    if (candidates.empty()) return -1;

    const uint64_t rank_start = NowNs();
    u2e_.Rank(u2u_.soa(), candidates, exact, random_rank_.data(), ranked_,
              task_id);
    spans_.Add(kSpanU2eRank, rank_start, NowNs(), request);
    scored_ += static_cast<int64_t>(candidates.size());

    int64_t first = -1;
    const uint64_t e2e_start = NowNs();
    const E2eContactStage::Outcome outcome = e2e_.Run(
        ranked_,
        [&](size_t i) {
          const Worker& w = workers_[i];
          if (!w.CanReach(exact)) return false;
          const uint64_t mark_start = NowNs();
          u2u_.MarkMatched(static_cast<uint32_t>(i));
          spans_.Add(kSpanU2uMarkMatched, mark_start, NowNs(), request);
          const double travel = scguard::geo::Distance(w.location, exact);
          assignments_.push_back({task_id, w.id, travel});
          m_.accepted_assignments += 1;
          m_.travel_sum_m += travel;
          if (first < 0) first = w.id;
          return true;
        },
        [&](size_t i) { return workers_[i].CanReach(exact); }, m_);
    spans_.Add(kSpanE2eRun, e2e_start, NowNs(), request);
    cancels_ += outcome.cancelled ? 1 : 0;
    return first;
  }

  const std::vector<Assignment>& assignments() const { return assignments_; }
  const scguard::assign::RunMetrics& metrics() const { return m_; }
  int64_t scanned() const { return scanned_; }
  int64_t pruned() const { return pruned_; }
  int64_t scored() const { return scored_; }
  int64_t cancels() const { return cancels_; }
  int64_t band_evals() const { return u2u_.band_evals(); }

 private:
  static U2uCandidateStage::Config U2uConfig(
      const scguard::reachability::ReachabilityModel& model,
      const scguard::geo::BoundingBox& region) {
    U2uCandidateStage::Config c;
    c.model = &model;
    c.alpha = kAlpha;
    c.pruning = U2uCandidateStage::Pruning{
        kGamma, scguard::index::PrunerBackend::kGrid, kPrivacy, kPrivacy,
        region};
    return c;
  }

  std::vector<Worker> workers_;
  SpanBuffer& spans_;
  U2uCandidateStage u2u_;
  U2eRankStage u2e_;
  E2eContactStage e2e_;
  std::vector<double> random_rank_;
  std::vector<std::pair<double, size_t>> ranked_;
  std::vector<Assignment> assignments_;
  scguard::assign::RunMetrics m_;
  int64_t scanned_ = 0;
  int64_t pruned_ = 0;
  int64_t scored_ = 0;
  int64_t cancels_ = 0;
};

/// Producer-side figures of a traced service run; zero for batch.
struct ServiceFigures {
  double submit_p99_ns = 0.0;
  double report_p99_ns = 0.0;
  double tasks_rejected = 0.0;
  double reports_rejected = 0.0;
  double reports_per_s = 0.0;
  double replay_s = 0.0;
  double consumer_util = 0.0;
  double u2u_s = 0.0;
  double u2e_s = 0.0;
  double gen_lag_p99_ms = 0.0;
};

/// Prints every per-layer metric. `run` is the root span of the
/// stage-driven run; `untraced_s` the same work timed without spans.
void PrintLayers(bool correct, int64_t attempted, int64_t failed,
                 const LayerTimes& t, const StageDriver& stages,
                 const ServiceFigures& svc, double untraced_s) {
  const double run_s = t.total_s[kSpanRun];
  const double disclosures =
      static_cast<double>(stages.metrics().requester_to_worker_msgs);
  auto count = [](int64_t v) { return static_cast<double>(v); };
  PrintResult(
      correct, attempted, failed,
      {{"stages.u2u.add_s", t.self_s[kSpanU2uAdd], "s"},
       {"stages.u2u.prepare_s", t.self_s[kSpanU2uPrepare], "s"},
       {"stages.u2u.collect_s", t.self_s[kSpanU2uCollect], "s"},
       {"stages.u2u.collect_p99_us",
        Percentile(t.durations[kSpanU2uCollect], 0.99) * 1e6, "us"},
       {"stages.u2u.scanned", count(stages.scanned()), "count"},
       {"stages.u2u.pruned", count(stages.pruned()), "count"},
       {"stages.u2u.candidates", count(stages.metrics().candidates_sum),
        "count"},
       {"stages.u2u.band_evals", count(stages.band_evals()), "count"},
       {"stages.u2u.mark_matched_s", t.self_s[kSpanU2uMarkMatched], "s"},
       {"stages.u2u.relocate_s", t.self_s[kSpanU2uRelocate], "s"},
       {"stages.u2e.rank_s", t.self_s[kSpanU2eRank], "s"},
       {"stages.u2e.rank_p99_us",
        Percentile(t.durations[kSpanU2eRank], 0.99) * 1e6, "us"},
       {"stages.u2e.scored", count(stages.scored()), "count"},
       {"stages.u2e.contacted_per_scored",
        stages.scored() > 0 ? disclosures / count(stages.scored()) : 0.0,
        "ratio"},
       {"stages.e2e.run_s", t.self_s[kSpanE2eRun], "s"},
       {"stages.e2e.disclosures", disclosures, "count"},
       {"stages.e2e.false_hits", count(stages.metrics().false_hits), "count"},
       {"stages.e2e.cancels", count(stages.cancels()), "count"},
       {"service.submit_p99_ns", svc.submit_p99_ns, "ns"},
       {"service.report_p99_ns", svc.report_p99_ns, "ns"},
       {"service.tasks_rejected", svc.tasks_rejected, "count"},
       {"service.reports_rejected", svc.reports_rejected, "count"},
       {"service.reports_per_s", svc.reports_per_s, "1/s"},
       {"service.replay_s", svc.replay_s, "s"},
       {"service.consumer_util", svc.consumer_util, "ratio"},
       {"service.u2u_s", svc.u2u_s, "s"},
       {"service.u2e_s", svc.u2e_s, "s"},
       {"gen.lag_p99_ms", svc.gen_lag_p99_ms, "ms"},
       {"trace.unattributed_frac",
        run_s > 0.0 ? t.self_s[kSpanRun] / run_s : 0.0, "ratio"},
       {"trace.overhead", untraced_s > 0.0 ? run_s / untraced_s : 0.0,
        "ratio"}});
}

void WriteTrace(const Args& args, const std::vector<const SpanBuffer*>& bufs) {
  if (!args.trace_out.empty() && !WriteChromeTrace(args.trace_out, bufs)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
  }
}

int RunBatch(const WorkloadSpec& spec, const Args& args) {
  const scguard::reachability::AnalyticalModel model(kPrivacy);
  const Workload w = MakeWorkload(spec, args.seed, spec.batch_tasks);

  // The untraced reference: one Run through the top-level entry point,
  // after a set-up-only Run so that it, like the end-to-end driver's timed
  // Run and the stage-driven run after it, finds a warm heap.
  ScGuardEngine engine(MakePolicy(model));
  {
    Workload setup_only;
    setup_only.workers = w.workers;
    setup_only.region = w.region;
    scguard::stats::Rng rng(kRankSeed);
    engine.Run(setup_only, rng);
  }
  scguard::stats::Rng rng(kRankSeed);
  const uint64_t run_start = NowNs();
  const MatchResult ref = engine.Run(w, rng);
  const double untraced_s = Seconds(run_start, NowNs());

  // The same run, stage by stage, under one root span.
  SpanBuffer spans;
  spans.Reserve(8 * w.tasks.size() + 8);
  StageDriver stages(model, w.region, w.workers, spans);
  const uint64_t traced_start = NowNs();
  stages.SetUp();
  for (const Task& task : w.tasks) {
    stages.Task(task.id, task.location, task.noisy_location,
                static_cast<uint32_t>(task.id));
  }
  spans.Add(kSpanRun, traced_start, NowNs());

  bool correct = true;
  const auto& a = ref.assignments;
  const auto& b = stages.assignments();
  if (a.size() != b.size()) correct = Fail("stage run assignment count");
  for (size_t i = 0; correct && i < a.size(); ++i) {
    if (a[i].task_id != b[i].task_id || a[i].worker_id != b[i].worker_id ||
        a[i].travel_m != b[i].travel_m) {
      correct = Fail("stage run assigns differently from Run");
    }
  }
  if (ref.metrics.candidates_sum != stages.metrics().candidates_sum ||
      ref.metrics.requester_to_worker_msgs !=
          stages.metrics().requester_to_worker_msgs) {
    correct = Fail("stage run candidate or disclosure total differs");
  }
  if (ref.metrics.assigned_tasks <= 0) correct = Fail("no task assigned");
  if (ref.metrics.candidates_sum <= 0) correct = Fail("no candidate");

  const std::vector<const SpanBuffer*> bufs = {&spans};
  WriteTrace(args, bufs);
  PrintLayers(correct, 2 * static_cast<int64_t>(w.tasks.size()), 0,
              SummarizeSpans(bufs), stages, ServiceFigures{}, untraced_s);
  return correct ? 0 : 1;
}

int RunService(const WorkloadSpec& spec, const Args& args) {
  const scguard::reachability::AnalyticalModel model(kPrivacy);
  const ServiceInputs in = MakeServiceInputs(spec, args.seed, args.seconds);
  const Workload& w = in.workload;
  const auto config = MakeServiceConfig(model, w.region);
  bool correct = true;

  // ---- The open-loop window, every producer call spanned -------------------
  SpanBuffer main_spans;
  main_spans.Reserve(in.window_tasks + 8);
  std::vector<SpanBuffer> reporter_spans(in.reports.size());
  for (size_t r = 0; r < in.reports.size(); ++r) {
    reporter_spans[r].Reserve(in.reports[r].size());
  }
  AssignmentService live(config);
  SetUpService(live, w, &main_spans);
  const Traffic tr = RunOpenLoop(live, in, &main_spans, &reporter_spans);
  const auto& log = live.admission_log();
  const auto& lm = live.metrics();

  // ---- Replay: the consumer's pure work, untraced inside -------------------
  AssignmentService replay(config);
  for (const Worker& worker : w.workers) replay.RegisterWorker(worker);
  const uint64_t replay_start = NowNs();
  replay.Replay(log);
  main_spans.Add(kSpanServiceReplay, replay_start, NowNs());
  const double replay_s = replay.metrics().total_seconds;

  // ---- The same log, stage by stage ----------------------------------------
  SpanBuffer stage_spans;
  stage_spans.Reserve(5 * log.size() + 8);
  StageDriver stages(model, w.region, w.workers, stage_spans);
  stages.SetUp();
  std::vector<int64_t> stage_first;
  stage_first.reserve(in.window_tasks);
  const uint64_t loop_start = NowNs();
  for (size_t i = 0; i < log.size(); ++i) {
    const ServiceEvent& ev = log[i];
    if (ev.kind == ServiceEvent::Kind::kReport) {
      stages.Report(ev, static_cast<uint32_t>(i));
    } else {
      stage_first.push_back(
          stages.Task(ev.task_id, ev.exact, ev.noisy, static_cast<uint32_t>(i)));
    }
  }
  stage_spans.Add(kSpanRun, loop_start, NowNs());

  // ---- Live == Replay == stage-driven --------------------------------------
  const auto& live_done = live.completions();
  const auto& replay_done = replay.completions();
  if (live_done.size() != replay_done.size() ||
      live_done.size() != stage_first.size()) {
    correct = Fail("completion counts differ");
  }
  for (size_t i = 0; correct && i < live_done.size(); ++i) {
    if (live_done[i].task_id != replay_done[i].task_id ||
        live_done[i].worker_id != replay_done[i].worker_id ||
        live_done[i].travel_m != replay_done[i].travel_m ||
        live_done[i].worker_id != stage_first[i]) {
      correct = Fail("live, replay and stage-driven runs assign differently");
    }
  }
  if (lm.candidates_sum != replay.metrics().candidates_sum ||
      lm.candidates_sum != stages.metrics().candidates_sum ||
      lm.requester_to_worker_msgs != stages.metrics().requester_to_worker_msgs) {
    correct = Fail("candidate or disclosure totals differ");
  }
  if (lm.assigned_tasks <= 0) correct = Fail("no task assigned");
  if (lm.candidates_sum <= 0) correct = Fail("no candidate produced");

  std::vector<const SpanBuffer*> bufs = {&main_spans, &stage_spans};
  for (const SpanBuffer& b : reporter_spans) bufs.push_back(&b);
  const LayerTimes t = SummarizeSpans(bufs);

  ServiceFigures f;
  f.submit_p99_ns = Percentile(t.durations[kSpanServiceSubmit], 0.99) * 1e9;
  f.report_p99_ns = Percentile(t.durations[kSpanServiceReport], 0.99) * 1e9;
  const scguard::service::IngestStats ingest = live.ingest_stats();
  f.tasks_rejected = static_cast<double>(ingest.tasks_rejected);
  f.reports_rejected = static_cast<double>(ingest.reports_rejected);
  const double window_s = Seconds(tr.t0_ns, tr.stopped_ns);
  f.reports_per_s = static_cast<double>(ingest.reports_submitted) / window_s;
  f.replay_s = replay_s;
  f.consumer_util = replay_s / window_s;
  f.u2u_s = lm.u2u_seconds;
  f.u2e_s = lm.u2e_seconds;
  std::vector<double> lag_ms(in.window_tasks);
  for (size_t i = 0; i < in.window_tasks; ++i) {
    lag_ms[i] =
        static_cast<double>(tr.sent_ns[i] - (tr.t0_ns + in.task_offset_ns[i])) *
        1e-6;
  }
  f.gen_lag_p99_ms = Percentile(lag_ms, 0.99);

  const int64_t incomplete = tr.tasks_attempted - tr.tasks_refused -
                             static_cast<int64_t>(live_done.size());
  WriteTrace(args, bufs);
  PrintLayers(correct, tr.tasks_attempted + tr.reports_attempted,
              tr.tasks_refused + tr.reports_refused + incomplete, t, stages, f,
              replay_s);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  WorkloadSpec spec;
  if (!FindSpec(args.workload, spec)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  DisableProgramObs();
  return spec.batch ? RunBatch(spec, args) : RunService(spec, args);
}
