// End-to-end driver of the repository benchmark (README.md). Times SCGuard
// through its two top-level entry points only — ScGuardEngine::Run for
// `batch-1m`, the public AssignmentService API for the service workloads —
// with the program's own instrumentation off, checks the results, and
// prints every end-to-end metric as the last line of stdout.
//
//   perfbench_e2e --workload NAME --seed N --seconds S
//
// Exit status 0 when every correctness check holds, 1 otherwise.

#include <cstdio>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

using scguard::assign::MatchResult;
using scguard::assign::ScGuardEngine;
using scguard::service::CompletionRecord;

/// Stand-in latency of a task that was refused or never completed: it
/// never got an answer, so it misses any limit.
constexpr double kNeverMs = 1e6;
/// Set-up-only Runs per batch run, at least.
constexpr size_t kBatchSetupSamples = 3;
/// Bursts per run, each on its own instance, reported as the median: some
/// before the open-loop window and some after it.
constexpr int kBurstsBefore = 2;
constexpr int kBurstsAfter = 3;
/// p99_ms is the median, over this many equal slices of the open-loop
/// window, of each slice's 99th percentile: a slow spell of the shared
/// machine then moves the figure only when it spans most of the window.
constexpr size_t kLatencyWindows = 10;

bool SameMatch(const MatchResult& a, const MatchResult& b) {
  if (a.assignments.size() != b.assignments.size()) return false;
  for (size_t i = 0; i < a.assignments.size(); ++i) {
    const auto& x = a.assignments[i];
    const auto& y = b.assignments[i];
    if (x.task_id != y.task_id || x.worker_id != y.worker_id ||
        x.travel_m != y.travel_m) {
      return false;
    }
  }
  return a.metrics.candidates_sum == b.metrics.candidates_sum &&
         a.metrics.requester_to_worker_msgs ==
             b.metrics.requester_to_worker_msgs &&
         a.metrics.assigned_tasks == b.metrics.assigned_tasks;
}

/// Every assignment names a real task and worker, a worker serves at most
/// one task and a task gets at most one worker (K = 1), the worker can
/// reach it, and the reported travel is the true distance.
bool ValidAssignments(const Workload& w, const MatchResult& r) {
  std::vector<uint8_t> worker_used(w.workers.size(), 0);
  std::vector<uint8_t> task_used(w.tasks.size(), 0);
  for (const auto& a : r.assignments) {
    if (a.task_id < 0 || static_cast<size_t>(a.task_id) >= w.tasks.size() ||
        a.worker_id < 0 ||
        static_cast<size_t>(a.worker_id) >= w.workers.size()) {
      return Fail("assignment names an unknown task or worker");
    }
    const Worker& worker = w.workers[static_cast<size_t>(a.worker_id)];
    const Task& task = w.tasks[static_cast<size_t>(a.task_id)];
    if (worker_used[static_cast<size_t>(a.worker_id)]++ != 0 ||
        task_used[static_cast<size_t>(a.task_id)]++ != 0) {
      return Fail("worker or task assigned twice");
    }
    if (!worker.CanReach(task.location) ||
        a.travel_m != scguard::geo::Distance(worker.location, task.location)) {
      return Fail("assigned worker cannot reach its task");
    }
  }
  return static_cast<int64_t>(r.assignments.size()) ==
             r.metrics.assigned_tasks ||
         Fail("assignment count differs from assigned_tasks");
}

int RunBatch(const WorkloadSpec& spec, const Args& args) {
  const scguard::reachability::AnalyticalModel model(kPrivacy);
  Workload w = MakeWorkload(spec, args.seed, spec.batch_tasks);
  ScGuardEngine engine(MakePolicy(model));

  // setup_s: Run over the same workers with an empty task list. Set-up
  // runs alternate with full runs, so the medians of both cover the run's
  // whole span of time.
  const std::vector<Task> task_list = w.tasks;
  auto time_setup = [&] {
    w.tasks.clear();
    scguard::stats::Rng rng(kRankSeed);
    const uint64_t t0 = NowNs();
    const MatchResult r = engine.Run(w, rng);
    const double elapsed = Seconds(t0, NowNs());
    w.tasks = task_list;
    return elapsed;
  };
  std::vector<double> setup_s = {time_setup()};

  // run_s: full Runs, each followed by a set-up-only Run, until --seconds
  // have been spent in both (at least one full Run).
  bool correct = true;
  std::vector<double> run_s;
  MatchResult first;
  double spent = setup_s.back();
  while (run_s.empty() || spent < args.seconds) {
    scguard::stats::Rng rng(kRankSeed);
    const uint64_t t0 = NowNs();
    MatchResult r = engine.Run(w, rng);
    run_s.push_back(Seconds(t0, NowNs()));
    spent += run_s.back();
    if (run_s.size() == 1) {
      first = std::move(r);
    } else if (!SameMatch(first, r)) {
      correct = Fail("repeated Run differs");
    }
    setup_s.push_back(time_setup());
    spent += setup_s.back();
  }
  while (setup_s.size() < kBatchSetupSamples) setup_s.push_back(time_setup());

  const auto& m = first.metrics;
  correct = correct && ValidAssignments(w, first);
  if (m.assigned_tasks <= 0) correct = Fail("no task assigned");
  if (m.candidates_sum <= 0) correct = Fail("no candidate produced");

  const double tasks = static_cast<double>(spec.batch_tasks);
  const double run = Median(run_s);
  std::fprintf(stderr,
               "batch-1m: setup %.3f s, run %.3f s over %zu runs, "
               "assigned %lld/%d, candidates %lld, disclosures %lld\n",
               Median(setup_s), run, run_s.size(),
               static_cast<long long>(m.assigned_tasks), spec.batch_tasks,
               static_cast<long long>(m.candidates_sum),
               static_cast<long long>(m.requester_to_worker_msgs));
  // A batch answers every task when Run returns, so each task's latency
  // from submission is the whole run.
  PrintResult(
      correct, static_cast<int64_t>(run_s.size()) * spec.batch_tasks, 0,
      {{"setup_s", Median(setup_s), "s"},
       {"run_s", run, "s"},
       {"p50_ms", run * 1e3, "ms"},
       {"p99_ms", run * 1e3, "ms"},
       {"burst_qps", tasks / run, "1/s"},
       {"peak_rss_mb", PeakRssMb(), "MiB"},
       {"assigned_frac", static_cast<double>(m.assigned_tasks) / tasks,
        "ratio"},
       {"disclosures_per_task",
        static_cast<double>(m.requester_to_worker_msgs) / tasks, "count"},
       {"travel_m",
        m.travel_sum_m / static_cast<double>(m.accepted_assignments), "m"}});
  return correct ? 0 : 1;
}

/// Tasks and reports over every service instance of a run.
struct Tally {
  int64_t tasks = 0;
  int64_t tasks_refused = 0;
  int64_t tasks_incomplete = 0;  ///< Admitted, but never completed.
  int64_t reports = 0;
  int64_t reports_refused = 0;

  void Add(const Traffic& t, int64_t incomplete) {
    tasks += t.tasks_attempted;
    tasks_refused += t.tasks_refused;
    tasks_incomplete += incomplete;
    reports += t.reports_attempted;
    reports_refused += t.reports_refused;
  }
};

/// Live run equals the serial Replay of its admission log.
bool MatchesReplay(const AssignmentService& live,
                   const scguard::service::ServiceConfig& config,
                   const Workload& w) {
  AssignmentService replay(config);
  for (const Worker& worker : w.workers) replay.RegisterWorker(worker);
  replay.Replay(live.admission_log());
  const auto& a = live.completions();
  const auto& b = replay.completions();
  if (a.size() != b.size()) return Fail("replay completion count differs");
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].task_id != b[i].task_id || a[i].worker_id != b[i].worker_id ||
        a[i].travel_m != b[i].travel_m) {
      return Fail("replay assigns differently");
    }
  }
  const auto& lm = live.metrics();
  const auto& rm = replay.metrics();
  return (lm.candidates_sum == rm.candidates_sum &&
          lm.requester_to_worker_msgs == rm.requester_to_worker_msgs &&
          lm.assigned_tasks == rm.assigned_tasks) ||
         Fail("replay counters differ");
}

int RunService(const WorkloadSpec& spec, const Args& args) {
  const scguard::reachability::AnalyticalModel model(kPrivacy);
  const ServiceInputs in = MakeServiceInputs(spec, args.seed, args.seconds);
  const Workload& w = in.workload;
  const auto config = MakeServiceConfig(model, w.region);
  bool correct = true;
  std::vector<double> setup_s, burst_s, burst_qps;
  Tally tally;

  // Set-up-only instances: register, start, stop empty.
  for (int i = 0; i < 3; ++i) {
    AssignmentService svc(config);
    setup_s.push_back(SetUpService(svc, w, nullptr));
    svc.Stop(AssignmentService::StopMode::kDrain);
  }

  // One burst on a fresh instance. The bursts run before and after the
  // window, so a slow spell of the machine reaches at most some of them.
  auto run_burst = [&] {
    AssignmentService svc(config);
    setup_s.push_back(SetUpService(svc, w, nullptr));
    const Traffic bt = RunBurst(svc, in, spec.burst_tasks);
    const int64_t done = static_cast<int64_t>(svc.completions().size());
    burst_s.push_back(Seconds(bt.t0_ns, bt.stopped_ns));
    burst_qps.push_back(static_cast<double>(done) / burst_s.back());
    tally.Add(bt, bt.tasks_attempted - bt.tasks_refused - done);
    if (svc.metrics().assigned_tasks <= 0) {
      correct = Fail("no burst task assigned");
    }
  };
  for (int i = 0; i < kBurstsBefore; ++i) run_burst();

  // ---- Open-loop window ----------------------------------------------------
  std::vector<double> latency_ms(in.window_tasks);
  std::vector<std::vector<double>> slices(kLatencyWindows);
  std::vector<double> lag_ms(in.window_tasks);
  scguard::assign::RunMetrics lm;
  {
    AssignmentService live(config);
    setup_s.push_back(SetUpService(live, w, nullptr));
    const Traffic tr = RunOpenLoop(live, in, nullptr, nullptr);
    std::vector<uint64_t> done_ns(in.window_tasks, 0);
    for (const CompletionRecord& c : live.completions()) {
      if (c.task_id < 0 || static_cast<size_t>(c.task_id) >= in.window_tasks ||
          done_ns[static_cast<size_t>(c.task_id)] != 0) {
        correct = Fail("completion for an unknown or repeated task");
        continue;
      }
      done_ns[static_cast<size_t>(c.task_id)] = c.done_ns;
    }
    const double slice_ns = in.window_s * 1e9 / kLatencyWindows;
    int64_t incomplete = 0;
    for (size_t i = 0; i < in.window_tasks; ++i) {
      const uint64_t due = tr.t0_ns + in.task_offset_ns[i];
      if (tr.task_ok[i] == 0 || done_ns[i] == 0) {
        incomplete += tr.task_ok[i];
        latency_ms[i] = kNeverMs;
      } else {
        latency_ms[i] = static_cast<double>(done_ns[i] - due) * 1e-6;
      }
      lag_ms[i] = static_cast<double>(tr.sent_ns[i] - due) * 1e-6;
      const auto slice = static_cast<size_t>(
          static_cast<double>(in.task_offset_ns[i]) / slice_ns);
      slices[std::min(slice, slices.size() - 1)].push_back(latency_ms[i]);
    }
    tally.Add(tr, incomplete);
    lm = live.metrics();
    if (lm.assigned_tasks <= 0) correct = Fail("no task assigned");
    if (lm.candidates_sum <= 0) correct = Fail("no candidate produced");
    correct = MatchesReplay(live, config, w) && correct;
  }

  for (int i = 0; i < kBurstsAfter; ++i) run_burst();

  std::vector<double> slice_p99;
  for (const auto& slice : slices) slice_p99.push_back(Percentile(slice, 0.99));
  const double p50 = Percentile(latency_ms, 0.50);
  const double p99 = Median(slice_p99);
  std::fprintf(stderr,
               "%s: setup %.3f s; %zu window tasks p50 %.3f ms p99 %.3f ms "
               "(whole window %.3f ms), generator lag p99 %.3f ms; burst of "
               "%d tasks in %.3f s; tasks %lld refused %lld incomplete %lld; "
               "reports %lld refused %lld; assigned %lld\n",
               spec.name.c_str(), Median(setup_s), in.window_tasks, p50, p99,
               Percentile(latency_ms, 0.99), Percentile(lag_ms, 0.99),
               spec.burst_tasks, Median(burst_s),
               static_cast<long long>(tally.tasks),
               static_cast<long long>(tally.tasks_refused),
               static_cast<long long>(tally.tasks_incomplete),
               static_cast<long long>(tally.reports),
               static_cast<long long>(tally.reports_refused),
               static_cast<long long>(lm.assigned_tasks));
  PrintResult(
      correct, tally.tasks + tally.reports,
      tally.tasks_refused + tally.tasks_incomplete + tally.reports_refused,
      {{"setup_s", Median(setup_s), "s"},
       {"run_s", Median(burst_s), "s"},
       {"p50_ms", p50, "ms"},
       {"p99_ms", p99, "ms"},
       {"burst_qps", Median(burst_qps), "1/s"},
       {"peak_rss_mb", PeakRssMb(), "MiB"},
       {"assigned_frac",
        static_cast<double>(lm.assigned_tasks) /
            static_cast<double>(in.window_tasks),
        "ratio"},
       {"disclosures_per_task",
        static_cast<double>(lm.requester_to_worker_msgs) /
            static_cast<double>(lm.num_tasks),
        "count"},
       {"travel_m",
        lm.travel_sum_m / static_cast<double>(lm.accepted_assignments),
        "m"}});
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
