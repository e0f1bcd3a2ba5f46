// Shared inputs, configuration and reporting of the repository benchmark
// (see README.md). Everything here talks to SCGuard only through
// ScGuardEngine::Run and the public AssignmentService API, so both drivers
// can use it; the stage library is touched only by trace_main.cc.

#ifndef SCGUARD_PERFBENCH_COMMON_H_
#define SCGUARD_PERFBENCH_COMMON_H_

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "assign/scguard_engine.h"
#include "data/beijing.h"
#include "data/workload.h"
#include "obs/obs_config.h"
#include "privacy/mechanism.h"
#include "reachability/analytical_model.h"
#include "service/service.h"
#include "stats/rng.h"

#include "spans.h"

namespace perfbench {

using scguard::assign::Task;
using scguard::assign::Worker;
using scguard::assign::Workload;
using scguard::service::AssignmentService;
using Clock = std::chrono::steady_clock;

// ---- The paper point every run uses ---------------------------------------

inline const scguard::privacy::PrivacyParams kPrivacy{0.7, 800.0};
inline constexpr double kAlpha = 0.1;
inline constexpr double kBeta = 0.25;
inline constexpr double kGamma = 0.9;
/// Seed of the random ranking priorities (Run's Rng; the service default).
inline constexpr uint64_t kRankSeed = 42;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

inline void SleepUntil(uint64_t due_ns) {
  std::this_thread::sleep_until(
      Clock::time_point{std::chrono::nanoseconds(due_ns)});
}

// ---- Command line ----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_out;  ///< Span file of the traced driver.
};

inline Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      std::exit(2);
    }
  }
  if (a.workload.empty() || !(a.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "[--trace-out FILE]\n",
                 argv[0]);
    std::exit(2);
  }
  return a;
}

// ---- Workloads -------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  bool batch = false;
  int num_workers = 0;
  int batch_tasks = 0;               ///< batch: tasks of the one Run.
  double task_qps = 0.0;             ///< service: Poisson arrival rate.
  double reports_per_s = 0.0;        ///< service: total re-report rate.
  int reporters = 2;                 ///< service: reporter threads.
  int burst_tasks = 0;               ///< service: back-to-back burst size.
};

inline bool FindSpec(const std::string& name, WorkloadSpec& out) {
  out = WorkloadSpec{};
  out.name = name;
  if (name == "batch-1m") {
    out.batch = true;
    out.num_workers = 1000000;
    out.batch_tasks = 512;
  } else if (name == "service-100k") {
    out.num_workers = 100000;
    out.task_qps = 250.0;
    out.reports_per_s = 10000.0;
    out.burst_tasks = 1000;
  } else {
    return false;
  }
  return true;
}

/// Independent per-purpose streams off the one --seed.
inline scguard::stats::Rng StreamRng(uint64_t seed, uint64_t stream) {
  return scguard::stats::Rng(seed).Fork(stream);
}

/// Workers (and, for batch, the task list) with their Geo-I noisy
/// locations, uniform over the Beijing extent; each worker's radius is
/// drawn from U[1, 3] km.
inline Workload MakeWorkload(const WorkloadSpec& spec, uint64_t seed,
                             int num_tasks) {
  scguard::stats::Rng rng = StreamRng(seed, 1);
  scguard::data::WorkloadConfig config;
  config.num_workers = spec.num_workers;
  config.num_tasks = num_tasks;
  Workload w = scguard::data::MakeUniformWorkload(
      scguard::data::BeijingRegion(), config, rng);
  scguard::data::PerturbWorkload(kPrivacy, kPrivacy, rng, w);
  return w;
}

/// One scheduled re-report: the worker's new true location and its fresh
/// Geo-I release.
struct Report {
  uint64_t offset_ns = 0;
  uint32_t worker = 0;
  scguard::geo::Point exact;
  scguard::geo::Point noisy;
};

/// Open-loop service traffic, fixed before the service exists.
struct ServiceInputs {
  Workload workload;              ///< Workers + every task (window, burst).
  std::vector<uint64_t> task_offset_ns;  ///< Window tasks' send times.
  size_t window_tasks = 0;        ///< tasks[0, window_tasks) are the window.
  std::vector<std::vector<Report>> reports;  ///< One schedule per reporter.
  double window_s = 0.0;
};

inline ServiceInputs MakeServiceInputs(const WorkloadSpec& spec, uint64_t seed,
                                       double window_s) {
  ServiceInputs in;
  in.window_s = window_s;
  // Poisson arrivals over the window.
  scguard::stats::Rng arrivals = StreamRng(seed, 2);
  double t = 0.0;
  for (;;) {
    t += -std::log(arrivals.UniformDoublePositive()) / spec.task_qps;
    if (t >= window_s) break;
    in.task_offset_ns.push_back(static_cast<uint64_t>(t * 1e9));
  }
  in.window_tasks = in.task_offset_ns.size();
  in.workload = MakeWorkload(
      spec, seed, static_cast<int>(in.window_tasks) + spec.burst_tasks);

  // Reporter r owns the workers with id % reporters == r and cycles over
  // them in a seeded order, one evenly paced report at a time: a Gaussian
  // 100 m step of the true location, released again through the
  // configured mechanism.
  const Workload& w = in.workload;
  const auto mechanism = scguard::privacy::MakeMechanismOrDie(kPrivacy,
                                                              w.region);
  const double per_thread = spec.reports_per_s / spec.reporters;
  const auto count = static_cast<size_t>(per_thread * window_s);
  for (int r = 0; r < spec.reporters; ++r) {
    scguard::stats::Rng rng = StreamRng(seed, 16 + static_cast<uint64_t>(r));
    std::vector<uint32_t> owned;
    for (size_t i = static_cast<size_t>(r); i < w.workers.size();
         i += static_cast<size_t>(spec.reporters)) {
      owned.push_back(static_cast<uint32_t>(i));
    }
    for (size_t i = owned.size(); i > 1; --i) {
      std::swap(owned[i - 1], owned[rng.UniformInt(i)]);
    }
    std::vector<scguard::geo::Point> pos(owned.size());
    for (size_t i = 0; i < owned.size(); ++i) {
      pos[i] = w.workers[owned[i]].location;
    }
    std::vector<Report> schedule(count);
    const double phase = static_cast<double>(r) / spec.reports_per_s;
    for (size_t k = 0; k < count; ++k) {
      const size_t slot = k % owned.size();
      scguard::geo::Point& p = pos[slot];
      p.x = std::clamp(p.x + rng.Gaussian(0.0, 100.0), w.region.min_x,
                       w.region.max_x);
      p.y = std::clamp(p.y + rng.Gaussian(0.0, 100.0), w.region.min_y,
                       w.region.max_y);
      schedule[k] = {
          static_cast<uint64_t>((phase + static_cast<double>(k) / per_thread) *
                                1e9),
          owned[slot], p, mechanism->Perturb(p, rng)};
    }
    in.reports.push_back(std::move(schedule));
  }
  return in;
}

// ---- Configuration: the paper point, everything else at its default ------

/// The observer-only accuracy scan is switched off: no protocol party
/// performs it and the service has no counterpart (see README.md).
inline scguard::assign::EnginePolicy MakePolicy(
    const scguard::reachability::ReachabilityModel& model) {
  scguard::assign::EnginePolicy p;
  p.u2u_model = &model;
  p.u2e_model = &model;
  p.alpha = kAlpha;
  p.beta = kBeta;
  p.rank = scguard::assign::RankStrategy::kProbability;
  p.compute_accuracy_metrics = false;
  p.pruning_gamma = kGamma;
  p.pruning_backend = scguard::index::PrunerBackend::kGrid;
  p.worker_params = kPrivacy;
  p.task_params = kPrivacy;
  return p;
}

inline scguard::service::ServiceConfig MakeServiceConfig(
    const scguard::reachability::ReachabilityModel& model,
    const scguard::geo::BoundingBox& region) {
  scguard::service::ServiceConfig c;
  c.u2u_model = &model;
  c.u2e_model = &model;
  c.alpha = kAlpha;
  c.beta = kBeta;
  c.rank = scguard::assign::RankStrategy::kProbability;
  c.pruning_gamma = kGamma;
  c.pruning_backend = scguard::index::PrunerBackend::kGrid;
  c.worker_params = kPrivacy;
  c.task_params = kPrivacy;
  c.region = region;
  c.rank_seed = kRankSeed;
  return c;
}

/// Instrumentation inside the program stays off in every run: all timing
/// is taken from the benchmark's side of the public calls.
inline void DisableProgramObs() {
  scguard::obs::SetConfig(scguard::obs::ObsConfig{});
}

// ---- Service drivers -------------------------------------------------------

/// Registers every worker and starts the consumer; returns the wall time.
inline double SetUpService(AssignmentService& svc, const Workload& w,
                           SpanBuffer* spans) {
  const uint64_t start = NowNs();
  for (const Worker& worker : w.workers) svc.RegisterWorker(worker);
  const uint64_t registered = NowNs();
  svc.Start();
  const uint64_t end = NowNs();
  if (spans != nullptr) {
    spans->Add(kSpanServiceRegister, start, registered);
    spans->Add(kSpanServiceStart, registered, end);
  }
  return Seconds(start, end);
}

/// Producer-side accounting of one service run.
struct Traffic {
  uint64_t t0_ns = 0;                 ///< Schedule origin.
  uint64_t stopped_ns = 0;            ///< Stop(kDrain) returned.
  std::vector<uint64_t> sent_ns;      ///< Actual send time per task.
  std::vector<uint8_t> task_ok;       ///< SubmitTask admitted it.
  int64_t tasks_attempted = 0;
  int64_t tasks_refused = 0;
  int64_t reports_attempted = 0;
  int64_t reports_refused = 0;
};

/// One reporter thread's tally; the counts are read after the join.
struct ReporterTally {
  int64_t attempted = 0;
  int64_t refused = 0;
  std::atomic<bool> done{false};
};

/// Replays `schedule` against the service from `t0_ns` until it ends or
/// `run` drops. Sends are never re-paced: a late reporter sends at once
/// and keeps the original schedule.
inline void ReporterLoop(AssignmentService& svc,
                         const std::vector<Report>& schedule, uint64_t t0_ns,
                         const std::atomic<bool>& run, SpanBuffer* spans,
                         ReporterTally& tally) {
  for (const Report& rep : schedule) {
    if (!run.load(std::memory_order_relaxed)) break;
    SleepUntil(t0_ns + rep.offset_ns);
    const uint64_t start = spans != nullptr ? NowNs() : 0;
    const bool ok = svc.ReportLocation(rep.worker, rep.exact, rep.noisy);
    if (spans != nullptr) spans->Add(kSpanServiceReport, start, NowNs());
    ++tally.attempted;
    if (!ok) ++tally.refused;
  }
  tally.done.store(true, std::memory_order_release);
}

/// Starts one thread per reporter schedule, all timed from `t0_ns`.
inline std::vector<std::thread> StartReporters(
    AssignmentService& svc, const ServiceInputs& in, uint64_t t0_ns,
    const std::atomic<bool>& run, std::vector<SpanBuffer>* spans,
    std::vector<ReporterTally>& tallies) {
  std::vector<std::thread> threads;
  for (size_t r = 0; r < in.reports.size(); ++r) {
    threads.emplace_back([&svc, &in, t0_ns, &run, spans, &tallies, r] {
      ReporterLoop(svc, in.reports[r], t0_ns, run,
                   spans != nullptr ? &(*spans)[r] : nullptr, tallies[r]);
    });
  }
  return threads;
}

inline void JoinReporters(std::vector<std::thread>& threads,
                          const std::vector<ReporterTally>& tallies,
                          Traffic& tr) {
  for (auto& t : threads) t.join();
  for (const ReporterTally& tally : tallies) {
    tr.reports_attempted += tally.attempted;
    tr.reports_refused += tally.refused;
  }
}

/// The open-loop window: window tasks are sent at their scheduled offsets
/// by this thread while the reporter threads replay their schedules; then
/// producers stop and Stop(kDrain) finishes the backlog.
/// `reporter_spans` holds one buffer per reporter (or is null).
inline Traffic RunOpenLoop(AssignmentService& svc, const ServiceInputs& in,
                           SpanBuffer* submit_spans,
                           std::vector<SpanBuffer>* reporter_spans) {
  Traffic tr;
  const size_t n = in.window_tasks;
  tr.sent_ns.assign(n, 0);
  tr.task_ok.assign(n, 0);
  std::vector<ReporterTally> tallies(in.reports.size());
  std::atomic<bool> run{true};
  tr.t0_ns = NowNs() + 5'000'000;  // Lets the reporter threads spin up.
  std::vector<std::thread> threads =
      StartReporters(svc, in, tr.t0_ns, run, reporter_spans, tallies);
  const auto& tasks = in.workload.tasks;
  for (size_t i = 0; i < n; ++i) {
    SleepUntil(tr.t0_ns + in.task_offset_ns[i]);
    const uint64_t start = NowNs();
    tr.sent_ns[i] = start;
    tr.task_ok[i] = svc.SubmitTask(tasks[i]) ? 1 : 0;
    if (submit_spans != nullptr) {
      submit_spans->Add(kSpanServiceSubmit, start, NowNs());
    }
  }
  // Reports run to the end of the window, not just to the last task.
  SleepUntil(tr.t0_ns + static_cast<uint64_t>(in.window_s * 1e9));
  run.store(false, std::memory_order_relaxed);
  JoinReporters(threads, tallies, tr);
  const uint64_t stop_start = NowNs();
  svc.Stop(AssignmentService::StopMode::kDrain);
  tr.stopped_ns = NowNs();
  if (submit_spans != nullptr) {
    submit_spans->Add(kSpanServiceStop, stop_start, tr.stopped_ns);
  }
  tr.tasks_attempted = static_cast<int64_t>(n);
  for (size_t i = 0; i < n; ++i) tr.tasks_refused += tr.task_ok[i] ? 0 : 1;
  return tr;
}

/// The fixed burst: `burst` tasks after the window's are submitted back to
/// back while the reporters replay their schedules. The reporters stop once
/// the burst's tasks are done, which shows from outside as epochs
/// publishing without pause (while tasks remain, each epoch waits for a
/// whole batch of scans); Stop(kDrain) then applies the report backlog.
/// stopped_ns - t0_ns is the time from the first submit until Stop returns.
inline Traffic RunBurst(AssignmentService& svc, const ServiceInputs& in,
                        int burst) {
  Traffic tr;
  std::vector<ReporterTally> tallies(in.reports.size());
  std::atomic<bool> run{true};
  const uint64_t schedule_t0 = NowNs() + 5'000'000;
  std::vector<std::thread> threads =
      StartReporters(svc, in, schedule_t0, run, nullptr, tallies);
  SleepUntil(schedule_t0);
  tr.t0_ns = NowNs();
  const auto& tasks = in.workload.tasks;
  for (int i = 0; i < burst; ++i) {
    ++tr.tasks_attempted;
    if (!svc.SubmitTask(tasks[in.window_tasks + static_cast<size_t>(i)])) {
      ++tr.tasks_refused;
    }
  }
  constexpr int kSteadyPolls = 5;  // Consecutive 2 ms polls with an epoch.
  int steady = 0;
  uint64_t last_epoch = svc.epoch();
  while (steady < kSteadyPolls) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const uint64_t e = svc.epoch();
    steady = e > last_epoch ? steady + 1 : 0;
    last_epoch = e;
    bool reporting = false;
    for (const ReporterTally& t : tallies) {
      reporting |= !t.done.load(std::memory_order_acquire);
    }
    if (!reporting) break;  // Schedules ran out; Stop drains the rest.
  }
  run.store(false, std::memory_order_relaxed);
  JoinReporters(threads, tallies, tr);
  svc.Stop(AssignmentService::StopMode::kDrain);
  tr.stopped_ns = NowNs();
  return tr;
}

// ---- Statistics and output -------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(i, v.size() - 1)];
}

inline double Median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const size_t m = s.size() / 2;
  return s.size() % 2 == 1 ? s[m] : 0.5 * (s[m - 1] + s[m]);
}

inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the result object as the last line of stdout.
inline void PrintResult(bool correct, int64_t attempted, int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Reports a failed correctness check on stderr; returns false.
inline bool Fail(const char* what) {
  std::fprintf(stderr, "correctness check failed: %s\n", what);
  return false;
}

}  // namespace perfbench

#endif  // SCGUARD_PERFBENCH_COMMON_H_
