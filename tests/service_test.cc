// The sustained-throughput assignment service (DESIGN.md section 14):
// lock-free ingest correctness under concurrent producers, drain-on-
// shutdown completeness, queue-full backpressure, epoch monotonicity, and
// the determinism contract — a concurrent service run is bit-identical to
// a serial replay of its admission log, and a service fed only tasks is
// bit-identical to ScGuardEngine::Run.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "assign/scguard_engine.h"
#include "geo/bbox.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/obs_config.h"
#include "obs/recorder.h"
#include "oracle.h"
#include "privacy/mechanism.h"
#include "reachability/analytical_model.h"
#include "reachability/binary_model.h"
#include "service/mpsc_queue.h"
#include "service/service.h"
#include "stats/rng.h"

namespace scguard::service {
namespace {

using oracle::NoisyWorkload;
using privacy::PrivacyParams;

constexpr PrivacyParams kDefault{0.7, 800.0};

ServiceConfig BaseConfig(const reachability::ReachabilityModel* model,
                         const geo::BoundingBox& region) {
  ServiceConfig config;
  config.u2u_model = model;
  config.u2e_model = model;
  config.alpha = 0.1;
  config.beta = 0.25;
  config.rank = assign::RankStrategy::kProbability;
  config.worker_params = kDefault;
  config.task_params = kDefault;
  config.pruning_gamma = 0.9;
  config.region = region;
  return config;
}

void ExpectSameResults(const AssignmentService& a, const AssignmentService& b,
                       const char* label) {
  ASSERT_EQ(a.assignments().size(), b.assignments().size()) << label;
  for (size_t i = 0; i < a.assignments().size(); ++i) {
    EXPECT_EQ(a.assignments()[i].task_id, b.assignments()[i].task_id)
        << label << " @" << i;
    EXPECT_EQ(a.assignments()[i].worker_id, b.assignments()[i].worker_id)
        << label << " @" << i;
    EXPECT_EQ(a.assignments()[i].travel_m, b.assignments()[i].travel_m)
        << label << " @" << i;
  }
  ASSERT_EQ(a.completions().size(), b.completions().size()) << label;
  for (size_t i = 0; i < a.completions().size(); ++i) {
    EXPECT_EQ(a.completions()[i].task_id, b.completions()[i].task_id)
        << label << " @" << i;
    EXPECT_EQ(a.completions()[i].worker_id, b.completions()[i].worker_id)
        << label << " @" << i;
    EXPECT_EQ(a.completions()[i].travel_m, b.completions()[i].travel_m)
        << label << " @" << i;
  }
  EXPECT_EQ(a.metrics().candidates_sum, b.metrics().candidates_sum) << label;
  EXPECT_EQ(a.metrics().requester_to_worker_msgs,
            b.metrics().requester_to_worker_msgs)
      << label;
  EXPECT_EQ(a.metrics().false_hits, b.metrics().false_hits) << label;
  EXPECT_EQ(a.metrics().u2u_scanned, b.metrics().u2u_scanned) << label;
}

TEST(MpscQueueTest, FifoSingleThread) {
  MpscQueue<int> q(8);
  EXPECT_EQ(q.capacity(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(99));  // Full.
  int v = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.TryPop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.TryPop(v));  // Empty.
  // Reusable after wraparound.
  for (int lap = 0; lap < 3; ++lap) {
    for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.TryPush(lap * 10 + i));
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(q.TryPop(v));
      EXPECT_EQ(v, lap * 10 + i);
    }
  }
}

TEST(MpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
  MpscQueue<int> q(100);
  EXPECT_EQ(q.capacity(), 128u);
  MpscQueue<int> tiny(0);
  EXPECT_EQ(tiny.capacity(), 2u);
}

TEST(MpscQueueTest, ConcurrentProducersLoseNothingKeepPerProducerOrder) {
  // 4 producers x 20k items through a deliberately small ring (so full /
  // retry paths are exercised); the consumer checks global completeness
  // and per-producer FIFO order. Run under TSan in CI.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20000;
  MpscQueue<int64_t> q(256);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int64_t item = static_cast<int64_t>(p) * 1000000 + i;
        while (!q.TryPush(item)) std::this_thread::yield();
      }
    });
  }
  std::vector<int64_t> next_expected(kProducers, 0);
  int64_t popped = 0;
  while (popped < static_cast<int64_t>(kProducers) * kPerProducer) {
    int64_t item = -1;
    if (!q.TryPop(item)) {
      std::this_thread::yield();
      continue;
    }
    ++popped;
    const auto p = static_cast<size_t>(item / 1000000);
    const int64_t seq = item % 1000000;
    ASSERT_LT(p, static_cast<size_t>(kProducers));
    EXPECT_EQ(seq, next_expected[p]) << "producer " << p;
    next_expected[p] = seq + 1;
  }
  for (auto& t : producers) t.join();
  int64_t leftover;
  EXPECT_FALSE(q.TryPop(leftover));
}

TEST(ServiceTest, DrainCompletenessUnderConcurrentProducers) {
  // Every admitted task must have a completion record after Stop(kDrain),
  // and the admission log must hold exactly the admitted events.
  const assign::Workload workload = NoisyWorkload(300, 400, 7001);
  const reachability::AnalyticalModel model(kDefault);
  AssignmentService svc(BaseConfig(&model, workload.region));
  for (const auto& w : workload.workers) svc.RegisterWorker(w);
  svc.Start();

  std::thread reporter([&] {
    stats::Rng rng(5);
    const auto noise = privacy::MakeMechanismOrDie(kDefault);
    for (int i = 0; i < 500; ++i) {
      const auto w = static_cast<uint32_t>(
          rng.UniformInt(workload.workers.size()));
      geo::Point p = workload.workers[w].location;
      p.x += rng.Gaussian(0.0, 50.0);
      p.y += rng.Gaussian(0.0, 50.0);
      const geo::Point noisy = noise->Perturb(p, rng);
      while (!svc.ReportLocation(w, p, noisy)) {
        std::this_thread::yield();
      }
    }
  });
  int64_t tasks_admitted = 0;
  for (const auto& t : workload.tasks) {
    if (svc.SubmitTask(t)) ++tasks_admitted;
  }
  reporter.join();
  svc.Stop(AssignmentService::StopMode::kDrain);

  EXPECT_EQ(static_cast<int64_t>(svc.completions().size()), tasks_admitted);
  const IngestStats ingest = svc.ingest_stats();
  EXPECT_EQ(ingest.tasks_submitted, tasks_admitted);
  EXPECT_EQ(ingest.reports_submitted, 500);
  EXPECT_EQ(static_cast<int64_t>(svc.admission_log().size()),
            tasks_admitted + 500);
  EXPECT_GT(ingest.epochs, 0);
  // Completion order is admission order for tasks, and every record's
  // epoch is nondecreasing (each batch publishes once, then scans).
  uint64_t last_epoch = 0;
  for (const auto& c : svc.completions()) {
    EXPECT_GE(c.epoch, last_epoch);
    EXPECT_GE(c.done_ns, c.submit_ns);
    last_epoch = c.epoch;
  }
}

TEST(ServiceTest, BitIdenticalToSerialReplayOfAdmissionLog) {
  // The determinism contract: concurrency picks the admission order, and
  // the admission order alone decides the bits. Replaying the logged order
  // serially on a fresh service reproduces assignments, completions, and
  // decision metrics exactly.
  const assign::Workload workload = NoisyWorkload(400, 300, 7002);
  const reachability::AnalyticalModel model(kDefault);
  const ServiceConfig config = BaseConfig(&model, workload.region);

  AssignmentService live(config);
  for (const auto& w : workload.workers) live.RegisterWorker(w);
  live.Start();
  std::atomic<bool> run{true};
  std::thread reporter([&] {
    stats::Rng rng(6);
    const auto noise = privacy::MakeMechanismOrDie(kDefault);
    while (run.load(std::memory_order_relaxed)) {
      const auto w = static_cast<uint32_t>(
          rng.UniformInt(workload.workers.size()));
      geo::Point p = workload.workers[w].location;
      p.x += rng.Gaussian(0.0, 50.0);
      p.y += rng.Gaussian(0.0, 50.0);
      const geo::Point noisy = noise->Perturb(p, rng);
      while (!live.ReportLocation(w, p, noisy) &&
             run.load(std::memory_order_relaxed)) {
        std::this_thread::yield();
      }
    }
  });
  for (const auto& t : workload.tasks) {
    while (!live.SubmitTask(t)) std::this_thread::yield();
  }
  run.store(false, std::memory_order_relaxed);
  reporter.join();
  live.Stop(AssignmentService::StopMode::kDrain);
  ASSERT_EQ(live.completions().size(), workload.tasks.size());

  AssignmentService replay(config);
  for (const auto& w : workload.workers) replay.RegisterWorker(w);
  replay.Replay(live.admission_log());
  ExpectSameResults(live, replay, "live vs replay");
}

TEST(ServiceTest, MatchesEngineWithoutReports) {
  // A service fed only tasks executes the identical protocol sequence as
  // one ScGuardEngine::Run: same random-rank stream (rank_seed == the
  // run Rng's seed), same per-task stage bodies, same MarkMatched
  // active-set maintenance.
  const assign::Workload workload = NoisyWorkload(250, 200, 7003);
  const reachability::AnalyticalModel model(kDefault);

  ServiceConfig config = BaseConfig(&model, workload.region);
  config.rank_seed = 42;
  AssignmentService svc(config);
  for (const auto& w : workload.workers) svc.RegisterWorker(w);
  svc.Start();
  for (const auto& t : workload.tasks) {
    ASSERT_TRUE(svc.SubmitTask(t));
  }
  svc.Stop(AssignmentService::StopMode::kDrain);

  // The service config *is* an engine policy (accuracy scan off).
  assign::ScGuardEngine engine(static_cast<const assign::EnginePolicy&>(config));
  stats::Rng rng(42);
  const assign::MatchResult run = engine.Run(workload, rng);

  ASSERT_EQ(svc.assignments().size(), run.assignments.size());
  for (size_t i = 0; i < run.assignments.size(); ++i) {
    EXPECT_EQ(svc.assignments()[i].task_id, run.assignments[i].task_id);
    EXPECT_EQ(svc.assignments()[i].worker_id, run.assignments[i].worker_id);
    EXPECT_EQ(svc.assignments()[i].travel_m, run.assignments[i].travel_m);
  }
  EXPECT_EQ(svc.metrics().candidates_sum, run.metrics.candidates_sum);
  EXPECT_EQ(svc.metrics().u2u_scanned, run.metrics.u2u_scanned);
  EXPECT_EQ(svc.metrics().false_hits, run.metrics.false_hits);
  EXPECT_EQ(svc.metrics().requester_to_worker_msgs,
            run.metrics.requester_to_worker_msgs);
}

TEST(ServiceTest, QueueFullBackpressureRejectsWithoutBlocking) {
  const assign::Workload workload = NoisyWorkload(50, 40, 7004);
  const reachability::AnalyticalModel model(kDefault);
  ServiceConfig config = BaseConfig(&model, workload.region);
  config.queue_capacity = 8;
  AssignmentService svc(config);
  for (const auto& w : workload.workers) svc.RegisterWorker(w);
  // Not started: the consumer never drains, so pushes past capacity must
  // come back false immediately.
  int64_t accepted = 0;
  for (const auto& t : workload.tasks) {
    if (svc.SubmitTask(t)) ++accepted;
  }
  EXPECT_EQ(accepted, 8);
  const IngestStats ingest = svc.ingest_stats();
  EXPECT_EQ(ingest.tasks_submitted, 8);
  EXPECT_EQ(ingest.tasks_rejected,
            static_cast<int64_t>(workload.tasks.size()) - 8);
  // Start/drain now completes exactly the admitted prefix.
  svc.Start();
  svc.Stop(AssignmentService::StopMode::kDrain);
  EXPECT_EQ(svc.completions().size(), 8u);
}

TEST(ServiceTest, MalformedIngestIsCountedNotAdmitted) {
  // Hostile producers: unknown worker ids and non-finite coordinates in
  // reports, non-finite task locations. Each is refused and counted (never
  // an abort, never admitted), and the run still equals the serial replay
  // of what was admitted.
  const assign::Workload workload = NoisyWorkload(200, 150, 7005);
  const reachability::AnalyticalModel model(kDefault);
  const ServiceConfig config = BaseConfig(&model, workload.region);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const geo::Point ok{5000.0, 5000.0};
  const geo::Point bad[] = {{kNan, 1.0}, {1.0, kInf}, {-kInf, kNan}};
  const auto n = static_cast<uint32_t>(workload.workers.size());

  AssignmentService live(config);
  for (const auto& w : workload.workers) live.RegisterWorker(w);
  live.Start();
  int64_t bad_reports = 0;
  int64_t bad_tasks = 0;
  std::thread hostile([&] {
    for (const uint32_t id : {n, n + 1, 0xffffffffu}) {
      EXPECT_FALSE(live.ReportLocation(id, ok, ok));
      ++bad_reports;
    }
    for (const geo::Point p : bad) {
      EXPECT_FALSE(live.ReportLocation(0, p, ok));
      EXPECT_FALSE(live.ReportLocation(1, ok, p));
      bad_reports += 2;
    }
  });
  stats::Rng rng(8);
  const auto noise = privacy::MakeMechanismOrDie(kDefault);
  int64_t good_reports = 0;
  for (size_t k = 0; k < workload.tasks.size(); ++k) {
    assign::Task t = workload.tasks[k];
    if (k % 10 == 3) {
      // Corrupt one of the two locations.
      (k % 20 == 3 ? t.location : t.noisy_location) = bad[k % 3];
      EXPECT_FALSE(live.SubmitTask(t));
      ++bad_tasks;
      continue;
    }
    while (!live.SubmitTask(t)) std::this_thread::yield();
    const auto w = static_cast<uint32_t>(rng.UniformInt(n));
    const geo::Point p = workload.workers[w].location;
    while (!live.ReportLocation(w, p, noise->Perturb(p, rng))) {
      std::this_thread::yield();
    }
    ++good_reports;
  }
  hostile.join();
  live.Stop(AssignmentService::StopMode::kDrain);

  const IngestStats ingest = live.ingest_stats();
  EXPECT_EQ(ingest.tasks_invalid, bad_tasks);
  EXPECT_EQ(ingest.reports_invalid, bad_reports);
  EXPECT_EQ(ingest.tasks_submitted,
            static_cast<int64_t>(workload.tasks.size()) - bad_tasks);
  EXPECT_EQ(ingest.reports_submitted, good_reports);
  EXPECT_EQ(static_cast<int64_t>(live.admission_log().size()),
            ingest.tasks_submitted + good_reports);
  EXPECT_GT(live.metrics().assigned_tasks, 0);

  AssignmentService replay(config);
  for (const auto& w : workload.workers) replay.RegisterWorker(w);
  replay.Replay(live.admission_log());
  ExpectSameResults(live, replay, "hostile live vs replay");
}

TEST(ServiceTest, EmitsEngineStageHistogramsAndSpans) {
  // The service runs the engine's TaskPipeline, so with obs on it emits the
  // same per-stage histograms, counters and recorder spans as the engine.
  const assign::Workload workload = NoisyWorkload(150, 60, 7006);
  const reachability::AnalyticalModel model(kDefault);
  obs::ObsConfig on;
  on.enabled = true;
  on.recorder = true;
  obs::SetConfig(on);
  obs::ResetGlobal();
  obs::FlightRecorder::Global().Reset();

  AssignmentService svc(BaseConfig(&model, workload.region));
  for (const auto& w : workload.workers) svc.RegisterWorker(w);
  svc.Start();
  for (const auto& t : workload.tasks) {
    while (!svc.SubmitTask(t)) std::this_thread::yield();
  }
  svc.Stop(AssignmentService::StopMode::kDrain);

  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  auto& recorder = obs::FlightRecorder::Global();
  const std::vector<obs::TraceEvent> events = recorder.Drain();
  const std::vector<std::string> names = recorder.names();
  obs::SetConfig(obs::ObsConfig{});
  obs::FlightRecorder::Global().Reset();
  obs::ResetGlobal();

  EXPECT_EQ(snapshot.histograms.at("scguard.engine.u2u_seconds").count,
            static_cast<int64_t>(workload.tasks.size()));
  EXPECT_GT(snapshot.histograms.at("scguard.engine.u2e_seconds").count, 0);
  EXPECT_GT(snapshot.histograms.at("scguard.engine.e2e_seconds").count, 0);
  EXPECT_EQ(snapshot.counters.at("scguard.engine.tasks"),
            static_cast<int64_t>(workload.tasks.size()));
  EXPECT_EQ(snapshot.counters.at("scguard.engine.disclosures"),
            svc.metrics().requester_to_worker_msgs);
  EXPECT_EQ(snapshot.counters.count("scguard.service.workers_evaluated"), 0u);
  std::map<std::string, int> span_begins;
  for (const obs::TraceEvent& e : events) {
    if (e.type == static_cast<uint8_t>(obs::EventType::kSpanBegin)) {
      ++span_begins[names[e.name_id]];
    }
  }
  EXPECT_EQ(span_begins["engine.u2u"],
            static_cast<int>(workload.tasks.size()));
  EXPECT_GT(span_begins["engine.u2e"], 0);
  EXPECT_GT(span_begins["engine.e2e"], 0);
}

TEST(ServiceTest, ReportReactivatesMatchedWorker) {
  // One worker in reach of two tasks: without re-reports the second task
  // goes unassigned (the worker stays matched); a re-report between them
  // makes the worker available again.
  const geo::BoundingBox region =
      geo::BoundingBox::FromCorners({0, 0}, {10000, 10000});
  const reachability::BinaryModel model;

  assign::Worker w;
  w.id = 0;
  w.location = {5000, 5000};
  w.noisy_location = {5020, 4990};
  w.reach_radius_m = 3000;

  assign::Task t1;
  t1.id = 100;
  t1.location = {5100, 5100};
  t1.noisy_location = {5150, 5060};
  assign::Task t2 = t1;
  t2.id = 101;

  ServiceEvent report;
  report.kind = ServiceEvent::Kind::kReport;
  report.worker = 0;
  report.exact = w.location;
  report.noisy = w.noisy_location;

  auto make_event = [](const assign::Task& t) {
    ServiceEvent ev;
    ev.kind = ServiceEvent::Kind::kTask;
    ev.task_id = t.id;
    ev.exact = t.location;
    ev.noisy = t.noisy_location;
    return ev;
  };

  for (const bool reactivate : {true, false}) {
    ServiceConfig config;
    config.u2u_model = &model;
    config.rank = assign::RankStrategy::kNearest;
    config.region = region;
    config.reactivate_on_report = reactivate;
    config.pruning_gamma = 0.9;
    AssignmentService svc(config);
    svc.RegisterWorker(w);
    svc.Replay({make_event(t1), report, make_event(t2)});
    ASSERT_EQ(svc.completions().size(), 2u);
    EXPECT_EQ(svc.completions()[0].worker_id, 0);
    EXPECT_EQ(svc.completions()[1].worker_id, reactivate ? 0 : -1)
        << "reactivate=" << reactivate;
  }
}

}  // namespace
}  // namespace scguard::service
