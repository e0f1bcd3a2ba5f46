#include "service/service.h"

#include <chrono>
#include <limits>
#include <utility>

#include "common/check.h"
#include "geo/point.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "runtime/backoff.h"

namespace scguard::service {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Service metric set (DESIGN.md section 14), resolved once per process
/// like the pipeline's. Counters accumulate in consumer locals and flush at
/// loop exit; only the two staleness gauges and the latency histogram are
/// touched per batch / per task, and only while obs is enabled. The
/// protocol's own counters are the pipeline's `scguard.engine.*` family.
struct ServiceObs {
  obs::Counter* tasks;
  obs::Counter* reports;
  obs::Counter* tasks_rejected;
  obs::Counter* reports_rejected;
  obs::Counter* tasks_invalid;
  obs::Counter* reports_invalid;
  obs::Counter* epochs;
  obs::Gauge* queue_depth;
  obs::Gauge* epoch_lag;
  obs::Histogram* admission_to_assignment;

  static const ServiceObs& Get() {
    auto& registry = obs::MetricsRegistry::Global();
    static const ServiceObs o = {
        registry.GetCounter("scguard.service.tasks"),
        registry.GetCounter("scguard.service.reports"),
        registry.GetCounter("scguard.service.tasks_rejected"),
        registry.GetCounter("scguard.service.reports_rejected"),
        registry.GetCounter("scguard.service.tasks_invalid"),
        registry.GetCounter("scguard.service.reports_invalid"),
        registry.GetCounter("scguard.service.epochs"),
        registry.GetGauge("scguard.service.ingest_queue_depth"),
        registry.GetGauge("scguard.service.epoch_lag"),
        registry.GetHistogram(
            "scguard.service.admission_to_assignment_seconds")};
    return o;
  }
};

/// Pre-interned span names for the service's flight-recorder family.
struct ServiceTraceIds {
  uint16_t apply;
  uint16_t scan;
  uint16_t drain;

  static const ServiceTraceIds& Get() {
    auto& recorder = obs::FlightRecorder::Global();
    static const ServiceTraceIds ids = {recorder.InternName("service.apply"),
                                        recorder.InternName("service.scan"),
                                        recorder.InternName("service.drain")};
    return ids;
  }
};

}  // namespace

AssignmentService::AssignmentService(ServiceConfig config)
    : config_(std::move(config)),
      queue_(config_.queue_capacity),
      rank_rng_(config_.rank_seed),
      pipeline_(config_, config_.region, workers_) {
  SCGUARD_CHECK(config_.max_batch >= 1);
}

AssignmentService::~AssignmentService() {
  if (started_ && !stopped_) Stop(StopMode::kAbandon);
}

uint32_t AssignmentService::RegisterWorker(const assign::Worker& w) {
  SCGUARD_CHECK(!started_);
  const size_t i = workers_.size();
  SCGUARD_CHECK(i < std::numeric_limits<uint32_t>::max());
  workers_.push_back(w);
  pipeline_.AddWorkers(rank_rng_);
  return static_cast<uint32_t>(i);
}

void AssignmentService::Start() {
  SCGUARD_CHECK(!started_ && !stopped_);
  started_ = true;
  // Threshold prewarm and pruning-grid build: done here so the consumer's
  // first scan measures only the scan (RunMetrics::setup_seconds).
  pipeline_.Prepare();
  consumer_ = std::thread([this] { ConsumerLoop(); });
}

bool AssignmentService::SubmitTask(const assign::Task& t) {
  if (!t.location.IsFinite() || !t.noisy_location.IsFinite()) {
    tasks_invalid_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  ServiceEvent ev;
  ev.kind = ServiceEvent::Kind::kTask;
  ev.task_id = t.id;
  ev.exact = t.location;
  ev.noisy = t.noisy_location;
  ev.submit_ns = NowNs();
  if (!queue_.TryPush(ev)) {
    tasks_rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  tasks_pushed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool AssignmentService::ReportLocation(uint32_t worker,
                                       geo::Point exact_location,
                                       geo::Point noisy_location) {
  // workers_ stops growing at Start, so its size is safe to read here.
  if (worker >= workers_.size() || !exact_location.IsFinite() ||
      !noisy_location.IsFinite()) {
    reports_invalid_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  ServiceEvent ev;
  ev.kind = ServiceEvent::Kind::kReport;
  ev.worker = worker;
  ev.exact = exact_location;
  ev.noisy = noisy_location;
  ev.submit_ns = NowNs();
  if (!queue_.TryPush(ev)) {
    reports_rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  reports_pushed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void AssignmentService::Stop(StopMode mode) {
  if (!started_ || stopped_) return;
  stopped_ = true;
  const auto drain_start = Clock::now();
  if (mode == StopMode::kAbandon) {
    abandon_.store(true, std::memory_order_release);
  } else {
    draining_.store(true, std::memory_order_release);
  }
  consumer_.join();
  drain_seconds_ =
      std::chrono::duration<double>(Clock::now() - drain_start).count();
  if (mode == StopMode::kDrain && obs::RecorderEnabled()) {
    const uint64_t end_ns = NowNs();
    obs::EmitSpanAt(
        ServiceTraceIds::Get().drain,
        end_ns - static_cast<uint64_t>(drain_seconds_ * 1e9), end_ns);
  }
}

void AssignmentService::Replay(const std::vector<ServiceEvent>& log) {
  SCGUARD_CHECK(!started_ && !stopped_);
  stopped_ = true;  // Results become readable; Start is now invalid.
  pipeline_.Prepare();
  const auto start = Clock::now();
  for (const ServiceEvent& ev : log) {
    log_.push_back(ev);
    if (ev.kind == ServiceEvent::Kind::kReport) {
      ApplyReport(ev);
    } else {
      ScanTask(ev);
    }
  }
  pipeline_.result().metrics.total_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  FinalizeMetrics();
}

IngestStats AssignmentService::ingest_stats() const {
  IngestStats s;
  s.tasks_submitted = tasks_pushed_.load(std::memory_order_relaxed);
  s.reports_submitted = reports_pushed_.load(std::memory_order_relaxed);
  s.tasks_rejected = tasks_rejected_.load(std::memory_order_relaxed);
  s.reports_rejected = reports_rejected_.load(std::memory_order_relaxed);
  s.tasks_invalid = tasks_invalid_.load(std::memory_order_relaxed);
  s.reports_invalid = reports_invalid_.load(std::memory_order_relaxed);
  s.epochs = static_cast<int64_t>(epoch_.load(std::memory_order_acquire));
  return s;
}

void AssignmentService::ConsumerLoop() {
  const bool obs_on = obs::Enabled();
  const bool rec_on = obs::RecorderEnabled();
  const ServiceObs& so = ServiceObs::Get();
  const ServiceTraceIds& sti = ServiceTraceIds::Get();
  runtime::IdleBackoff backoff;
  std::vector<ServiceEvent> batch_tasks;
  batch_tasks.reserve(static_cast<size_t>(config_.max_batch));
  const auto loop_start = Clock::now();

  for (;;) {
    // ---- Apply phase: drain a bounded batch ------------------------
    // Reports mutate the stage state in pop order (incremental Relocate +
    // reactivation); tasks are set aside and scanned after the epoch
    // bump, so every task in a batch sees the same snapshot.
    batch_tasks.clear();
    const uint64_t apply_start_ns = rec_on ? NowNs() : 0;
    size_t popped = 0;
    ServiceEvent ev;
    while (popped < static_cast<size_t>(config_.max_batch) &&
           queue_.TryPop(ev)) {
      ++popped;
      if (ev.kind == ServiceEvent::Kind::kReport) {
        log_.push_back(ev);
        ApplyReport(ev);
      } else {
        batch_tasks.push_back(ev);
      }
    }
    if (popped == 0) {
      if (abandon_.load(std::memory_order_acquire) ||
          draining_.load(std::memory_order_acquire)) {
        break;
      }
      backoff.Pause();
      continue;
    }
    backoff.Reset();
    events_applied_.fetch_add(static_cast<int64_t>(popped),
                              std::memory_order_relaxed);

    // ---- Publish: one epoch per batch ------------------------------
    epoch_.fetch_add(1, std::memory_order_release);
    ++epochs_published_;
    if (obs_on) {
      so.queue_depth->Set(static_cast<double>(queue_.ApproxDepth()));
      const int64_t pushed =
          tasks_pushed_.load(std::memory_order_relaxed) +
          reports_pushed_.load(std::memory_order_relaxed);
      so.epoch_lag->Set(static_cast<double>(
          pushed - events_applied_.load(std::memory_order_relaxed)));
    }
    if (rec_on) obs::EmitSpanAt(sti.apply, apply_start_ns, NowNs());

    // ---- Scan phase: tasks pinned at the new epoch -----------------
    for (const ServiceEvent& task_ev : batch_tasks) {
      const uint64_t scan_start_ns = rec_on ? NowNs() : 0;
      log_.push_back(task_ev);
      ScanTask(task_ev);
      if (rec_on) obs::EmitSpanAt(sti.scan, scan_start_ns, NowNs());
      if (obs_on && !completions_.empty()) {
        const CompletionRecord& done = completions_.back();
        so.admission_to_assignment->Observe(
            static_cast<double>(done.done_ns - done.submit_ns) * 1e-9);
      }
    }
    // Live protocol counters: one delta flush per epoch.
    if (obs_on) pipeline_.Flush();

    if (abandon_.load(std::memory_order_acquire)) break;
  }

  pipeline_.result().metrics.total_seconds =
      std::chrono::duration<double>(Clock::now() - loop_start).count();
  FinalizeMetrics();
}

void AssignmentService::ApplyReport(const ServiceEvent& ev) {
  SCGUARD_CHECK(ev.worker < workers_.size());  // Ingest validated it.
  assign::Worker& w = workers_[ev.worker];
  w.location = ev.exact;
  w.noisy_location = ev.noisy;
  pipeline_.Relocate(ev.worker, ev.noisy, config_.reactivate_on_report);
  ++reports_applied_;
}

void AssignmentService::ScanTask(const ServiceEvent& ev) {
  CompletionRecord done;
  done.task_id = ev.task_id;
  done.submit_ns = ev.submit_ns;
  done.epoch = epoch_.load(std::memory_order_relaxed);
  const assign::TaskOutcome outcome =
      pipeline_.RunTask(ev.task_id, ev.exact, ev.noisy);
  done.worker_id = outcome.worker_id;
  done.travel_m = outcome.travel_m;
  done.done_ns = NowNs();
  completions_.push_back(done);
}

void AssignmentService::FinalizeMetrics() {
  if (finalized_) return;
  finalized_ = true;
  pipeline_.Flush();
  // One flush per service counter; the protocol counters are the
  // pipeline's, so nothing is counted twice.
  const ServiceObs& so = ServiceObs::Get();
  so.tasks->Increment(metrics().num_tasks);
  so.reports->Increment(reports_applied_);
  so.tasks_rejected->Increment(
      tasks_rejected_.load(std::memory_order_relaxed));
  so.reports_rejected->Increment(
      reports_rejected_.load(std::memory_order_relaxed));
  so.tasks_invalid->Increment(tasks_invalid_.load(std::memory_order_relaxed));
  so.reports_invalid->Increment(
      reports_invalid_.load(std::memory_order_relaxed));
  so.epochs->Increment(epochs_published_);
}

}  // namespace scguard::service
