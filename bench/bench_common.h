#ifndef SCGUARD_BENCH_BENCH_COMMON_H_
#define SCGUARD_BENCH_BENCH_COMMON_H_

// Shared setup for the figure-reproduction harnesses: every bench uses the
// same synthetic T-Drive city, the paper's workload sizes, and 10 seeds, so
// series are comparable across binaries.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "assign/algorithms.h"
#include "common/str_format.h"
#include "obs/export.h"
#include "obs/obs_config.h"
#include "obs/recorder.h"
#include "obs/trace_export.h"
#include "reachability/model_cache.h"
#include "runtime/thread_pool.h"
#include "sim/defaults.h"
#include "sim/experiment.h"
#include "sim/table_printer.h"

// Provenance stamped into every BENCH_*.json (bench/CMakeLists.txt passes
// the real values; the fallbacks keep non-CMake builds compiling).
#ifndef SCGUARD_GIT_SHA
#define SCGUARD_GIT_SHA "unknown"
#endif
#ifndef SCGUARD_CXX_FLAGS
#define SCGUARD_CXX_FLAGS ""
#endif

namespace scguard::bench {

using scguard::FormatDouble;
using scguard::StrCat;

/// True when `name` is set to a value starting with '1' in the
/// environment.
inline bool EnvFlag(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && env[0] == '1';
}

/// Observability switches for the bench binaries: SCGUARD_OBS=1 turns the
/// instrumentation layer on (stage-latency histograms, cache and engine
/// counters land in the BENCH_<name>.json `metrics` block);
/// SCGUARD_OBS_TRACE=1 additionally turns the flight recorder on
/// (recorder.h — per-event tracing and the privacy audit trail);
/// SCGUARD_AUDIT_FULL=1 adds per-candidate U2E audit events (small runs
/// only). Default all off — the published numbers are from uninstrumented
/// runs. Idempotent; every config entry point calls it.
inline void InitObsFromEnv() {
  static const bool initialized = [] {
    obs::ObsConfig config;
    config.enabled = EnvFlag("SCGUARD_OBS");
    config.recorder = EnvFlag("SCGUARD_OBS_TRACE");
    config.audit_full = EnvFlag("SCGUARD_AUDIT_FULL");
    obs::SetConfig(config);
    return true;
  }();
  (void)initialized;
}

/// First "model name" line of /proc/cpuinfo, or "unknown" off Linux.
inline std::string CpuModelName() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return std::string(StripAsciiWhitespace(line.substr(colon + 1)));
      }
    }
  }
  return "unknown";
}

/// The provenance block every BENCH_*.json carries: enough to tell whether
/// two bench JSONs are comparable (same code? same compiler? same
/// machine?) before tools/bench_compare.py flags a perf delta as a
/// regression rather than a machine difference.
inline std::string ProvenanceJson() {
  return StrCat("{\"git_sha\":\"", JsonEscape(SCGUARD_GIT_SHA),
                "\",\"compiler\":\"", JsonEscape(__VERSION__),
                "\",\"cxx_flags\":\"", JsonEscape(SCGUARD_CXX_FLAGS),
                "\",\"hardware_threads\":",
                runtime::ThreadPool::HardwareThreads(), ",\"cpu\":\"",
                JsonEscape(CpuModelName()), "\"}");
}

/// Drains the flight recorder into the per-run artifacts: TRACE_<name>.json
/// (Chrome trace-event JSON — open in ui.perfetto.dev) and
/// AUDIT_<name>.jsonl (one line per privacy-audit event plus a summary
/// line). Returns the audit totals so the caller can reconcile them
/// against its RunMetrics counters. Writes nothing useful (all zeros)
/// while the recorder is off.
inline obs::AuditTotals WriteFlightArtifacts(const std::string& name) {
  auto& recorder = obs::FlightRecorder::Global();
  const int64_t dropped = recorder.dropped();
  const std::vector<obs::TraceEvent> events = recorder.Drain();
  const std::vector<std::string> names = recorder.names();
  {
    std::ofstream out(StrCat("TRACE_", name, ".json"));
    if (out) out << obs::ExportChromeTrace(events, names);
  }
  {
    std::ofstream out(StrCat("AUDIT_", name, ".jsonl"));
    if (out) out << obs::ExportAuditJsonl(events, names, dropped);
  }
  return obs::SummarizeAudit(events);
}

/// The paper's experimental setup (Sec. V-A): 500 workers, 500 tasks,
/// R_w ~ U[1000, 3000] m, averaged over 10 seeds, on one synthetic T-Drive
/// day of 9,019 taxis. Seeds fan out across all hardware threads
/// (config.runtime defaults to num_threads = 0); the reported numbers are
/// bit-identical to the serial path — set num_threads = 1 to verify.
inline sim::ExperimentConfig PaperConfig() {
  InitObsFromEnv();
  sim::ExperimentConfig config;
  config.synth.num_taxis = 9019;
  config.synth.mean_trips_per_taxi = 12.0;
  config.workload.num_workers = 500;
  config.workload.num_tasks = 500;
  config.num_seeds = 10;
  config.base_seed = 42;
  return config;
}

/// Smaller setup for the expensive ablations (exact-Laplace quadrature,
/// pruning backends) so every bench binary stays runnable in seconds.
inline sim::ExperimentConfig QuickConfig() {
  sim::ExperimentConfig config = PaperConfig();
  config.synth.num_taxis = 2000;
  config.workload.num_workers = 250;
  config.workload.num_tasks = 250;
  config.num_seeds = 5;
  return config;
}

inline assign::AlgorithmParams MakeParams(const privacy::PrivacyParams& p,
                                          double alpha = sim::kDefaultAlpha,
                                          double beta = sim::kDefaultBeta) {
  assign::AlgorithmParams params;
  params.worker_params = p;
  params.task_params = p;
  params.alpha = alpha;
  params.beta = beta;
  return params;
}

/// The process-wide pool bench binaries share for sharded empirical-table
/// builds (seed fan-out uses ExperimentConfig::runtime instead).
inline runtime::ThreadPool* BenchPool() {
  static runtime::ThreadPool* pool =
      new runtime::ThreadPool(runtime::ThreadPool::HardwareThreads());
  return pool;
}

/// Fixed shard count for every bench empirical build. A machine-independent
/// constant (NOT the core count): the shard count picks the Monte-Carlo
/// streams, so it must be pinned for tables to be reproducible everywhere;
/// the thread count only decides how many shards run at once.
inline constexpr int kBenchBuildShards = 16;

/// Seed of every bench empirical build (part of the model-cache key).
inline constexpr uint64_t kBenchBuildSeed = 20177;

/// Builds (or reuses) an empirical model for the runner's region at the
/// given privacy level; the expensive Monte-Carlo precomputation that
/// Probabilistic-Data amortizes. Served from reachability::ModelCache, so
/// repeated calls at one privacy level cost a lookup; set
/// SCGUARD_MODEL_CACHE_DIR to also persist tables across bench processes.
inline std::shared_ptr<const reachability::EmpiricalModel> BuildEmpirical(
    const sim::ExperimentRunner& runner, const privacy::PrivacyParams& p,
    uint64_t samples = 200000) {
  static const bool configured = [] {
    if (const char* dir = std::getenv("SCGUARD_MODEL_CACHE_DIR")) {
      reachability::ModelCache::Global().set_cache_dir(dir);
    }
    return true;
  }();
  (void)configured;
  reachability::EmpiricalModelConfig config;
  config.region = runner.region();
  config.num_samples = samples;
  config.num_shards = kBenchBuildShards;
  auto model = reachability::ModelCache::Global().GetOrBuild(
      config, p, p, kBenchBuildSeed, BenchPool());
  if (!model.ok()) {
    std::cerr << "empirical build failed: " << model.status() << "\n";
    std::exit(1);
  }
  return *model;
}

/// Unwraps a Result or aborts with its status (bench binaries have no
/// recovery path).
template <typename T>
T OrDie(Result<T> result) {
  if (!result.ok()) {
    std::cerr << "bench failed: " << result.status() << "\n";
    std::exit(1);
  }
  return std::move(result).ValueOrDie();
}

/// Collects (series, x, metrics) points and writes them as
/// `BENCH_<name>.json` next to the printed tables, so the perf/utility
/// trajectory is machine-trackable across PRs. Flushes on destruction.
class JsonSeriesWriter {
 public:
  explicit JsonSeriesWriter(std::string name) : name_(std::move(name)) {}

  JsonSeriesWriter(const JsonSeriesWriter&) = delete;
  JsonSeriesWriter& operator=(const JsonSeriesWriter&) = delete;

  ~JsonSeriesWriter() { Flush(); }

  /// `extra` key/value pairs are emitted verbatim as additional JSON
  /// fields of this point (e.g. the scale bench's thread count), after the
  /// fixed metric schema. `extra_str` values are emitted as JSON-escaped
  /// strings (mechanism provenance in the frontier bench). Keys must be
  /// unique and distinct from the fixed field names.
  void Add(const std::string& series, double x, const sim::AggregatedMetrics& m,
           std::vector<std::pair<std::string, double>> extra = {},
           std::vector<std::pair<std::string, std::string>> extra_str = {}) {
    points_.push_back({series, x, m, std::move(extra), std::move(extra_str)});
  }

  void Flush() {
    if (flushed_) return;
    flushed_ = true;
    std::ofstream out(StrCat("BENCH_", name_, ".json"));
    if (!out) return;  // Read-only cwd: tables were printed, JSON is bonus.
    out.precision(std::numeric_limits<double>::max_digits10);
    out << "{\"bench\":\"" << name_ << "\",\"provenance\":"
        << ProvenanceJson() << ",\"points\":[";
    for (size_t i = 0; i < points_.size(); ++i) {
      const auto& p = points_[i];
      if (i > 0) out << ',';
      out << "{\"series\":\"" << p.series << "\",\"x\":" << p.x
          << ",\"seeds\":" << p.m.seeds
          << ",\"assigned_tasks\":" << p.m.assigned_tasks
          << ",\"assigned_tasks_stddev\":" << p.m.assigned_tasks_stddev
          << ",\"travel_m\":" << p.m.travel_m
          << ",\"travel_m_stddev\":" << p.m.travel_m_stddev
          << ",\"candidates\":" << p.m.candidates
          << ",\"false_hits\":" << p.m.false_hits
          << ",\"false_dismissals\":" << p.m.false_dismissals
          << ",\"precision\":" << p.m.precision
          << ",\"recall\":" << p.m.recall
          << ",\"disclosures_per_task\":" << p.m.disclosures_per_task
          << ",\"setup_seconds\":" << p.m.setup_seconds
          << ",\"u2u_seconds\":" << p.m.u2u_seconds
          << ",\"u2e_seconds\":" << p.m.u2e_seconds
          << ",\"e2e_seconds\":" << p.m.e2e_seconds
          << ",\"accuracy_seconds\":" << p.m.accuracy_seconds
          << ",\"total_seconds\":" << p.m.total_seconds
          // Wall clock no stage timer covers (loop overhead, bookkeeping).
          << ",\"unattributed_seconds\":"
          << p.m.total_seconds -
                 (p.m.setup_seconds + p.m.u2u_seconds + p.m.u2e_seconds +
                  p.m.e2e_seconds + p.m.accuracy_seconds)
          << ",\"u2u_scanned\":" << p.m.u2u_scanned
          << ",\"u2u_scanned_first_task\":" << p.m.u2u_scanned_first_task
          << ",\"u2u_scanned_last_task\":" << p.m.u2u_scanned_last_task
          << ",\"cells_bulk_accepted\":" << p.m.cells_bulk_accepted
          << ",\"cells_skipped\":" << p.m.cells_skipped
          << ",\"boundary_workers\":" << p.m.boundary_workers
          << ",\"seed_seconds_min\":" << p.m.seed_seconds_min
          << ",\"seed_seconds_median\":" << p.m.seed_seconds_median
          << ",\"seed_seconds_max\":" << p.m.seed_seconds_max;
      for (const auto& [key, value] : p.extra) {
        out << ",\"" << key << "\":" << value;
      }
      for (const auto& [key, value] : p.extra_str) {
        out << ",\"" << key << "\":\"" << JsonEscape(value) << "\"";
      }
      out << '}';
    }
    // Observability snapshot: counters, stage-latency percentiles, and
    // span aggregates of this whole bench process (see EXPERIMENTS.md;
    // "enabled":false means the values are all zero by construction).
    out << "],\"metrics\":" << obs::SnapshotJson() << "}\n";
  }

 private:
  struct Point {
    std::string series;
    double x;
    sim::AggregatedMetrics m;
    std::vector<std::pair<std::string, double>> extra;
    std::vector<std::pair<std::string, std::string>> extra_str;
  };

  std::string name_;
  std::vector<Point> points_;
  bool flushed_ = false;
};

}  // namespace scguard::bench

#endif  // SCGUARD_BENCH_BENCH_COMMON_H_
