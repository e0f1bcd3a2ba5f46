// The oracle diff (tests/oracle.h): every production configuration of
// ScGuardEngine and AssignmentService against the naive reference
// implementation of the protocol. The determinism contract under test: for
// a fixed policy and event sequence, MatchResult, the caller's RNG stream
// and the privacy audit counts are bit-identical to the oracle's for every
// model, pruning setting and beta mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "assign/scguard_engine.h"
#include "obs/obs_config.h"
#include "obs/recorder.h"
#include "oracle.h"
#include "privacy/mechanism.h"
#include "reachability/analytical_model.h"
#include "reachability/binary_model.h"
#include "reachability/empirical_model.h"
#include "service/service.h"
#include "stats/rng.h"

namespace scguard {
namespace {

using oracle::ExpectSameAudit;
using oracle::ExpectSameResult;
using oracle::NoisyWorkload;
using privacy::PrivacyParams;

constexpr PrivacyParams kDefault{0.7, 800.0};

struct ModelCase {
  const char* name;
  const reachability::ReachabilityModel* model;
  assign::RankStrategy rank;
};

/// Each test records the audit trail into a freshly drained recorder and
/// leaves observability off.
class OracleDiffTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    binary_ = new reachability::BinaryModel();
    analytical_ = new reachability::AnalyticalModel(kDefault);
    reachability::EmpiricalModelConfig config;
    config.region = geo::BoundingBox::FromCorners({0, 0}, {20000, 20000});
    config.num_samples = 20000;
    stats::Rng rng(20260812);
    auto built = reachability::EmpiricalModel::Build(config, kDefault, rng);
    ASSERT_TRUE(built.ok());
    empirical_ = new reachability::EmpiricalModel(std::move(*built));
  }
  static void TearDownTestSuite() {
    delete empirical_;
    delete analytical_;
    delete binary_;
  }

  void SetUp() override {
    obs::ObsConfig config;
    config.enabled = true;
    config.recorder = true;
    obs::SetConfig(config);
    obs::FlightRecorder::Global().Reset();
  }
  void TearDown() override {
    obs::FlightRecorder::Global().Reset();
    obs::SetConfig(obs::ObsConfig{});
  }

  /// Oblivious nearest-neighbor and random ranking over the binary model
  /// (Alg. 1), probability ranking over the analytical and empirical
  /// models (Alg. 2).
  static std::vector<ModelCase> Models() {
    return {{"binary/NN", binary_, assign::RankStrategy::kNearest},
            {"binary/RR", binary_, assign::RankStrategy::kRandom},
            {"analytical", analytical_, assign::RankStrategy::kProbability},
            {"empirical", empirical_, assign::RankStrategy::kProbability}};
  }

  static assign::EnginePolicy Policy(const ModelCase& mc) {
    assign::EnginePolicy policy;
    policy.u2u_model = mc.model;
    policy.u2e_model = mc.model;
    policy.rank = mc.rank;
    policy.alpha = 0.1;
    policy.beta = 0.25;
    policy.worker_params = kDefault;
    policy.task_params = kDefault;
    return policy;
  }

  static const reachability::BinaryModel* binary_;
  static const reachability::AnalyticalModel* analytical_;
  static const reachability::EmpiricalModel* empirical_;
};

const reachability::BinaryModel* OracleDiffTest::binary_ = nullptr;
const reachability::AnalyticalModel* OracleDiffTest::analytical_ = nullptr;
const reachability::EmpiricalModel* OracleDiffTest::empirical_ = nullptr;

// The engine matrix: model x pruning {none, grid} x beta mode, each cell
// against the oracle's result.
TEST_F(OracleDiffTest, EngineMatchesOracleAcrossConfigurations) {
  const assign::Workload workload = NoisyWorkload(240, 240, 20260901);

  for (const ModelCase& mc : Models()) {
    for (const bool prune : {false, true}) {
      for (const assign::BetaMode beta_mode :
           {assign::BetaMode::kEveryContact,
            assign::BetaMode::kFirstContactOnly}) {
        assign::EnginePolicy policy = Policy(mc);
        policy.beta_mode = beta_mode;
        if (prune) policy.pruning_gamma = 0.9;
        const std::string label =
            std::string(mc.name) + (prune ? " grid" : " unpruned") +
            (beta_mode == assign::BetaMode::kEveryContact ? " beta=every"
                                                          : " beta=first");

        const oracle::Expected want = oracle::Expect(policy, workload, 7);
        ASSERT_GT(want.result.metrics.assigned_tasks, 0) << label;
        ASSERT_GT(want.audit.e2e_disclosures, 0) << label;
        oracle::ExpectEngineMatches(want, policy, workload, 7, label);
      }
    }
  }
}

// Redundant assignment (paper Sec. VII) and a policy with the accuracy
// scan off take the same per-task body.
TEST_F(OracleDiffTest, EngineMatchesOracleWithRedundancy) {
  const assign::Workload workload = NoisyWorkload(300, 120, 20260902);
  for (const bool prune : {false, true}) {
    assign::EnginePolicy policy = Policy(Models()[2]);
    policy.redundancy_k = 2;
    policy.compute_accuracy_metrics = false;
    if (prune) policy.pruning_gamma = 0.9;
    const oracle::Expected want = oracle::Expect(policy, workload, 5);
    const std::string label = prune ? "k=2 grid" : "k=2 unpruned";
    ASSERT_GT(want.result.metrics.accepted_assignments,
              want.result.metrics.assigned_tasks)
        << label;
    oracle::ExpectEngineMatches(want, policy, workload, 5, label);
  }
}

/// A task stream interleaved with re-reports: after every task, two
/// workers take a 300 m Gaussian step and re-release through the
/// mechanism.
std::vector<oracle::Event> ReportingLog(const assign::Workload& workload,
                                        uint64_t seed) {
  stats::Rng rng(seed);
  const auto mechanism = privacy::MakeMechanismOrDie(kDefault);
  std::vector<geo::Point> at(workload.workers.size());
  for (size_t i = 0; i < at.size(); ++i) at[i] = workload.workers[i].location;
  std::vector<oracle::Event> events;
  for (const assign::Task& t : workload.tasks) {
    events.push_back({oracle::Event::Kind::kTask, t.id, 0, t.location,
                      t.noisy_location});
    for (int k = 0; k < 2; ++k) {
      const auto w =
          static_cast<uint32_t>(rng.UniformInt(workload.workers.size()));
      at[w].x += rng.Gaussian(0.0, 300.0);
      at[w].y += rng.Gaussian(0.0, 300.0);
      events.push_back({oracle::Event::Kind::kReport, 0, w, at[w],
                        mechanism->Perturb(at[w], rng)});
    }
  }
  return events;
}

std::vector<service::ServiceEvent> ToServiceLog(
    const std::vector<oracle::Event>& events) {
  std::vector<service::ServiceEvent> log;
  for (const oracle::Event& e : events) {
    service::ServiceEvent ev;
    ev.kind = e.kind == oracle::Event::Kind::kTask
                  ? service::ServiceEvent::Kind::kTask
                  : service::ServiceEvent::Kind::kReport;
    ev.task_id = e.task_id;
    ev.worker = e.worker;
    ev.exact = e.exact;
    ev.noisy = e.noisy;
    log.push_back(ev);
  }
  return log;
}

// The service's Replay over a log with re-reports, with and without
// reactivation: model x pruning x reactivation.
TEST_F(OracleDiffTest, ServiceReplayMatchesOracleWithReports) {
  const assign::Workload workload = NoisyWorkload(200, 160, 20260903);
  const std::vector<oracle::Event> events = ReportingLog(workload, 11);
  const std::vector<service::ServiceEvent> log = ToServiceLog(events);

  for (const ModelCase& mc : Models()) {
    for (const bool prune : {false, true}) {
      for (const bool reactivate : {true, false}) {
        service::ServiceConfig config;
        static_cast<assign::EnginePolicy&>(config) = Policy(mc);
        config.compute_accuracy_metrics = false;
        if (prune) config.pruning_gamma = 0.9;
        config.region = workload.region;
        config.reactivate_on_report = reactivate;
        config.rank_seed = 99;
        const std::string label =
            std::string(mc.name) + (prune ? " grid" : " unpruned") +
            (reactivate ? " reactivate" : " no-reactivate");

        stats::Rng oracle_rng(config.rank_seed);
        const assign::MatchResult want = oracle::Run(
            config, workload.region, workload.workers, events, oracle_rng,
            reactivate);
        const obs::AuditTotals want_audit = oracle::DrainAudit();
        ASSERT_GT(want.metrics.assigned_tasks, 0) << label;

        service::AssignmentService svc(config);
        for (const assign::Worker& w : workload.workers) {
          svc.RegisterWorker(w);
        }
        svc.Replay(log);
        assign::MatchResult got;
        got.assignments = svc.assignments();
        got.metrics = svc.metrics();
        ExpectSameResult(want, got, label);
        ExpectSameAudit(want_audit, oracle::DrainAudit(), label);
        // Each completion names the task's first accepting worker.
        size_t next = 0;
        for (const service::CompletionRecord& c : svc.completions()) {
          if (next < want.assignments.size() &&
              want.assignments[next].task_id == c.task_id) {
            EXPECT_EQ(c.worker_id, want.assignments[next].worker_id)
                << label;
            ++next;
          } else {
            EXPECT_EQ(c.worker_id, -1) << label;
          }
        }
        EXPECT_EQ(next, want.assignments.size()) << label;
      }
    }
  }
}

// The oracle's U2U on its own: a matched worker never reappears, and
// pruning only ever removes candidates.
TEST(NaiveU2uTest, PruningIsASubsetAndMatchedWorkersDrop) {
  const assign::Workload workload = NoisyWorkload(150, 20, 20260904);
  const reachability::AnalyticalModel model(kDefault);
  assign::EnginePolicy policy;
  policy.u2u_model = &model;
  policy.worker_params = kDefault;
  policy.task_params = kDefault;
  const oracle::NaiveU2u full(policy, workload.region);
  policy.pruning_gamma = 0.5;
  const oracle::NaiveU2u pruned(policy, workload.region);

  std::vector<geo::Point> noisy;
  std::vector<double> radius;
  for (const assign::Worker& w : workload.workers) {
    noisy.push_back(w.noisy_location);
    radius.push_back(w.reach_radius_m);
  }
  std::vector<uint8_t> matched(noisy.size(), 0);
  bool pruned_some = false;
  for (const assign::Task& t : workload.tasks) {
    int64_t scanned_full = 0;
    int64_t scanned_pruned = 0;
    const auto a =
        full.Collect(noisy, radius, matched, t.noisy_location, &scanned_full);
    const auto b = pruned.Collect(noisy, radius, matched, t.noisy_location,
                                  &scanned_pruned);
    EXPECT_TRUE(std::includes(a.begin(), a.end(), b.begin(), b.end()));
    EXPECT_LE(scanned_pruned, scanned_full);
    pruned_some |= scanned_pruned < scanned_full;
    if (!a.empty()) {
      matched[a.front()] = 1;
      int64_t scanned = 0;
      const auto again =
          full.Collect(noisy, radius, matched, t.noisy_location, &scanned);
      EXPECT_EQ(again.size(), a.size() - 1);
      EXPECT_EQ(scanned, scanned_full - 1);
    }
  }
  EXPECT_TRUE(pruned_some);
}

}  // namespace
}  // namespace scguard
