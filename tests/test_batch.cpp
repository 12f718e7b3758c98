// Batch flow runner tests: the multi-job scheduler must be a pure
// throughput optimization — every job whose budget never trips reports
// byte-identically to running that job alone on the serial uncached path
// (tests/flow_golden.hpp does the comparison), with per-job budget
// isolation and observable cross-job cache sharing.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "circuits/batch.hpp"
#include "circuits/ota5t.hpp"
#include "circuits/strongarm.hpp"
#include "core/eval_cache.hpp"
#include "flow_golden.hpp"
#include "pcell/generator.hpp"
#include "util/jsonl.hpp"
#include "util/logging.hpp"
#include "util/task_pool.hpp"

namespace olp::circuits {
namespace {

const tech::Technology& t() {
  static const tech::Technology tech = tech::make_default_finfet_tech();
  return tech;
}

/// Shared fixture: prepare the circuits once and cache each job's solo
/// serial uncached golden (one per distinct job configuration).
class BatchFlow : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::kError);
    // Batch plumbing and goldens are both configured explicitly here; a
    // stray value from the calling shell must not redefine either.
    unsetenv("OLP_THREADS");
    unsetenv("OLP_EVAL_CACHE");
    unsetenv("OLP_DEADLINE_MS");
    unsetenv("OLP_TESTBENCH_BUDGET");
    ota_ = new Ota5T(t());
    ASSERT_TRUE(ota_->prepare());
    comparator_ = new StrongArmComparator(t());
    ASSERT_TRUE(comparator_->prepare());
  }
  static void TearDownTestSuite() {
    delete comparator_;
    delete ota_;
  }

  /// The mixed 6-job workload: two circuits x {optimize seeds, baseline
  /// modes}. Seed-only variations share every primitive evaluation, which
  /// is what makes cross-job hits inevitable.
  static std::vector<FlowJob> mixed_jobs() {
    std::vector<FlowJob> jobs;
    const auto add = [&jobs](const char* name, FlowMode mode,
                             const std::vector<InstanceSpec>& instances,
                             const std::vector<std::string>& nets,
                             std::uint64_t seed) {
      FlowJob job;
      job.name = name;
      job.mode = mode;
      job.instances = instances;
      job.routed_nets = nets;
      job.options.seed = seed;
      jobs.push_back(std::move(job));
    };
    add("ota/opt/s1", FlowMode::kOptimize, ota_->instances(),
        ota_->routed_nets(), 1);
    add("ota/opt/s2", FlowMode::kOptimize, ota_->instances(),
        ota_->routed_nets(), 2);
    add("ota/conv", FlowMode::kConventional, ota_->instances(),
        ota_->routed_nets(), 1);
    add("sa/opt/s1", FlowMode::kOptimize, comparator_->instances(),
        comparator_->routed_nets(), 1);
    add("sa/opt/s2", FlowMode::kOptimize, comparator_->instances(),
        comparator_->routed_nets(), 2);
    add("sa/oracle", FlowMode::kManualOracle, comparator_->instances(),
        comparator_->routed_nets(), 1);
    return jobs;
  }

  /// Solo golden for one job: serial, uncached, fresh engine.
  static Realization solo(const FlowJob& job, FlowReport* report) {
    FlowOptions opts = job.options;
    opts.num_threads = 1;
    opts.eval_cache = false;
    const FlowEngine engine(t(), opts);
    return engine.run(job.mode, job.instances, job.routed_nets, report);
  }

  static Ota5T* ota_;
  static StrongArmComparator* comparator_;
};

Ota5T* BatchFlow::ota_ = nullptr;
StrongArmComparator* BatchFlow::comparator_ = nullptr;

// The tentpole guarantee: an 8-worker batch with cross-job cache sharing
// reproduces every job's solo serial uncached result byte for byte.
TEST_F(BatchFlow, EightWorkerSharedCacheBatchMatchesSoloSerialRuns) {
  const std::vector<FlowJob> jobs = mixed_jobs();
  BatchOptions bopt;
  bopt.workers = 8;
  const BatchRunner runner(t(), bopt);
  const BatchReport batch = runner.run(jobs);

  ASSERT_EQ(batch.jobs.size(), jobs.size());
  EXPECT_EQ(batch.failed(), 0u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].name);
    FlowReport want_report;
    const Realization want_real = solo(jobs[i], &want_report);
    expect_same_flow_result(batch.jobs[i].report, want_report,
                            batch.jobs[i].realization, want_real);
  }
}

// Serial batch execution (workers = 1) is the same contract at the other
// extreme: the scheduler adds nothing but a loop.
TEST_F(BatchFlow, SerialBatchMatchesSoloRuns) {
  const std::vector<FlowJob> jobs = mixed_jobs();
  BatchOptions bopt;
  bopt.workers = 1;
  const BatchRunner runner(t(), bopt);
  const BatchReport batch = runner.run(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].name);
    FlowReport want_report;
    const Realization want_real = solo(jobs[i], &want_report);
    expect_same_flow_result(batch.jobs[i].report, want_report,
                            batch.jobs[i].realization, want_real);
  }
}

// Cross-job sharing must actually happen — seed-only job variations hit the
// entries their sibling inserted — and be attributed in the report.
TEST_F(BatchFlow, SharedCacheProducesCrossJobHits) {
  BatchOptions bopt;
  bopt.workers = 2;
  const BatchRunner runner(t(), bopt);
  const BatchReport batch = runner.run(mixed_jobs());
  EXPECT_GT(batch.cross_job_hits, 0);
  EXPECT_GT(batch.cache_hits, 0);
  // Sharing saves simulations: the batch total must undercut the solo sum.
  long solo_sum = 0;
  for (const FlowJob& job : mixed_jobs()) {
    FlowReport report;
    (void)solo(job, &report);
    solo_sum += report.testbenches;
  }
  EXPECT_LT(batch.total_testbenches, solo_sum);
}

// Single flight makes the batch's simulation count a property of the job
// set, not of the schedule: each distinct evaluation runs once, whichever
// job gets there first. 2 and 4 workers run exactly the testbenches of the
// 1-worker cached batch, and every job decides exactly as it does there.
TEST_F(BatchFlow, TestbenchCountIsTheSameAtAnyWorkerCount) {
  const std::vector<FlowJob> jobs = mixed_jobs();
  BatchOptions bopt;
  bopt.workers = 1;
  const BatchReport serial = BatchRunner(t(), bopt).run(jobs);
  EXPECT_GT(serial.total_testbenches, 0);
  for (const int workers : {2, 4}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    bopt.workers = workers;
    const BatchReport batch = BatchRunner(t(), bopt).run(jobs);
    EXPECT_EQ(batch.total_testbenches, serial.total_testbenches);
    EXPECT_EQ(batch.cache_misses, serial.cache_misses);
    EXPECT_EQ(batch.cache_entries, serial.cache_entries);
    ASSERT_EQ(batch.jobs.size(), serial.jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      SCOPED_TRACE(jobs[i].name);
      expect_same_flow_result(batch.jobs[i].report, serial.jobs[i].report,
                              batch.jobs[i].realization,
                              serial.jobs[i].realization);
    }
  }
}

// Budget exhaustion of one job stays inside that job: the starved job
// reports exhaustion and degraded salvage, its siblings stay pristine.
TEST_F(BatchFlow, PerJobBudgetExhaustionIsIsolated) {
  std::vector<FlowJob> jobs = mixed_jobs();
  jobs[0].options.budget_limits.max_testbenches = 0;
  BatchOptions bopt;
  bopt.workers = 4;
  const BatchRunner runner(t(), bopt);
  const BatchReport batch = runner.run(jobs);

  EXPECT_TRUE(batch.jobs[0].report.budget.exhausted);
  EXPECT_EQ(batch.jobs[0].status, JobStatus::kDegraded);
  for (std::size_t i = 1; i < batch.jobs.size(); ++i) {
    SCOPED_TRACE(batch.jobs[i].name);
    EXPECT_FALSE(batch.jobs[i].report.budget.exhausted);
    EXPECT_NE(batch.jobs[i].status, JobStatus::kFailed);
  }
  // A limit of 0 trips before the first evaluation, so the starved job also
  // matches ITS solo run. A larger limit need not: cache hits charge no
  // testbench, so a job fed by its siblings trips later than it would alone.
  FlowReport want_report;
  const Realization want_real = solo(jobs[0], &want_report);
  expect_same_flow_result(batch.jobs[0].report, want_report,
                          batch.jobs[0].realization, want_real);
}

// A job whose budget trips partway through an evaluation must not leave the
// truncated metrics in the shared cache for its siblings. Serial batch, so
// the starved job 0 fills the cache before job 1 runs; each limit trips
// job 0 inside an evaluation whose key job 1 later looks up. Then the same
// with the sibling waiting on the starved evaluation while it is in flight:
// a starved evaluator holds the claim on the sibling's first key until the
// sibling waits on it, and the sibling must simulate that key for itself.
TEST_F(BatchFlow, StarvedJobNeverPoisonsItsSiblings) {
  struct Circuit {
    const char* name;
    std::vector<InstanceSpec> instances;
    std::vector<std::string> nets;
    std::vector<long> limits;
  };
  const Circuit cases[] = {
      {"ota", ota_->instances(), ota_->routed_nets(), {141, 144}},
      {"sa", comparator_->instances(), comparator_->routed_nets(), {39, 42}},
  };
  BatchOptions bopt;
  bopt.workers = 1;
  const BatchRunner runner(t(), bopt);
  for (const Circuit& circuit : cases) {
    std::vector<FlowJob> jobs(2);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      jobs[i].mode = FlowMode::kOptimize;
      jobs[i].instances = circuit.instances;
      jobs[i].routed_nets = circuit.nets;
      jobs[i].options.seed = i + 1;
    }
    FlowReport want_report;
    const Realization want_real = solo(jobs[1], &want_report);
    for (const long limit : circuit.limits) {
      SCOPED_TRACE(std::string(circuit.name) + " limit " +
                   std::to_string(limit));
      jobs[0].options.budget_limits.max_testbenches = limit;
      const BatchReport batch = runner.run(jobs);
      EXPECT_TRUE(batch.jobs[0].report.budget.exhausted);
      expect_same_flow_result(batch.jobs[1].report, want_report,
                              batch.jobs[1].realization, want_real);
    }

    SCOPED_TRACE(std::string(circuit.name) + " waiting sibling");
    // The sibling's first evaluation is the schematic reference of its
    // first instance: the middle ABBA configuration, in schematic mode.
    const FlowEngine engine(t());
    const InstanceSpec& inst = circuit.instances.front();
    const pcell::PrimitiveGenerator gen(t());
    const std::vector<pcell::LayoutConfig> configs =
        pcell::PrimitiveGenerator::enumerate_configs(
            inst.fins, {pcell::PlacementPattern::kABBA});
    pcell::PrimitiveLayout reference =
        gen.footprint(inst.netlist, configs[configs.size() / 2]);
    core::EvalCondition ideal;
    ideal.ideal = true;

    core::EvalCache cache;
    std::atomic<bool> claimed{false};
    BudgetOptions starved_limits;
    starved_limits.max_testbenches = 0;
    Budget starved(starved_limits);
    core::PrimitiveEvaluator owner = engine.make_evaluator(inst);
    owner.set_budget(&starved);
    owner.set_cache(&cache, 0);
    std::thread owner_thread([&] {
      (void)owner.evaluate(reference, ideal,
                           [&]() -> const pcell::PrimitiveLayout& {
                             claimed = true;
                             // Hold the claim until the sibling waits on
                             // it (10 s at most, so a broken claim fails
                             // rather than hangs).
                             const auto deadline =
                                 std::chrono::steady_clock::now() +
                                 std::chrono::seconds(10);
                             while (cache.stats().waits == 0 &&
                                    std::chrono::steady_clock::now() <
                                        deadline) {
                               std::this_thread::yield();
                             }
                             return gen.materialize(reference);
                           });
    });
    while (!claimed) std::this_thread::yield();
    FlowOptions sibling_options = jobs[1].options;
    sibling_options.shared_eval_cache = &cache;
    sibling_options.cache_client = 1;
    FlowReport report;
    const Realization real =
        FlowEngine(t(), sibling_options)
            .run(jobs[1].mode, jobs[1].instances, jobs[1].routed_nets, &report);
    owner_thread.join();
    EXPECT_TRUE(starved.exhausted());
    EXPECT_EQ(cache.stats().waits, 1);
    expect_same_flow_result(report, want_report, real, want_real);
  }
}

// Report plumbing: names, modes, lookup, the JSONL export and the summary
// table all reflect the jobs that ran.
TEST_F(BatchFlow, ReportCarriesJobIdentityAndExports) {
  std::vector<FlowJob> jobs = mixed_jobs();
  jobs.resize(2);
  jobs[1].name.clear();  // exercises the job<i> default
  BatchOptions bopt;
  bopt.workers = 2;
  const BatchRunner runner(t(), bopt);
  const BatchReport batch = runner.run(jobs);

  ASSERT_EQ(batch.jobs.size(), 2u);
  EXPECT_EQ(batch.jobs[0].name, "ota/opt/s1");
  EXPECT_EQ(batch.jobs[1].name, "job1");
  EXPECT_EQ(batch.find("ota/opt/s1"), &batch.jobs[0]);
  EXPECT_EQ(batch.find("nope"), nullptr);
  EXPECT_EQ(batch.workers, std::min(2, resolve_num_threads(0)));
  EXPECT_GT(batch.wall_s, 0.0);

  const std::string text = batch.to_jsonl();
  // One line per job plus the batch summary line, each well-formed JSON.
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    std::string err;
    EXPECT_TRUE(jsonl::well_formed(text.substr(start, end - start), &err))
        << err;
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_NE(text.find("\"job\":\"ota/opt/s1\""), std::string::npos);
  EXPECT_NE(text.find("\"batch\":"), std::string::npos);
  EXPECT_FALSE(batch.summary_table().empty());
}

// The report names the threads the pool actually ran: the pool never runs
// more threads than cores, so a request above the core count reports the
// core count.
TEST_F(BatchFlow, ClampedReportNamesThePoolSize) {
  BatchOptions bopt;
  bopt.workers = resolve_num_threads(0) + 4;
  const BatchReport batch = BatchRunner(t(), bopt).run({});
  EXPECT_EQ(batch.workers, resolve_num_threads(0));
}

// A throwing job is recorded as failed with its message; siblings complete.
TEST_F(BatchFlow, FailingJobNeverStopsTheBatch) {
  std::vector<FlowJob> jobs = mixed_jobs();
  jobs.resize(3);
  jobs[1].instances.clear();  // conventional flow asserts on empty circuits
  jobs[1].mode = FlowMode::kConventional;
  jobs[1].instances.push_back(ota_->instances().front());
  jobs[1].instances[0].fins = -1;  // no valid layout configuration
  BatchOptions bopt;
  bopt.workers = 2;
  const BatchRunner runner(t(), bopt);
  const BatchReport batch = runner.run(jobs);

  EXPECT_EQ(batch.jobs[1].status, JobStatus::kFailed);
  EXPECT_FALSE(batch.jobs[1].error.empty());
  EXPECT_EQ(batch.failed(), 1u);
  EXPECT_NE(batch.jobs[0].status, JobStatus::kFailed);
  EXPECT_NE(batch.jobs[2].status, JobStatus::kFailed);
}

}  // namespace
}  // namespace olp::circuits
