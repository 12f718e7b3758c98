// Thread-count invariance of the opt-in router backends at flow level, plus
// work-stealing TaskPool behavior under concurrent and nested submission.
//
// The fast and negotiated backends intentionally produce a DIFFERENT
// trajectory than the classic default (whose golden lives in
// tests/test_determinism.cpp); the contract proven here is that each is a
// pure function of its options — bit-identical at every thread count, pool
// delays included — so "parallel" never means "nondeterministic".

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuits/flow.hpp"
#include "circuits/ota5t.hpp"
#include "flow_golden.hpp"
#include "util/budget.hpp"
#include "util/faults.hpp"
#include "util/logging.hpp"
#include "util/task_pool.hpp"

namespace olp {
namespace {

const tech::Technology& t() {
  static const tech::Technology tech = tech::make_default_finfet_tech();
  return tech;
}

namespace flows = olp::circuits;

// ---------------------------------------------------------------------------
// Router-backend flow goldens: each opt-in backend (fast, negotiated) is its
// own deterministic trajectory — bit-identical at every thread count, chaos
// pool delays included. The classic default's golden lives in
// test_determinism.cpp and must stay byte-identical to the pre-backend
// router; these pin the siblings the same way.

class RouterBackendFlow : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::kError);
    unsetenv("OLP_THREADS");
    unsetenv("OLP_EVAL_CACHE");
    unsetenv("OLP_DEADLINE_MS");
    unsetenv("OLP_TESTBENCH_BUDGET");
    unsetenv("OLP_ROUTER");
    ota_ = new flows::Ota5T(t());
    ASSERT_TRUE(ota_->prepare());
  }
  static void TearDownTestSuite() { delete ota_; }

  static flows::Realization run_backend(route::RouterBackend backend,
                                        int num_threads,
                                        flows::FlowReport* report) {
    flows::FlowOptions opts;
    opts.num_threads = num_threads;
    opts.router = backend;
    flows::FlowEngine engine(t(), opts);
    return engine.run(flows::FlowMode::kOptimize, ota_->instances(),
                      ota_->routed_nets(), report);
  }

  static void expect_backend_stable(route::RouterBackend backend) {
    flows::FlowReport golden_report;
    const flows::Realization golden =
        run_backend(backend, 1, &golden_report);
    for (const int threads : {2, 8}) {
      flows::FlowReport report;
      const flows::Realization real =
          run_backend(backend, threads, &report);
      expect_same_flow_result(report, golden_report, real, golden);
    }
    FaultConfig config;
    config.seed = 19;
    config.pool_delay_rate = 1.0;
    ScopedFaultInjection chaos(config);
    flows::FlowReport report;
    const flows::Realization real = run_backend(backend, 8, &report);
    expect_same_flow_result(report, golden_report, real, golden);
  }

  static flows::Ota5T* ota_;
};

flows::Ota5T* RouterBackendFlow::ota_ = nullptr;

TEST_F(RouterBackendFlow, FastBackendBitIdenticalAcrossThreadCounts) {
  expect_backend_stable(route::RouterBackend::kFast);
}

TEST_F(RouterBackendFlow, NegotiatedBackendBitIdenticalAcrossThreadCounts) {
  expect_backend_stable(route::RouterBackend::kNegotiated);
}

TEST_F(RouterBackendFlow, EnvSelectedBackendMatchesProgrammaticOption) {
  flows::FlowReport want_report;
  const flows::Realization want =
      run_backend(route::RouterBackend::kFast, 2, &want_report);

  setenv("OLP_ROUTER", "fast", 1);
  flows::FlowOptions opts;
  opts.num_threads = 2;
  flows::FlowEngine engine(t(), opts);
  unsetenv("OLP_ROUTER");
  flows::FlowReport report;
  const flows::Realization real = engine.run(
      flows::FlowMode::kOptimize, ota_->instances(), ota_->routed_nets(),
      &report);
  expect_same_flow_result(report, want_report, real, want);
}

TEST_F(RouterBackendFlow, UnknownEnvBackendKeepsConfiguredDefault) {
  setenv("OLP_ROUTER", "bogus", 1);
  flows::FlowOptions opts;
  opts.num_threads = 1;
  set_log_level(LogLevel::kOff);  // silence the expected warning
  flows::FlowEngine engine(t(), opts);
  set_log_level(LogLevel::kError);
  unsetenv("OLP_ROUTER");
  flows::FlowReport report;
  const flows::Realization real = engine.run(
      flows::FlowMode::kOptimize, ota_->instances(), ota_->routed_nets(),
      &report);
  // "bogus" must fall back to the configured classic default: the run is
  // the classic serial trajectory, not an error.
  flows::FlowOptions classic;
  classic.num_threads = 1;
  flows::FlowEngine classic_engine(t(), classic);
  flows::FlowReport classic_report;
  const flows::Realization classic_real = classic_engine.run(
      flows::FlowMode::kOptimize, ota_->instances(), ota_->routed_nets(),
      &classic_report);
  expect_same_flow_result(report, classic_report, real, classic_real);
}

// ---------------------------------------------------------------------------
// Work stealing under adversarial submission patterns. test_task_pool.cpp
// covers single-submitter behavior; these exercise the multi-slot cases the
// stealing scheduler introduced: several external submitters at once,
// submissions from worker threads (nested batches), and cancellation /
// exception semantics while thieves are active.

TEST(StageParallelStealing, ConcurrentSubmittersUnderChaosDelays) {
  FaultConfig config;
  config.seed = 17;
  config.pool_delay_rate = 1.0;
  ScopedFaultInjection chaos(config);

  TaskPool pool(4);
  const int kSubmitters = 4;
  const std::size_t n = 48;
  std::vector<std::vector<long>> slots(
      kSubmitters, std::vector<long>(n, -1));
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      pool.parallel_for(n, [&, s](std::size_t i) {
        slots[static_cast<std::size_t>(s)][i] =
            static_cast<long>(s) * 1000 + static_cast<long>(i);
        return true;
      });
    });
  }
  for (std::thread& th : submitters) th.join();
  for (int s = 0; s < kSubmitters; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(slots[static_cast<std::size_t>(s)][i],
                static_cast<long>(s) * 1000 + static_cast<long>(i));
    }
  }
}

TEST(StageParallelStealing, NestedSubmissionFromWorkerThreads) {
  // A worker that submits a batch drains it from its own slot while other
  // workers may steal from it — the parallel placer inside a pooled flow
  // job is exactly this shape.
  TaskPool pool(4);
  const std::size_t outer = 6, inner = 32;
  std::vector<std::vector<long>> slots(outer, std::vector<long>(inner, -1));
  pool.parallel_for(outer, [&](std::size_t o) {
    pool.parallel_for(inner, [&, o](std::size_t i) {
      slots[o][i] = static_cast<long>(o * inner + i);
      return true;
    });
    return true;
  });
  for (std::size_t o = 0; o < outer; ++o) {
    for (std::size_t i = 0; i < inner; ++i) {
      EXPECT_EQ(slots[o][i], static_cast<long>(o * inner + i));
    }
  }
}

TEST(StageParallelStealing, CancelDrainsConcurrentSubmittersPromptly) {
  Budget budget;  // unlimited: only cancel() can trip it
  TaskPool pool(4);
  const std::size_t n = 100000;
  std::atomic<long> executed{0};
  const MonotonicStopwatch watch;

  auto submit = [&] {
    pool.parallel_for(n, [&](std::size_t) {
      if (budget.check()) return false;
      executed.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      return true;
    });
  };
  std::thread a(submit), b(submit);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  budget.cancel();
  a.join();
  b.join();

  EXPECT_LT(watch.seconds(), 3.0);
  EXPECT_LT(executed.load(), static_cast<long>(2 * n));
  EXPECT_TRUE(budget.exhausted());
}

TEST(StageParallelStealing, ExceptionStaysWithItsOwnBatch) {
  // Two concurrent submitters, one throwing batch: the exception must
  // surface on the submitter that owns the batch (lowest index, as always)
  // and must not leak into the healthy batch.
  TaskPool pool(4);
  for (int repeat = 0; repeat < 3; ++repeat) {
    std::string caught;
    std::atomic<long> healthy{0};
    std::thread thrower([&] {
      try {
        pool.parallel_for(32, [&](std::size_t i) -> bool {
          throw std::runtime_error("boom " + std::to_string(i));
        });
      } catch (const std::runtime_error& e) {
        caught = e.what();
      }
    });
    std::thread worker_batch([&] {
      pool.parallel_for(64, [&](std::size_t) {
        healthy.fetch_add(1);
        return true;
      });
    });
    thrower.join();
    worker_batch.join();
    EXPECT_EQ(caught, "boom 0");
    EXPECT_EQ(healthy.load(), 64);
  }
}

}  // namespace
}  // namespace olp
