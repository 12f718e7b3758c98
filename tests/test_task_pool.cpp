// TaskPool tests: the ordered-reduction contract must hold under adversarial
// completion orders (chaos-injected per-task delays), early exit must stop
// further claims, exceptions must propagate deterministically, and a budget
// tripped on the workers' own check() must drain a running pool promptly.
// The same contracts must hold with several external submitters at once and
// with batches submitted from worker threads (nesting).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/budget.hpp"
#include "util/faults.hpp"
#include "util/task_pool.hpp"

namespace olp {
namespace {

TEST(TaskPool, ThreadsFromEnvOverride) {
  unsetenv("OLP_THREADS");
  EXPECT_EQ(threads_from_env(1), 1);
  EXPECT_EQ(threads_from_env(4), 4);
  setenv("OLP_THREADS", "3", 1);
  EXPECT_EQ(threads_from_env(1), 3);
  setenv("OLP_THREADS", "0", 1);
  EXPECT_GE(threads_from_env(1), 1);  // hardware concurrency, at least one
  setenv("OLP_THREADS", "garbage", 1);
  EXPECT_EQ(threads_from_env(2), 2);  // non-numeric leaves the base
  setenv("OLP_THREADS", "", 1);
  EXPECT_EQ(threads_from_env(2), 2);
  setenv("OLP_THREADS", "4294967297", 1);  // 2^32 + 1: outside int
  EXPECT_EQ(threads_from_env(2), 2);
  unsetenv("OLP_THREADS");
}

TEST(TaskPool, ResolveNumThreads) {
  EXPECT_EQ(resolve_num_threads(1), 1);
  EXPECT_EQ(resolve_num_threads(7), 7);
  EXPECT_GE(resolve_num_threads(0), 1);
  EXPECT_GE(resolve_num_threads(-4), 1);
}

TEST(TaskPool, SingleThreadRunsInlineInOrder) {
  TaskPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  std::vector<std::size_t> order;
  pool.parallel_for(16, [&](std::size_t i) {
    order.push_back(i);  // inline path: no synchronization needed
    return true;
  });
  std::vector<std::size_t> expect(16);
  std::iota(expect.begin(), expect.end(), 0u);
  EXPECT_EQ(order, expect);
}

TEST(TaskPool, SingleThreadStopsAtFalseLikeABreak) {
  TaskPool pool(1);
  std::vector<std::size_t> ran;
  pool.parallel_for(16, [&](std::size_t i) {
    if (i == 5) return false;
    ran.push_back(i);
    return true;
  });
  // Exact break semantics: indices after the stop are never claimed.
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(TaskPool, OrderedReductionUnderAdversarialCompletionOrder) {
  // Chaos delays scramble completion order; the merged (index-addressed)
  // result must not care.
  FaultConfig config;
  config.seed = 7;
  config.pool_delay_rate = 1.0;  // every task sleeps an index-derived amount
  ScopedFaultInjection chaos(config);

  TaskPool pool(8);
  EXPECT_EQ(pool.threads(), 8);
  const std::size_t n = 64;
  std::vector<long> slots(n, -1);
  std::mutex mu;
  std::vector<std::size_t> completion;
  pool.parallel_for(n, [&](std::size_t i) {
    slots[i] = static_cast<long>(i * i);
    std::lock_guard<std::mutex> lock(mu);
    completion.push_back(i);
    return true;
  });

  ASSERT_EQ(completion.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(slots[i], static_cast<long>(i * i)) << i;
  }
  // The index-derived sleeps guarantee at least one inversion in completion
  // order — this is what makes the slot-merge contract load-bearing.
  std::vector<std::size_t> sorted = completion;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_NE(completion, sorted);
  EXPECT_GT(FaultInjector::global().fired(FaultSite::kPoolTaskDelay), 0);
}

TEST(TaskPool, EarlyExitStopsFurtherClaims) {
  TaskPool pool(4);
  const std::size_t n = 1000;
  std::atomic<long> executed{0};
  std::vector<char> ran(n, 0);
  pool.parallel_for(n, [&](std::size_t i) {
    ran[i] = 1;
    executed.fetch_add(1);
    // The sleep keeps per-task runtime non-trivial so the stop request
    // propagates within a small number of concurrent claims.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return i < 10;  // index 10 requests the stop
  });
  // Every index up to the stop ran (claims are handed out in order); only
  // tasks claimed while index 10 was still in flight ran past it — far from
  // all 1000 (generous margin for scheduling jitter on loaded machines).
  for (std::size_t i = 0; i <= 10; ++i) EXPECT_TRUE(ran[i]) << i;
  EXPECT_LE(executed.load(), 100);
}

TEST(TaskPool, LowestIndexExceptionWins) {
  TaskPool pool(4);
  for (int repeat = 0; repeat < 3; ++repeat) {
    try {
      pool.parallel_for(32, [&](std::size_t i) -> bool {
        throw std::runtime_error("task " + std::to_string(i));
      });
      FAIL() << "parallel_for must rethrow";
    } catch (const std::runtime_error& e) {
      // Deterministic: whatever completion order, the error reported is the
      // one thrown by the lowest claimed index that threw — index 0 here,
      // since every task throws.
      EXPECT_STREQ(e.what(), "task 0");
    }
    // The pool survives a throwing batch and stays usable.
    std::vector<int> slots(8, 0);
    pool.parallel_for(8, [&](std::size_t i) {
      slots[i] = 1;
      return true;
    });
    EXPECT_EQ(std::accumulate(slots.begin(), slots.end(), 0), 8);
  }
}

TEST(TaskPool, CancelFromNonWorkerThreadDrainsPromptly) {
  // The deadline trips mid-batch on whichever thread's check() first sees
  // it pass; the trip is sticky, so every other thread stops claiming.
  BudgetOptions limits;
  limits.deadline_s = 0.05;
  Budget budget(limits);
  TaskPool pool(4);
  const std::size_t n = 100000;
  std::atomic<long> executed{0};
  const MonotonicStopwatch watch;

  pool.parallel_for(n, [&](std::size_t) {
    if (budget.check()) return false;
    executed.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return true;
  });

  // The pool drained long before the 100k tasks could have run (at 200 us
  // each, 4 threads would need ~5 s); generous bound for loaded machines.
  EXPECT_LT(watch.seconds(), 3.0);
  EXPECT_LT(executed.load(), static_cast<long>(n));
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.tripped(), BudgetKind::kDeadline);
}

TEST(TaskPool, ConcurrentSubmittersUnderChaosDelays) {
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

TEST(TaskPool, NestedSubmissionFromWorkerThreads) {
  // A worker that submits a batch drains it itself while idle workers claim
  // from it too — the parallel placer inside a pooled flow job is exactly
  // this shape.
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

TEST(TaskPool, CancelDrainsConcurrentSubmittersPromptly) {
  BudgetOptions limits;
  limits.deadline_s = 0.05;
  Budget budget(limits);  // shared by both submitters' batches
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
  a.join();
  b.join();

  EXPECT_LT(watch.seconds(), 3.0);
  EXPECT_LT(executed.load(), static_cast<long>(2 * n));
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.tripped(), BudgetKind::kDeadline);
}

TEST(TaskPool, ExceptionStaysWithItsOwnBatch) {
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

// sweep() checks the budget once before each index, in index order, so
// under every fuel limit a 4-thread sweep under chaos delays returns the
// serial loop's prefix after as many checks. n exceeds the 24 delay
// lengths, so some points start before points of lower index.
TEST(TaskPool, SweepReturnsTheSerialPrefixUnderChaosDelays) {
  FaultConfig config;
  config.seed = 5;
  config.pool_delay_rate = 1.0;
  ScopedFaultInjection chaos(config);
  TaskPool pool(4);
  const std::size_t n = 30;
  auto square = [](std::size_t i) { return static_cast<long>(i * i); };
  for (long fuel = 0; fuel <= static_cast<long>(n); ++fuel) {
    SCOPED_TRACE("fuel " + std::to_string(fuel));
    BudgetOptions limits;
    limits.max_checks = fuel;
    Budget serial_budget(limits);
    Budget pooled_budget(limits);
    const std::vector<long> serial = sweep(nullptr, &serial_budget, n, square);
    const std::vector<long> pooled = sweep(&pool, &pooled_budget, n, square);
    EXPECT_EQ(serial.size(), static_cast<std::size_t>(fuel));
    EXPECT_EQ(pooled, serial);
    EXPECT_EQ(pooled_budget.checks(), serial_budget.checks());
  }
}

// Without a pool, sweep() is the plain ordered loop: it runs the points
// inline in index order and stops at the first tripped check, having made
// one check per evaluated index plus the one that tripped.
TEST(TaskPool, SerialSweepStopsAtTheFirstTrippedCheck) {
  BudgetOptions limits;
  limits.max_checks = 5;
  Budget budget(limits);
  std::vector<std::size_t> order;
  const std::vector<std::size_t> prefix =
      sweep(nullptr, &budget, 8, [&](std::size_t i) {
        order.push_back(i);
        return i;
      });
  EXPECT_EQ(prefix, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(order, prefix);
  EXPECT_EQ(budget.checks(), static_cast<long>(prefix.size()) + 1);
  EXPECT_EQ(sweep(nullptr, nullptr, 3, [](std::size_t i) { return i; }).size(),
            3u);
}

TEST(TaskPool, SweepMovesMoveOnlyResults) {
  TaskPool pool(4);
  for (TaskPool* p : {static_cast<TaskPool*>(nullptr), &pool}) {
    const std::vector<std::unique_ptr<int>> out =
        sweep(p, nullptr, 16, [](std::size_t i) {
          return std::make_unique<int>(static_cast<int>(i));
        });
    ASSERT_EQ(out.size(), 16u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(*out[i], static_cast<int>(i));
    }
  }
}

TEST(TaskPool, EmptyBatchIsANoOp) {
  TaskPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) {
    ran = true;
    return true;
  });
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace olp
