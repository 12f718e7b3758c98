// Work stealing under adversarial submission patterns. test_task_pool.cpp
// covers single-submitter behavior; these exercise the multi-slot cases the
// stealing scheduler introduced: several external submitters at once,
// submissions from worker threads (nested batches), and cancellation /
// exception semantics while thieves are active.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/budget.hpp"
#include "util/faults.hpp"
#include "util/task_pool.hpp"

namespace olp {
namespace {

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
