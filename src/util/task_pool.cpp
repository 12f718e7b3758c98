#include "util/task_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>

#include "util/env.hpp"
#include "util/faults.hpp"

namespace olp {

namespace {

/// Deterministic per-index delay for a fired kPoolTaskDelay draw: a
/// Knuth-hash scramble of the index spreads sleeps over ~[0.1, 2.4] ms so
/// neighboring indices finish in thoroughly shuffled order.
void chaos_delay(std::size_t index) {
  if (!FaultInjector::global().enabled()) return;
  if (!FaultInjector::global().should_fail(FaultSite::kPoolTaskDelay)) return;
  const std::uint64_t h = (index * 2654435761ULL) % 24ULL;
  std::this_thread::sleep_for(std::chrono::microseconds(100 + 100 * h));
}

/// The queue mutex's contention attribution (obs::timed_lock).
constexpr obs::LockSite kPoolLock{"obs.contention.pool.contended",
                                  "obs.contention.pool.wait_us"};

}  // namespace

int resolve_num_threads(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int threads_from_env(int base) {
  const long value = env::integer("OLP_THREADS", base);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return resolve_num_threads(base);
  }
  return resolve_num_threads(static_cast<int>(value));
}

TaskPool::TaskPool(int threads) {
  const int total = threads < 1 ? 1 : threads;
  workers_.reserve(static_cast<std::size_t>(total - 1));
  for (int i = 1; i < total; ++i) {
    workers_.emplace_back([this, i] {
      obs::set_thread_name("pool/worker-" + std::to_string(i - 1));
      worker_loop();
    });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

TaskPool::Batch* TaskPool::front_claimable() {
  for (Batch* batch : queue_) {
    if (batch->claimable()) return batch;
  }
  return nullptr;
}

std::int64_t TaskPool::parallel_for(
    std::size_t n, const std::function<bool(std::size_t)>& task) {
  if (n == 0) return 0;
  obs::counter_add("pool.batches");
  if (workers_.empty()) {
    // Inline path: the seed-serial loop (ordered, break on false).
    long ran = 0;
    bool stopped = false;
    for (std::size_t i = 0; i < n; ++i) {
      chaos_delay(i);
      ++ran;
      if (!task(i)) {
        stopped = true;
        break;
      }
    }
    obs::counter_add("pool.tasks", ran);
    if (stopped) obs::counter_add("pool.stopped_batches");
    return 0;
  }

  Batch batch;
  batch.task = &task;
  batch.n = n;
  batch.context = obs::capture_thread_context();

  std::unique_lock<std::mutex> lock = obs::timed_lock(mu_, kPoolLock);
  queue_.push_back(&batch);
  obs::histogram("obs.pool.queue_depth",
                 static_cast<double>(queue_.size()));
  lock.unlock();
  work_cv_.notify_all();
  obs::timed_relock(lock, kPoolLock);

  // The submitter works its own batch first (so progress never depends on a
  // free worker — nested submission cannot deadlock), then waits for
  // stragglers claimed by workers.
  while (batch.claimable()) run_one(lock, batch, /*is_worker=*/false);
  const std::int64_t wait_t0 = obs::enabled() ? obs::steady_now_us() : 0;
  done_cv_.wait(lock, [&batch] { return batch.done(); });
  const std::int64_t waited_us =
      wait_t0 != 0 ? obs::steady_now_us() - wait_t0 : 0;
  queue_.erase(std::find(queue_.begin(), queue_.end(), &batch));
  const bool stopped = batch.stop;
  std::exception_ptr error = batch.error;
  lock.unlock();
  if (stopped) obs::counter_add("pool.stopped_batches");
  if (error != nullptr) std::rethrow_exception(error);
  return waited_us;
}

void TaskPool::worker_loop() {
  std::unique_lock<std::mutex> lock = obs::timed_lock(mu_, kPoolLock);
  for (;;) {
    // Idle time = waiting for claimable work; the clock is only read while
    // the registry is enabled, so disabled runs pay nothing here.
    const std::int64_t idle_t0 = obs::enabled() ? obs::steady_now_us() : 0;
    work_cv_.wait(lock,
                  [this] { return shutdown_ || front_claimable() != nullptr; });
    if (idle_t0 != 0) {
      obs::counter_add("obs.pool.idle_us", obs::steady_now_us() - idle_t0);
    }
    if (shutdown_) return;
    run_one(lock, *front_claimable(), /*is_worker=*/true);
  }
}

void TaskPool::run_one(std::unique_lock<std::mutex>& lock, Batch& batch,
                       bool is_worker) {
  const std::size_t index = batch.next++;
  ++batch.in_flight;
  const std::function<bool(std::size_t)>* const task = batch.task;
  const obs::ThreadContext context = batch.context;
  lock.unlock();

  bool keep_going = false;
  std::exception_ptr thrown;
  const std::int64_t busy_t0 = obs::enabled() ? obs::steady_now_us() : 0;
  {
    // Workers adopt the submitting thread's span position so their spans
    // (and any diagnostics' span paths) nest inside the submitting span.
    // The submitter already is that position. Applied per task because a
    // worker may interleave claims from different batches.
    std::unique_ptr<obs::ThreadContextScope> scope;
    if (is_worker) scope = std::make_unique<obs::ThreadContextScope>(context);
    chaos_delay(index);
    try {
      keep_going = (*task)(index);
    } catch (...) {
      thrown = std::current_exception();
    }
  }
  obs::counter_add("pool.tasks");
  if (busy_t0 != 0 && is_worker) {
    obs::counter_add("obs.pool.busy_us", obs::steady_now_us() - busy_t0);
  }

  obs::timed_relock(lock, kPoolLock);
  --batch.in_flight;
  if (thrown != nullptr) {
    if (batch.error == nullptr || index < batch.error_index) {
      batch.error = thrown;
      batch.error_index = index;
    }
    batch.stop = true;
  } else if (!keep_going) {
    batch.stop = true;
  }
  if (batch.done()) done_cv_.notify_all();
}

}  // namespace olp
