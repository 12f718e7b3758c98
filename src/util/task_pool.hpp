#pragma once
// Fixed-size thread pool with one FIFO batch queue and a deterministic
// ordered-reduction contract.
//
// parallel_for(n, task) runs task(0..n-1) with the calling thread
// participating alongside the workers. A task returns false to stop the
// batch: no further indices are handed out and in-flight tasks finish. With
// one thread, parallel_for is an inline ordered loop that breaks on false.
// Determinism comes from the calling convention, not from scheduling:
// sweep() (below) fills index-addressed slots, checks the budget once per
// index in index order, and returns the slots in index order, so its result
// is independent of completion order. Budget exhaustion is sticky, so a
// trip on any thread drains that batch promptly; other batches go on.
//
// Scheduling: one mutex guards one queue of submitted batches and the claim
// state of every queued batch. Workers always claim one index from the
// earliest batch that still has unclaimed indices, so batches are served in
// submission order and none starves. Within a batch, indices are claimed
// strictly in order, which keeps both the ordered-reduction contract and
// the early-exit guarantee that every index below the stopping index ran.
//
// Concurrent and nested submission: parallel_for may be called from any
// number of threads at once (the batch runner's jobs each submit their own
// sweeps), and from inside a running task on the same pool. Every submitter
// drains its own batch first and then waits for stragglers, so progress
// never depends on a free worker and nesting cannot deadlock. Each batch is
// claimed in order and merged by its own caller, so concurrent batches stay
// bit-identical to running each alone.
//
// Chaos: each task draws at FaultSite::kPoolTaskDelay; a fired draw sleeps
// a few hundred deterministic, index-derived microseconds, letting tests
// scramble completion order adversarially without touching results.
//
// Telemetry (via util/obs): "pool.batches", "pool.tasks",
// "pool.stopped_batches" count work; "pool.submitter_wait_us" (sweep()
// callers waiting on other threads' tasks), "obs.pool.queue_depth"
// (histogram of the queue's depth at each submission), "obs.pool.busy_us"/
// "obs.pool.idle_us" (cumulative worker task-execution vs. wait time), and
// "obs.contention.pool.{contended,wait_us}" (queue-mutex lock waits, via
// obs::timed_lock) show how the pool scales. Workers run under the
// submitting thread's obs ThreadContext, so their spans nest inside the
// submitting span, and each worker names itself "pool/worker-N" for
// Chrome-trace thread lanes.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/budget.hpp"
#include "util/obs.hpp"

namespace olp {

/// Resolves a requested worker count: >= 1 is used as-is, <= 0 means one
/// thread per hardware core (at least 1).
int resolve_num_threads(int requested);

/// `base` with the OLP_THREADS environment override applied (same
/// convention: positive = exact count, 0 = hardware concurrency; unset,
/// non-numeric or outside int leaves `base`), then resolved via
/// resolve_num_threads.
int threads_from_env(int base);

class TaskPool {
 public:
  /// Total thread count including the caller: `threads` == 1 spawns no
  /// workers (parallel_for runs inline), N spawns N-1 workers.
  explicit TaskPool(int threads);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs task(i) for i in [0, n); returns after every started task
  /// finished. A task returning false stops further claims of THIS batch
  /// (started tasks complete; other batches are unaffected). If tasks throw,
  /// the exception thrown by the lowest claimed index is rethrown here after
  /// the batch drains; the pool stays usable. May be called from multiple
  /// threads concurrently and from inside a running task (see file comment).
  /// Returns the microseconds the caller then waited for tasks on other
  /// threads once no index of its batch was left (0 while obs is disabled).
  std::int64_t parallel_for(std::size_t n,
                            const std::function<bool(std::size_t)>& task);

 private:
  /// One submitted batch; lives on the submitting thread's stack for the
  /// duration of its parallel_for call (the caller only returns once
  /// in_flight == 0, so queued pointers never dangle).
  struct Batch {
    const std::function<bool(std::size_t)>* task = nullptr;
    std::size_t n = 0;
    std::size_t next = 0;        ///< next unclaimed index
    std::size_t in_flight = 0;   ///< claimed but not yet finished
    bool stop = false;           ///< early exit requested (or a task threw)
    std::exception_ptr error;
    std::size_t error_index = 0;
    obs::ThreadContext context;  ///< submitting thread's span position

    bool claimable() const { return !stop && next < n; }
    bool done() const { return in_flight == 0 && !claimable(); }
  };

  void worker_loop();
  /// Claims and runs one task of `batch`. `lock` is held on entry and exit.
  void run_one(std::unique_lock<std::mutex>& lock, Batch& batch,
               bool is_worker);
  /// The earliest queued batch with unclaimed work; null when none.
  /// Requires mu_ held.
  Batch* front_claimable();

  std::vector<std::thread> workers_;

  std::mutex mu_;  ///< guards the queue and every queued Batch's state
  std::condition_variable work_cv_;  ///< workers wait for claimable batches
  std::condition_variable done_cv_;  ///< submitters wait for their batch
  std::deque<Batch*> queue_;         ///< batches in submission order
  bool shutdown_ = false;
};

/// Evaluates eval(0), eval(1), ... and returns the contiguous evaluated
/// prefix in index order. `budget` (may be null) is checked once before
/// each index, under one lock and in index order however the pool starts
/// the points, so when the points consume no checks themselves the prefix
/// and the check count are the serial loop's at any thread count. With a
/// pool the points run through parallel_for; without one, inline. A
/// point's exception ends the sweep and propagates.
template <class Eval>
auto sweep(TaskPool* pool, Budget* budget, std::size_t n, Eval&& eval) {
  using T = std::decay_t<std::invoke_result_t<Eval&, std::size_t>>;
  std::vector<std::optional<T>> slots(n);
  std::mutex mu;
  std::size_t next = 0;  // indices [0, next) passed their check
  bool tripped = false;
  const auto point = [&](std::size_t) {
    std::size_t i = 0;
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (tripped || (budget != nullptr && budget->check())) {
        tripped = true;
        return false;
      }
      i = next++;
    }
    slots[i].emplace(eval(i));
    return true;
  };
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!point(i)) break;
    }
  } else {
    obs::counter_add("pool.submitter_wait_us", pool->parallel_for(n, point));
  }
  std::vector<T> prefix;
  prefix.reserve(next);
  for (std::size_t i = 0; i < next; ++i) {
    prefix.push_back(*std::move(slots[i]));
  }
  return prefix;
}

}  // namespace olp
