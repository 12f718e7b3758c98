#pragma once
// Fixed-size thread pool with one FIFO batch queue and a deterministic
// ordered-reduction contract.
//
// parallel_for(n, task) runs task(0..n-1) with the calling thread
// participating alongside the workers. Determinism comes from the calling
// convention, not from scheduling: tasks write their result into an
// index-addressed slot owned by the caller, and the caller merges the slots
// in submission order after parallel_for returns — results are therefore
// independent of completion order. A task returns false to request early
// exit (budget exhaustion): no further indices are handed out, in-flight
// tasks finish, and slots past the stop point stay unfilled. With one
// thread, parallel_for degenerates to an inline ordered loop with break
// semantics — bit-identical to the pre-pool serial code, including the
// per-index Budget::check() sequence.
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
// Budget interaction: the pool knows nothing about budgets. Tasks probe
// Budget::check() themselves and return false once it trips; because
// exhaustion is sticky, a trip on any worker (a deadline passing, a
// testbench limit reached) drains that batch promptly (every subsequent
// claim sees the trip and stops) — other batches on the pool are untouched.
//
// Chaos: each task draws at FaultSite::kPoolTaskDelay; a fired draw sleeps
// a few hundred deterministic, index-derived microseconds, letting tests
// scramble completion order adversarially without touching results.
//
// Telemetry (via util/obs): "pool.batches", "pool.tasks",
// "pool.stopped_batches" count work; "obs.pool.queue_depth" (histogram of
// the queue's depth at each submission), "obs.pool.busy_us"/
// "obs.pool.idle_us" (cumulative worker task-execution vs. wait time), and
// "obs.contention.pool.{contended,wait_us}" (queue-mutex lock waits, via
// obs::timed_lock) show how the pool scales. Workers run under the
// submitting thread's obs ThreadContext, so their spans nest inside the
// submitting span, and each worker names itself "pool/worker-N" for
// Chrome-trace thread lanes.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

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
  void parallel_for(std::size_t n,
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

/// Serial/parallel dispatch helper: with a pool, parallel_for; without one,
/// the exact seed-serial loop (ordered, breaks on false, no chaos draws).
void run_indexed(TaskPool* pool, std::size_t n,
                 const std::function<bool(std::size_t)>& task);

}  // namespace olp
