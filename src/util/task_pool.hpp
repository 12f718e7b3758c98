#pragma once
// Fixed-size thread pool with per-thread run queues, random-victim work
// stealing, and a deterministic ordered-reduction contract.
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
// Scheduling (the worker-scaling substrate): every submitting thread owns a
// run-queue slot — slot 0 is shared by external (non-worker) submitters,
// slot i+1 belongs to worker i — and each parallel_for publishes its batch
// on the submitter's own slot. Idle workers first serve their own slot,
// then steal from a random victim slot, claiming one index at a time.
// There is no global pool mutex on the claim path: each slot has its own
// small mutex guarding only the batches advertised there, so claim traffic
// from independent submitters (the batch runner's concurrent jobs) never
// serializes on shared state. Within one batch claims are still handed out
// strictly in index order — work stealing decides WHO runs an index, never
// WHICH index runs next — which preserves both the ordered-reduction
// contract and the early-exit guarantee that every index below the stopping
// index was executed.
//
// External submission: parallel_for may be called from ANY number of
// threads concurrently. Per-slot batch lists are served oldest-first by
// thieves (FIFO fairness, no batch starves), while every submitting thread
// drains its own batch first and then waits for stragglers. Nested
// submission is supported: a task may call parallel_for on the same pool
// (the inner batch lands on the worker's own slot; its submitter drains it
// itself, so progress never depends on a free worker and nesting cannot
// deadlock). Per-batch determinism is unchanged — each batch's indices are
// claimed in order and merged by its own caller — so concurrent batches
// stay bit-identical to running each alone.
//
// Budget interaction: the pool knows nothing about budgets. Tasks probe
// Budget::check() themselves and return false once it trips; because
// exhaustion is sticky, a Budget::cancel() from any thread drains that
// batch promptly (every subsequent claim sees the trip and stops) — other
// batches on the pool are untouched.
//
// Chaos: each task draws at FaultSite::kPoolTaskDelay; a fired draw sleeps
// a few hundred deterministic, index-derived microseconds, letting tests
// scramble completion order adversarially without touching results.
//
// Telemetry (via util/obs): "pool.batches", "pool.tasks",
// "pool.stopped_batches" count work; the contention families measure how
// the pool scales — "obs.pool.queue_depth" (histogram of the submitting
// slot's batch-list depth at each submission), "obs.pool.busy_us"/
// "obs.pool.idle_us" (cumulative worker task-execution vs. wait time), and
// "obs.contention.pool.{contended,wait_us}" (slot-mutex lock waits, via
// obs::timed_lock — with per-slot mutexes these now meter real cross-thread
// claim collisions, not global serialization). Workers run under the
// submitting thread's obs ThreadContext, so their spans nest inside the
// submitting span, and each worker names itself "pool/worker-N" for
// Chrome-trace thread lanes.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/obs.hpp"

namespace olp {

/// Resolves a requested worker count: >= 1 is used as-is, <= 0 means one
/// thread per hardware core (at least 1).
int resolve_num_threads(int requested);

/// `base` with the OLP_THREADS environment override applied (same
/// convention: positive = exact count, 0 = hardware concurrency; unset or
/// non-numeric leaves `base`), then resolved via resolve_num_threads.
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
  struct Slot;

  /// One submitted batch; lives on the submitting thread's stack for the
  /// duration of its parallel_for call. The batch is advertised on its home
  /// slot only while it has unclaimed indices, and the caller only returns
  /// once in_flight == 0, so stolen pointers never dangle: every claim
  /// happens under the home slot's mutex, and the batch is unlisted (under
  /// that same mutex) before it can be destroyed.
  struct Batch {
    const std::function<bool(std::size_t)>* task = nullptr;
    std::size_t n = 0;
    std::size_t next = 0;        ///< next unclaimed index (home->mu)
    std::size_t in_flight = 0;   ///< claimed but not yet finished (home->mu)
    bool stop = false;           ///< early exit requested (or a task threw)
    std::exception_ptr error;
    std::size_t error_index = 0;
    obs::ThreadContext context;  ///< submitting thread's span position
    Slot* home = nullptr;        ///< the slot this batch was published on

    bool claimable() const { return !stop && next < n; }
    bool done() const { return in_flight == 0 && !claimable(); }
  };

  /// One per-thread run queue. Slot 0 belongs to external submitters
  /// collectively; slot i+1 to worker i. Its mutex guards the batch list
  /// AND every listed batch's claim state (next/in_flight/stop/error).
  struct Slot {
    std::mutex mu;
    std::vector<Batch*> batches;      ///< live claimable batches, oldest first
    std::condition_variable done_cv;  ///< submitters wait for their batch
  };

  void worker_loop(std::size_t slot_index);
  /// One steal attempt: serve the worker's own slot, then sweep every other
  /// slot starting from a random victim; claims and runs at most one index.
  bool find_and_run_once(std::size_t self_slot, std::uint64_t& rng_state);
  /// Runs a claimed index (chaos delay, task, telemetry) and performs the
  /// completion bookkeeping on the batch's home slot.
  void run_claimed(Batch* batch, std::size_t index, bool is_worker);
  /// Removes `batch` from `slot`'s advertised list if present. Requires
  /// slot.mu held.
  static void unlist(Slot& slot, Batch* batch);

  std::vector<std::unique_ptr<Slot>> slots_;  ///< [0]=external, [i+1]=worker i
  std::vector<std::thread> workers_;

  /// Sleep/wake protocol only — never touched on the claim path. Workers
  /// that find nothing to steal wait here; each submission bumps the
  /// version so a publish between a worker's last sweep and its wait is
  /// never missed.
  std::mutex wake_mu_;
  std::condition_variable work_cv_;
  std::uint64_t work_version_ = 0;
  bool shutdown_ = false;
};

/// Serial/parallel dispatch helper: with a pool, parallel_for; without one,
/// the exact seed-serial loop (ordered, breaks on false, no chaos draws).
void run_indexed(TaskPool* pool, std::size_t n,
                 const std::function<bool(std::size_t)>& task);

}  // namespace olp
