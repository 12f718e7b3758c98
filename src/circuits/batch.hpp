#pragma once
// Batch flow runner: many flow jobs over ONE worker pool and ONE shared
// evaluation cache.
//
// A FlowJob names a circuit (instances + nets), a FlowMode and per-job
// FlowOptions; BatchRunner::run() executes a vector of them concurrently on
// a single TaskPool. Jobs are claimed in submission order (the pool's FIFO
// fairness), and every parallel stage inside every job runs on the same
// fixed worker set — worker count bounds the whole batch, not each job.
//
// Cross-job cache sharing: evaluation results are memoized in ONE cache
// per batch, shared by every job. Sharing is sound because every job runs on
// the runner's technology, the one input of an evaluation that the cache key
// does not cover. Each job presents its index as the cache client id; hits
// on entries another job inserted are tallied as cross-job hits —
// testbenches the batch saved versus running every job alone.
//
// Isolation and determinism: each job gets its own Budget (built from its
// FlowOptions::budget_limits — exhaustion of one job never touches a
// sibling), its own DiagnosticsSink, and its own FlowReport. A job that
// throws is recorded as failed (with the error text) and the rest of the
// batch proceeds. Cached values are bit-identical to freshly computed ones
// by construction, an evaluation cut short by its job's budget is never
// cached, and per-batch ordered reduction keeps every job's decisions
// independent of scheduling — so a job whose budget never trips reports
// exactly what it reports alone (tests/test_batch.cpp proves it against the
// serial uncached run), whatever its siblings' budgets do. A job whose own
// budget trips may stop at a different point than its solo run: a cache hit
// charges no testbench and runs none of the simulator's Budget::check()
// probes. A limit of 0 still matches the solo run, because it trips before
// any evaluation.
//
// Telemetry: concurrent jobs cannot each own the process-wide obs registry
// (a per-job rebase would clobber the siblings), so every job runs with
// FlowOptions::own_telemetry = false and the runner attaches ONE pooled
// snapshot — counters and spans of the whole batch — to the BatchReport.
// The pooled telemetry carries no budget of its own: each job's budget is
// its JobResult::report.budget.

#include <cstddef>
#include <string>
#include <vector>

#include "circuits/flow.hpp"
#include "core/eval_cache.hpp"

namespace olp::circuits {

/// One unit of batch work: a circuit, the flow to run on it, and per-job
/// option overrides (seed, budget limits, trace artifacts, ...). Every job
/// runs on the runner's technology. The runner overwrites the options'
/// pool/cache/telemetry plumbing fields; everything else applies verbatim.
struct FlowJob {
  std::string name;  ///< report key; defaults to "job<i>" when empty
  FlowMode mode = FlowMode::kOptimize;
  std::vector<InstanceSpec> instances;
  std::vector<std::string> routed_nets;
  FlowOptions options;
};

enum class JobStatus {
  kSucceeded,  ///< completed with no warning-or-worse diagnostics
  kDegraded,   ///< completed, but some subsystem fell back or was budget-cut
  kFailed,     ///< threw; error holds the message, report/realization partial
};

/// Stable lowercase name: "succeeded", "degraded", "failed".
const char* job_status_name(JobStatus status);

struct JobResult {
  std::string name;
  FlowMode mode = FlowMode::kOptimize;
  JobStatus status = JobStatus::kSucceeded;
  std::string error;  ///< nonempty iff status == kFailed
  FlowReport report;
  Realization realization;
  double queued_s = 0.0;  ///< batch start -> job start (FIFO queue wait)
  double run_s = 0.0;     ///< job start -> job end
};

struct BatchOptions {
  /// Worker threads (including the caller) for the whole batch: jobs AND
  /// their inner parallel stages. 1 = strictly serial (the determinism
  /// reference), 0 = one per hardware core. OLP_THREADS overrides at
  /// runner construction. The pool never runs more threads than hardware
  /// cores: more workers add context switches and lock handoffs, not
  /// throughput. Results are bit-identical at any worker count.
  int workers = 1;
  /// Share one evaluation cache among the batch's jobs (see file comment).
  /// Off = every job runs with exactly its own FlowOptions cache settings.
  bool share_cache = true;
};

struct BatchReport {
  std::vector<JobResult> jobs;
  double wall_s = 0.0;
  int workers = 1;  ///< threads the batch pool ran (capped at the cores)
  long total_testbenches = 0;  ///< across all jobs (simulations actually run)
  /// Pooled shared-cache statistics (zero when sharing is off).
  long cache_hits = 0;
  long cache_misses = 0;
  long cache_entries = 0;
  /// Hits on entries a DIFFERENT job inserted: testbenches saved by
  /// cross-job sharing (1 evaluation == 1 testbench).
  long cross_job_hits = 0;
  /// One pooled snapshot over the whole batch (counters, spans, stage
  /// timings of every job interleaved). Populated when obs::Registry is
  /// enabled during the run; its budget stays default (see file comment).
  obs::FlowTelemetry telemetry;

  std::size_t succeeded() const;
  std::size_t degraded() const;
  std::size_t failed() const;
  /// The named job's result, or null.
  const JobResult* find(const std::string& name) const;
  /// Human-readable per-job status table.
  std::string summary_table() const;
  /// One JSON object per line: one line per job, then one "batch" summary
  /// line. Machine-readable companion of summary_table().
  std::string to_jsonl() const;
  /// Writes to_jsonl() to `path` (throws on I/O failure).
  void write_jsonl(const std::string& path) const;
};

class BatchRunner {
 public:
  /// Every job runs on `technology`; not owned, must outlive run() calls.
  explicit BatchRunner(const tech::Technology& technology,
                       BatchOptions options = {});

  /// Runs every job (failures included — a throwing job is recorded, never
  /// rethrown) and returns the aggregated report. jobs[i] maps to
  /// report.jobs[i].
  BatchReport run(const std::vector<FlowJob>& jobs) const;

  const BatchOptions& options() const { return options_; }

 private:
  const tech::Technology& tech_;
  BatchOptions options_;
};

}  // namespace olp::circuits
