#include "circuits/batch.hpp"

#include <algorithm>
#include <exception>

#include "util/budget.hpp"
#include "util/jsonl.hpp"
#include "util/obs.hpp"
#include "util/table.hpp"
#include "util/task_pool.hpp"
#include "util/trace_export.hpp"

namespace olp::circuits {

using jsonl::escape;  // JSON string escaping is centralized in util/jsonl

const char* job_status_name(JobStatus status) {
  switch (status) {
    case JobStatus::kSucceeded:
      return "succeeded";
    case JobStatus::kDegraded:
      return "degraded";
    case JobStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

std::size_t BatchReport::succeeded() const {
  std::size_t n = 0;
  for (const JobResult& j : jobs) n += j.status == JobStatus::kSucceeded;
  return n;
}

std::size_t BatchReport::degraded() const {
  std::size_t n = 0;
  for (const JobResult& j : jobs) n += j.status == JobStatus::kDegraded;
  return n;
}

std::size_t BatchReport::failed() const {
  std::size_t n = 0;
  for (const JobResult& j : jobs) n += j.status == JobStatus::kFailed;
  return n;
}

const JobResult* BatchReport::find(const std::string& name) const {
  for (const JobResult& j : jobs) {
    if (j.name == name) return &j;
  }
  return nullptr;
}

std::string BatchReport::summary_table() const {
  TextTable table("Batch: " + std::to_string(jobs.size()) + " jobs, " +
                  std::to_string(workers) + " workers, " + fixed(wall_s, 2) +
                  " s wall");
  table.set_header({"job", "mode", "status", "run_s", "testbenches",
                    "diagnostics", "note"});
  for (const JobResult& j : jobs) {
    std::string note;
    if (j.status == JobStatus::kFailed) {
      note = j.error;
    } else if (j.report.budget.exhausted) {
      note = "budget exhausted";
    }
    table.add_row({j.name, flow_mode_name(j.mode), job_status_name(j.status),
                   fixed(j.run_s, 2), std::to_string(j.report.testbenches),
                   std::to_string(j.report.diagnostics.size()), note});
  }
  table.add_rule();
  table.add_row({"total", "", std::to_string(succeeded()) + " ok",
                 fixed(wall_s, 2), std::to_string(total_testbenches),
                 "cache " + std::to_string(cache_hits) + "h/" +
                     std::to_string(cache_misses) + "m",
                 "cross-job hits " + std::to_string(cross_job_hits)});
  return table.render();
}

std::string BatchReport::to_jsonl() const {
  std::string out;
  for (const JobResult& j : jobs) {
    out += "{\"job\":\"" + escape(j.name) + "\"";
    out += ",\"mode\":\"" + std::string(flow_mode_name(j.mode)) + "\"";
    out += ",\"status\":\"" + std::string(job_status_name(j.status)) + "\"";
    if (!j.error.empty()) out += ",\"error\":\"" + escape(j.error) + "\"";
    out += ",\"queued_s\":" + fixed(j.queued_s, 4);
    out += ",\"run_s\":" + fixed(j.run_s, 4);
    out += ",\"testbenches\":" + std::to_string(j.report.testbenches);
    out += ",\"degraded\":" + std::string(j.report.degraded ? "true" : "false");
    out += ",\"budget_exhausted\":" +
           std::string(j.report.budget.exhausted ? "true" : "false");
    out += ",\"diagnostics\":" + std::to_string(j.report.diagnostics.size());
    out += "}\n";
  }
  out += "{\"batch\":{\"jobs\":" + std::to_string(jobs.size());
  out += ",\"succeeded\":" + std::to_string(succeeded());
  out += ",\"degraded\":" + std::to_string(degraded());
  out += ",\"failed\":" + std::to_string(failed());
  out += ",\"workers\":" + std::to_string(workers);
  out += ",\"wall_s\":" + fixed(wall_s, 4);
  out += ",\"testbenches\":" + std::to_string(total_testbenches);
  out += ",\"cache_hits\":" + std::to_string(cache_hits);
  out += ",\"cache_misses\":" + std::to_string(cache_misses);
  out += ",\"cache_entries\":" + std::to_string(cache_entries);
  out += ",\"cross_job_hits\":" + std::to_string(cross_job_hits);
  out += "}}\n";
  return out;
}

void BatchReport::write_jsonl(const std::string& path) const {
  obs::write_text_file(path, to_jsonl());
}

namespace {

/// Executes ONE FlowJob with the batch plumbing overrides (shared pool,
/// pooled telemetry, optional shared batch cache with client id `client`)
/// and per-job isolation: a throwing job is recorded as JobStatus::kFailed
/// with its message, never rethrown. Fills everything but queued_s.
JobResult run_job(const FlowJob& job, const tech::Technology& technology,
                  TaskPool* pool, core::EvalCache* cache, int client) {
  JobResult result;
  result.name = job.name.empty() ? "job" + std::to_string(client) : job.name;
  result.mode = job.mode;
  const MonotonicStopwatch job_watch;

  FlowOptions jopt = job.options;
  // Plumbing overrides: every parallel stage runs on the shared pool,
  // telemetry is pooled by the caller, and the batch cache (when provided)
  // replaces any per-job cache setting. budget_limits pass through
  // untouched and the job's run builds its own Budget from them — that's
  // the per-job isolation.
  jopt.pool = pool;
  jopt.num_threads = 1;  // never spawn an engine-local pool
  jopt.own_telemetry = false;
  if (cache != nullptr) {
    jopt.shared_eval_cache = cache;
    jopt.cache_client = client;
  }
  try {
    const FlowEngine engine(technology, jopt);
    result.realization =
        engine.run(job.mode, job.instances, job.routed_nets, &result.report);
    result.status = result.report.degraded ? JobStatus::kDegraded
                                           : JobStatus::kSucceeded;
  } catch (const std::exception& e) {
    result.status = JobStatus::kFailed;
    result.error = e.what();
    obs::counter_add("batch.jobs_failed");
  } catch (...) {
    result.status = JobStatus::kFailed;
    result.error = "unknown exception";
    obs::counter_add("batch.jobs_failed");
  }
  result.run_s = job_watch.seconds();
  obs::counter_add("batch.jobs");
  return result;
}

}  // namespace

BatchRunner::BatchRunner(const tech::Technology& technology,
                         BatchOptions options)
    : tech_(technology), options_(options) {
  options_.workers = threads_from_env(options_.workers);
}

BatchReport BatchRunner::run(const std::vector<FlowJob>& jobs) const {
  const MonotonicStopwatch watch;
  // The runner owns the obs registry for the whole batch: rebase once here,
  // snapshot once at the end. Jobs run with own_telemetry = false so none of
  // them clobbers the shared window.
  obs::Registry::global().rebase();
  obs::Span root("batch.run");

  // One cache for the whole batch: every job runs on the runner's
  // technology, so every job's evaluations are interchangeable.
  core::EvalCache cache;
  core::EvalCache* shared = options_.share_cache ? &cache : nullptr;

  // Oversubscription guard: resolve_num_threads(0) is one thread per
  // hardware core — the most workers that can ever help on this machine.
  const int pool_workers = std::min(options_.workers, resolve_num_threads(0));
  BatchReport report;
  report.workers = pool_workers;
  report.jobs.resize(jobs.size());
  TaskPool pool(pool_workers);
  pool.parallel_for(jobs.size(), [&](std::size_t i) {
    const double queued_s = watch.seconds();
    report.jobs[i] =
        run_job(jobs[i], tech_, &pool, shared, static_cast<int>(i));
    report.jobs[i].queued_s = queued_s;
    return true;  // one job's failure never stops the batch
  });

  for (const JobResult& j : report.jobs) {
    report.total_testbenches += j.report.testbenches;
  }
  const core::EvalCacheStats s = cache.stats();
  report.cache_hits = s.hits;
  report.cache_misses = s.misses;
  report.cache_entries = s.entries;
  report.cross_job_hits = s.cross_client_hits;
  if (obs::enabled()) {
    obs::counter_add("batch.cross_job_hits", report.cross_job_hits);
  }
  report.wall_s = watch.seconds();
  root.close();
  if (obs::enabled()) {
    report.telemetry =
        obs::make_flow_telemetry(obs::Registry::global().snapshot());
  }
  return report;
}

}  // namespace olp::circuits
