// Worker-scaling benchmark with the contention telemetry turned on: the
// OTA + StrongARM exploration batch through circuits::BatchRunner at
// 1/2/4/8 workers, reading back the obs registry after each run to break
// the wall time down by flow stage (span-name aggregation) and to price the
// synchronization: lock-wait totals per instrumented site
// (obs.contention.*.wait_us), pool busy/idle split and queue-depth
// distribution (obs.pool.*).
//
// The headline derived metric is lock_wait_share — total time threads sat
// blocked on instrumented locks divided by total thread-time
// (workers x wall). It is the fraction of the machine the run spent
// waiting instead of working, the number the sharded registry exists to
// keep honest. Results land in BENCH_scaling.json; the harness exits
// nonzero only if a run produced no telemetry (stages missing), since
// scaling numbers themselves are hardware-dependent.

#include <chrono>
#include <cstddef>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include <olp/olp.hpp>

namespace {

using namespace olp;

/// Evaluation-heavy exploration profile shared by every job (same shape as
/// bench_batch, fewer seeds — the stage breakdown needs representative
/// work, not a throughput record).
void exploration_profile(circuits::FlowOptions& options) {
  options.bins = 4;
  options.max_tuning_wires = 12;
  options.placer_iterations = 2000;
  options.combo_place_iterations = 300;
}

std::vector<circuits::FlowJob> make_jobs(
    const circuits::Ota5T& ota, const circuits::StrongArmComparator& sa) {
  std::vector<circuits::FlowJob> jobs;
  const auto add = [&jobs](std::string name, circuits::FlowMode mode,
                           const std::vector<circuits::InstanceSpec>& insts,
                           const std::vector<std::string>& nets,
                           std::uint64_t seed) {
    circuits::FlowJob job;
    job.name = std::move(name);
    job.mode = mode;
    job.instances = insts;
    job.routed_nets = nets;
    job.options.seed = seed;
    exploration_profile(job.options);
    jobs.push_back(std::move(job));
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    add("ota/opt/s" + std::to_string(seed), circuits::FlowMode::kOptimize,
        ota.instances(), ota.routed_nets(), seed);
    add("sa/opt/s" + std::to_string(seed), circuits::FlowMode::kOptimize,
        sa.instances(), sa.routed_nets(), seed);
  }
  add("ota/oracle", circuits::FlowMode::kManualOracle, ota.instances(),
      ota.routed_nets(), 1);
  add("sa/oracle", circuits::FlowMode::kManualOracle, sa.instances(),
      sa.routed_nets(), 1);
  return jobs;
}

struct StageTime {
  long count = 0;
  double total_ms = 0.0;
};

struct SiteWait {
  long contended = 0;
  double wait_ms = 0.0;
};

/// Everything read back from one batch run's telemetry window.
struct Row {
  int workers = 1;
  double wall_ms = 0.0;
  std::map<std::string, StageTime> stages;   ///< span name -> aggregate
  std::map<std::string, SiteWait> sites;     ///< lock site -> contention
  double lock_wait_ms = 0.0;                 ///< sum over sites
  double lock_wait_share = 0.0;              ///< lock_wait / (workers*wall)
  double pool_busy_ms = 0.0;
  double pool_idle_ms = 0.0;
  double queue_depth_p50 = 0.0;
  double queue_depth_max = 0.0;
};

Row read_row(int workers, double wall_ms, const obs::Snapshot& snap) {
  Row row;
  row.workers = workers;
  row.wall_ms = wall_ms;
  for (const obs::SpanRecord& s : snap.spans) {
    StageTime& st = row.stages[s.name];
    st.count += 1;
    st.total_ms += s.dur_us / 1000.0;
  }
  // Lock sites: "obs.contention.<site>.wait_us" histograms hold the waits
  // in microseconds; the paired ".contended" counter the event count.
  const std::string prefix = "obs.contention.";
  const std::string suffix = ".wait_us";
  for (const auto& [name, hist] : snap.histograms) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
      continue;
    const std::string site =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    SiteWait& sw = row.sites[site];
    sw.wait_ms = hist.sum / 1000.0;
    sw.contended = snap.counter(prefix + site + ".contended");
    row.lock_wait_ms += sw.wait_ms;
  }
  row.lock_wait_share =
      wall_ms > 0.0 ? row.lock_wait_ms / (workers * wall_ms) : 0.0;
  row.pool_busy_ms = static_cast<double>(snap.counter("obs.pool.busy_us")) / 1000.0;
  row.pool_idle_ms = static_cast<double>(snap.counter("obs.pool.idle_us")) / 1000.0;
  const auto qd = snap.histograms.find("obs.pool.queue_depth");
  if (qd != snap.histograms.end()) {
    row.queue_depth_p50 = qd->second.p50;
    row.queue_depth_max = qd->second.max;
  }
  return row;
}

std::string stage_json(const Row& row) {
  std::string out = "[";
  bool first = true;
  for (const auto& [name, st] : row.stages) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": \"" + jsonl::escape(name) +
           "\", \"count\": " + std::to_string(st.count) +
           ", \"total_ms\": " + fixed(st.total_ms, 3) + "}";
  }
  out += "]";
  return out;
}

std::string site_json(const Row& row) {
  std::string out = "{";
  bool first = true;
  for (const auto& [site, sw] : row.sites) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + jsonl::escape(site) +
           "\": {\"contended\": " + std::to_string(sw.contended) +
           ", \"wait_ms\": " + fixed(sw.wait_ms, 3) + "}";
  }
  out += "}";
  return out;
}

}  // namespace

int main() {
  using namespace olp;
  set_log_level(log_level_from_env("OLP_LOG_LEVEL", LogLevel::kError));
  const tech::Technology t = tech::make_default_finfet_tech();

  circuits::Ota5T ota(t);
  circuits::StrongArmComparator sa(t);
  if (!ota.prepare() || !sa.prepare()) {
    std::cerr << "schematic preparation failed\n";
    return 1;
  }
  const std::vector<circuits::FlowJob> jobs = make_jobs(ota, sa);

  // The runner rebases the registry at the start of every run() and leaves
  // the window in place afterwards, so enable once and snapshot per run.
  obs::Registry::global().enable();

  const int kWorkers[] = {1, 2, 4, 8};
  std::vector<Row> rows;
  bool pass = true;
  for (const int workers : kWorkers) {
    circuits::BatchOptions bopt;
    bopt.workers = workers;
    const circuits::BatchRunner runner(t, bopt);
    const auto t0 = std::chrono::steady_clock::now();
    const circuits::BatchReport batch = runner.run(jobs);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    Row row = read_row(workers, wall_ms, obs::Registry::global().snapshot());
    long failed = 0;
    for (const auto& j : batch.jobs) {
      if (j.status == circuits::JobStatus::kFailed) ++failed;
    }
    if (failed > 0 || row.stages.empty()) pass = false;
    rows.push_back(std::move(row));
  }
  obs::Registry::global().disable();

  // Printed table: stages that matter (>= 1% of the 1-worker total), one
  // column per worker count.
  std::vector<std::string> stage_names;
  for (const auto& [name, st] : rows.front().stages) {
    if (st.total_ms >= 0.01 * rows.front().wall_ms) stage_names.push_back(name);
  }
  TextTable table("Stage wall-time [ms] vs workers (" +
                  std::to_string(jobs.size()) + "-job OTA+StrongARM batch)");
  std::vector<std::string> header = {"stage"};
  for (const Row& r : rows) header.push_back(std::to_string(r.workers) + "w");
  table.set_header(header);
  for (const std::string& name : stage_names) {
    std::vector<std::string> cells = {name};
    for (const Row& r : rows) {
      const auto it = r.stages.find(name);
      cells.push_back(it == r.stages.end() ? "-" : fixed(it->second.total_ms, 1));
    }
    table.add_row(cells);
  }
  std::cout << table << "\n";

  TextTable ctable("Contention vs workers");
  ctable.set_header({"workers", "wall [ms]", "lock-wait [ms]", "lock-wait share",
                     "pool busy [ms]", "pool idle [ms]", "queue p50", "queue max"});
  for (const Row& r : rows) {
    ctable.add_row({std::to_string(r.workers), fixed(r.wall_ms, 1),
                    fixed(r.lock_wait_ms, 2),
                    fixed(100.0 * r.lock_wait_share, 3) + " %",
                    fixed(r.pool_busy_ms, 1), fixed(r.pool_idle_ms, 1),
                    fixed(r.queue_depth_p50, 1), fixed(r.queue_depth_max, 0)});
  }
  std::cout << ctable << "\n";

  std::string json = "{\n";
  json += "  \"jobs\": " + std::to_string(jobs.size()) + ",\n";
  json += "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json += "    {\"workers\": " + std::to_string(r.workers) +
            ", \"wall_ms\": " + fixed(r.wall_ms, 3) +
            ", \"lock_wait_ms\": " + fixed(r.lock_wait_ms, 3) +
            ", \"lock_wait_share\": " + fixed(r.lock_wait_share, 6) +
            ", \"pool_busy_ms\": " + fixed(r.pool_busy_ms, 3) +
            ", \"pool_idle_ms\": " + fixed(r.pool_idle_ms, 3) +
            ", \"queue_depth_p50\": " + fixed(r.queue_depth_p50, 2) +
            ", \"queue_depth_max\": " + fixed(r.queue_depth_max, 2) +
            ",\n     \"contention\": " + site_json(r) +
            ",\n     \"stages\": " + stage_json(r) + "}" +
            (i + 1 < rows.size() ? "," : "") + "\n";
  }
  json += "  ],\n";
  json += std::string("  \"pass\": ") + (pass ? "true" : "false") + "\n";
  json += "}\n";
  std::string err;
  if (!jsonl::well_formed(json, &err)) {
    std::cerr << "internal error: BENCH_scaling.json malformed: " << err << "\n";
    return 1;
  }
  obs::write_text_file("BENCH_scaling.json", json);
  std::cout << "Wrote BENCH_scaling.json\n";
  return pass ? 0 : 1;
}
