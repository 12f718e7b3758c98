// Batch flow runner demo: a mixed set of jobs — the 5T OTA, the StrongARM
// comparator and the ring VCO, across flow modes and placer seeds — executed
// concurrently on one shared worker pool with one cross-job evaluation
// cache. Prints the per-job status table and the pooled cache statistics,
// and exports the machine-readable report as JSONL.
//
//   OLP_THREADS=8 ./batch_flows            # 8 workers for the whole batch
//   OLP_BATCH_JSONL=batch.jsonl ./batch_flows

#include <iostream>

#include <olp/olp.hpp>

int main() {
  using namespace olp;
  set_log_level(log_level_from_env("OLP_LOG_LEVEL", LogLevel::kError));
  const tech::Technology t = tech::make_default_finfet_tech();
  obs::Registry::global().enable();

  circuits::Ota5T ota(t);
  circuits::StrongArmComparator comparator(t);
  circuits::RoVco vco(t);
  if (!ota.prepare() || !comparator.prepare() || !vco.prepare()) {
    std::cerr << "schematic preparation failed\n";
    return 1;
  }

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
    jobs.push_back(std::move(job));
  };
  // Same-circuit jobs with different placer seeds share every primitive
  // evaluation through the batch cache (the seed only steers placement), so
  // the seed sweeps are nearly free after the first job of each circuit.
  add("ota/opt/s1", circuits::FlowMode::kOptimize, ota.instances(),
      ota.routed_nets(), 1);
  add("ota/opt/s2", circuits::FlowMode::kOptimize, ota.instances(),
      ota.routed_nets(), 2);
  add("ota/conv", circuits::FlowMode::kConventional, ota.instances(),
      ota.routed_nets(), 1);
  add("strongarm/opt/s1", circuits::FlowMode::kOptimize,
      comparator.instances(), comparator.routed_nets(), 1);
  add("strongarm/opt/s2", circuits::FlowMode::kOptimize,
      comparator.instances(), comparator.routed_nets(), 2);
  add("vco/opt", circuits::FlowMode::kOptimize, vco.instances(),
      vco.routed_nets(), 1);
  add("vco/conv", circuits::FlowMode::kConventional, vco.instances(),
      vco.routed_nets(), 1);

  circuits::BatchOptions bopt;
  bopt.workers = 0;  // one per core; OLP_THREADS overrides
  const circuits::BatchRunner runner(t, bopt);
  const circuits::BatchReport report = runner.run(jobs);

  std::cout << report.summary_table() << "\n";
  std::cout << "cache: " << report.cache_hits << " hits / "
            << report.cache_misses << " misses; " << report.cross_job_hits
            << " testbenches saved by cross-job sharing\n";
  if (report.telemetry.enabled) {
    std::cout << "\n" << obs::summary_table(report.telemetry);
  }

  const std::string jsonl_path = env::str("OLP_BATCH_JSONL");
  if (!jsonl_path.empty()) {
    report.write_jsonl(jsonl_path);
    std::cout << "wrote " << jsonl_path << "\n";
  }
  return report.failed() == 0 ? 0 : 1;
}
