// Microbenchmarks (google-benchmark) for the substrate components: the
// linear solver, the circuit simulator's analyses, the primitive generator,
// the placer and the global router. These are the building blocks whose
// speed sets the flow runtimes reported in Table VIII.

#include <benchmark/benchmark.h>

#include "circuits/common.hpp"
#include "core/evaluator.hpp"
#include "linalg/lu.hpp"
#include "linalg/sparse_lu.hpp"
#include "pcell/generator.hpp"
#include "place/placer.hpp"
#include "route/global_router.hpp"
#include "spice/measure.hpp"
#include "spice/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace olp;

void BM_LuSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  linalg::RealMatrix a(n, n);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = rng.uniform(-1, 1);
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
    a(i, i) += static_cast<double>(n);  // diagonally dominant
  }
  for (auto _ : state) {
    std::vector<double> x;
    benchmark::DoNotOptimize(linalg::solve(a, b, x));
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_LuSolve)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

// One Newton-iteration solve of an MNA-shaped system the size of the
// extracted 8-stage RO-VCO (n = 280, ~1300 structural nonzeros): 245 node
// unknowns on a ring with random cross links and a conductance to ground,
// plus 35 voltage-source branches. The order is chosen once outside the
// loop; each iteration refactors numerically on it and solves.
void BM_SparseLuRefactor(benchmark::State& state) {
  constexpr int kNodes = 245, kSources = 35, kN = kNodes + kSources;
  Rng rng(7);
  std::vector<std::pair<int, int>> edges;
  for (int k = 0; k < kNodes; ++k) edges.emplace_back(k, (k + 1) % kNodes);
  while (edges.size() < 490) {
    const int a = rng.uniform_int(0, kNodes - 1);
    const int b = rng.uniform_int(0, kNodes - 1);
    if (a != b) edges.emplace_back(a, b);
  }
  std::vector<std::pair<int, int>> entries;
  for (int k = 0; k < kNodes; ++k) entries.emplace_back(k, k);
  for (const auto& [a, b] : edges) {
    entries.emplace_back(a, b);
    entries.emplace_back(b, a);
  }
  for (int v = 0; v < kSources; ++v) {
    entries.emplace_back(7 * v, kNodes + v);
    entries.emplace_back(kNodes + v, 7 * v);
  }
  const linalg::SparsePattern pattern(kN, entries);
  std::vector<double> a(static_cast<std::size_t>(pattern.nnz()), 0.0);
  auto at = [&](int r, int c) -> double& {
    return a[static_cast<std::size_t>(pattern.slot(r, c))];
  };
  for (int k = 0; k < kNodes; ++k) at(k, k) += 1e-6;
  for (const auto& [x, y] : edges) {
    const double g = rng.uniform(1e-4, 1e-2);
    at(x, x) += g;
    at(y, y) += g;
    at(x, y) -= g;
    at(y, x) -= g;
  }
  for (int v = 0; v < kSources; ++v) {
    at(7 * v, kNodes + v) = 1.0;
    at(kNodes + v, 7 * v) = 1.0;
  }
  std::vector<double> b(static_cast<std::size_t>(kN));
  for (double& v : b) v = rng.uniform(-1, 1);

  linalg::SparseLu<double> lu(pattern);
  lu.factor(a);
  std::vector<double> x;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lu.factor(a));
    lu.solve(b, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.counters["nnz"] = pattern.nnz();
  state.counters["factor_nnz"] = lu.factor_nnz();
  state.counters["reorders"] = static_cast<double>(lu.reorders());
}
BENCHMARK(BM_SparseLuRefactor);

spice::Circuit make_dp_testbench(const tech::Technology& t) {
  const pcell::PrimitiveGenerator gen(t);
  pcell::LayoutConfig cfg;
  cfg.nfin = 8;
  cfg.nf = 20;
  cfg.m = 6;
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg);
  spice::Circuit ckt;
  const int nm = ckt.add_model(circuits::default_nmos());
  const int pm = ckt.add_model(circuits::default_pmos());
  extract::AnnotateOptions opt;
  opt.nmos_model = nm;
  opt.pmos_model = pm;
  const auto ports = annotate_primitive(ckt, lay, t, "p.", opt);
  ckt.add_vsource("vga", ports.at("ga"), 0, spice::Waveform::dc(0.5), 1.0);
  ckt.add_vsource("vgb", ports.at("gb"), 0, spice::Waveform::dc(0.5));
  ckt.add_vsource("vda", ports.at("da"), 0, spice::Waveform::dc(0.5));
  ckt.add_vsource("vdb", ports.at("db"), 0, spice::Waveform::dc(0.5));
  ckt.add_isource("it", ports.at("s"), 0, spice::Waveform::dc(700e-6));
  return ckt;
}

// One Simulator for every iteration: after the first, each op() finds its
// first matrix bitwise equal to the remembered one and adopts that
// factorization, so this times the adopting path (a compare, a copy and the
// Newton refactors). BM_OperatingPointOrdering times the ordering path.
void BM_OperatingPoint(benchmark::State& state) {
  const tech::Technology t = tech::make_default_finfet_tech();
  const spice::Circuit ckt = make_dp_testbench(t);
  const spice::Simulator sim(ckt);
  for (auto _ : state) {
    const spice::OpResult op = sim.op();
    benchmark::DoNotOptimize(op.x.data());
  }
}
BENCHMARK(BM_OperatingPoint);

// A fresh Simulator per iteration, so every op() orders its first matrix:
// the path each evaluation's first testbench pays. Includes the Simulator's
// construction.
void BM_OperatingPointOrdering(benchmark::State& state) {
  const tech::Technology t = tech::make_default_finfet_tech();
  const spice::Circuit ckt = make_dp_testbench(t);
  for (auto _ : state) {
    const spice::Simulator sim(ckt);
    const spice::OpResult op = sim.op();
    benchmark::DoNotOptimize(op.x.data());
  }
}
BENCHMARK(BM_OperatingPointOrdering);

void BM_AcSweep(benchmark::State& state) {
  const tech::Technology t = tech::make_default_finfet_tech();
  const spice::Circuit ckt = make_dp_testbench(t);
  const spice::Simulator sim(ckt);
  const spice::OpResult op = sim.op();
  spice::AcOptions ac;
  ac.frequencies = spice::log_frequencies(1e6, 1e10, 10);
  for (auto _ : state) {
    const spice::AcResult r = sim.ac(op.x, ac);
    benchmark::DoNotOptimize(r.solutions.data());
  }
}
BENCHMARK(BM_AcSweep);

void BM_GeneratePrimitive(benchmark::State& state) {
  const tech::Technology t = tech::make_default_finfet_tech();
  const pcell::PrimitiveGenerator gen(t);
  const pcell::PrimitiveNetlist dp = pcell::make_diff_pair();
  pcell::LayoutConfig cfg;
  cfg.nfin = 8;
  cfg.nf = 20;
  cfg.m = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const pcell::PrimitiveLayout lay = gen.generate(dp, cfg);
    benchmark::DoNotOptimize(lay.devices.size());
  }
}
BENCHMARK(BM_GeneratePrimitive)->Arg(1)->Arg(4)->Arg(8);

// The plan alone: what scoring a candidate whose evaluation is cached costs.
void BM_Footprint(benchmark::State& state) {
  const tech::Technology t = tech::make_default_finfet_tech();
  const pcell::PrimitiveGenerator gen(t);
  const pcell::PrimitiveNetlist dp = pcell::make_diff_pair();
  pcell::LayoutConfig cfg;
  cfg.nfin = 8;
  cfg.nf = 20;
  cfg.m = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const pcell::PrimitiveLayout lay = gen.footprint(dp, cfg);
    benchmark::DoNotOptimize(lay.devices.size());
  }
}
BENCHMARK(BM_Footprint)->Arg(1)->Arg(4)->Arg(8);

void BM_PrimitiveEvaluation(benchmark::State& state) {
  const tech::Technology t = tech::make_default_finfet_tech();
  const pcell::PrimitiveGenerator gen(t);
  pcell::LayoutConfig cfg;
  cfg.nfin = 8;
  cfg.nf = 20;
  cfg.m = 6;
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg);
  core::BiasContext bias;
  bias.vdd = t.vdd;
  bias.bias_current = 700e-6;
  const core::PrimitiveEvaluator eval(t, circuits::default_nmos(),
                                      circuits::default_pmos(), bias);
  for (auto _ : state) {
    const core::MetricValues v = eval.evaluate(lay, {});
    benchmark::DoNotOptimize(v.size());
  }
}
BENCHMARK(BM_PrimitiveEvaluation);

void BM_Placer(benchmark::State& state) {
  Rng rng(3);
  std::vector<place::Block> blocks;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    blocks.push_back(place::Block{"b" + std::to_string(i),
                                  rng.uniform(1e-6, 5e-6),
                                  rng.uniform(1e-6, 5e-6)});
  }
  std::vector<place::PlacementNet> nets;
  for (int i = 0; i + 1 < n; ++i) {
    place::PlacementNet pn;
    pn.name = "n";
    pn.name += std::to_string(i);
    pn.pins = {{i, 0, 0}, {i + 1, 0, 0}};
    nets.push_back(pn);
  }
  place::PlacerOptions opt;
  opt.iterations = 2000;
  const place::AnnealingPlacer placer(opt);
  for (auto _ : state) {
    const place::PlacementResult r = placer.place(blocks, nets, {});
    benchmark::DoNotOptimize(r.width);
  }
}
BENCHMARK(BM_Placer)->Arg(4)->Arg(8)->Arg(16);

// The eval-cache key every evaluate() call builds, hit or miss.
void BM_EvalCacheKey(benchmark::State& state) {
  const tech::Technology t = tech::make_default_finfet_tech();
  const pcell::PrimitiveGenerator gen(t);
  pcell::LayoutConfig cfg;
  cfg.nfin = 8;
  cfg.nf = 20;
  cfg.m = 6;
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg);
  const core::PrimitiveEvaluator eval(t, circuits::default_nmos(),
                                      circuits::default_pmos(), {});
  core::EvalCondition cond;
  cond.port_wires["da"] = extract::WireRc{12.5, 3e-15};
  for (auto _ : state) {
    const std::string key = eval.cache_key(lay, cond);
    benchmark::DoNotOptimize(key.data());
  }
}
BENCHMARK(BM_EvalCacheKey);

void BM_GlobalRoute(benchmark::State& state) {
  const tech::Technology t = tech::make_default_finfet_tech();
  const geom::Rect region{0, 0, geom::to_nm(20e-6), geom::to_nm(20e-6)};
  Rng rng(11);
  for (auto _ : state) {
    route::GlobalRouter router(t, region, {});
    for (int n = 0; n < 8; ++n) {
      std::vector<geom::Point> pins;
      for (int p = 0; p < 3; ++p) {
        pins.push_back(geom::Point{geom::to_nm(rng.uniform(0, 20e-6)),
                                   geom::to_nm(rng.uniform(0, 20e-6))});
      }
      std::string name = "n";
      name += std::to_string(n);
      const route::NetRoute nr = router.route(name, pins);
      benchmark::DoNotOptimize(nr.segments.size());
    }
  }
}
BENCHMARK(BM_GlobalRoute);

}  // namespace

BENCHMARK_MAIN();
