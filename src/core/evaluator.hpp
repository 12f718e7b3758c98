#pragma once
// Primitive testbench evaluation (paper Sec. II-B, Fig. 4).
//
// For each primitive family the evaluator builds a small SPICE testbench
// around the (annotated) primitive — DC bias conditions come from the
// circuit-level schematic simulation, external elements are ideal at their
// schematic values — and measures the family's performance metrics through
// cheap circuit simulation. The same testbench runs in schematic mode
// (no parasitics/LDE) to produce the reference values x_sch.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "core/metrics.hpp"
#include "extract/annotate.hpp"
#include "pcell/capacitor.hpp"
#include "pcell/primitive.hpp"
#include "spice/circuit.hpp"
#include "tech/technology.hpp"

namespace olp {
class Budget;
class DiagnosticsSink;
}

namespace olp::core {

class EvalCache;

/// DC bias conditions and external loads for a primitive, taken from the
/// circuit-level schematic simulation (paper Algorithm 1 line 3).
struct BiasContext {
  double vdd = 0.8;
  /// DC voltage at each primitive port (defaults to vdd/2 when absent).
  std::map<std::string, double> port_voltage;
  /// External load capacitance seen at a port, at its schematic value.
  std::map<std::string, double> port_load_cap;
  /// Tail / reference current where the primitive needs one [A].
  double bias_current = 100e-6;
};

/// What to evaluate: schematic vs extracted, strap tuning, external wires.
struct EvalCondition {
  bool ideal = false;                 ///< schematic mode
  extract::TuningMap tuning;          ///< internal strap parallel wires
  /// External route RC attached at a port (primitive port optimization).
  std::map<std::string, extract::WireRc> port_wires;
  /// Per-device threshold perturbations (Monte Carlo mismatch sampling).
  std::map<std::string, double> extra_dvth;
};

/// Counters for the paper's Table V (simulations per optimization step).
/// Atomic so concurrent TaskPool evaluations merge instead of racing.
struct EvalStats {
  /// Testbench evaluations (Table V semantics).
  std::atomic<long> testbenches{0};
  /// Non-finite metrics sanitized to 0; the optimizer clamps the affected
  /// candidate's cost to a large-but-finite penalty instead.
  std::atomic<long> quarantined{0};
  EvalStats() = default;
  // Copying snapshots the counters (atomics are not copyable themselves);
  // keeps PrimitiveEvaluator movable/copyable for by-value construction.
  EvalStats(const EvalStats& other)
      : testbenches(other.testbenches.load()),
        quarantined(other.quarantined.load()) {}
  EvalStats& operator=(const EvalStats& other) {
    testbenches = other.testbenches.load();
    quarantined = other.quarantined.load();
    return *this;
  }
  void reset() {
    testbenches = 0;
    quarantined = 0;
  }
};

/// Per-call evaluation outcome, for callers that need this evaluation's
/// result attribution without reading the shared (racy-under-threads)
/// EvalStats deltas.
struct EvalOutcome {
  long quarantined = 0;   ///< metrics sanitized in this call
  bool cache_hit = false; ///< served from the eval cache, no simulation
};

/// Evaluates primitive performance metrics by simulation.
class PrimitiveEvaluator {
 public:
  PrimitiveEvaluator(const tech::Technology& technology, spice::MosModel nmos,
                     spice::MosModel pmos, BiasContext bias);

  /// Testbench under construction (exposed for the free helper functions in
  /// the implementation file).
  struct Bench;

  /// Runs the family's testbenches on the given realized layout. Non-finite
  /// metric values are quarantined: sanitized to 0.0, counted in
  /// stats().quarantined, and reported to the diagnostics sink — NaN never
  /// propagates into downstream cost arithmetic. `outcome` (may be null)
  /// receives this call's quarantine count and cache-hit flag. With a cache
  /// attached, clean evaluations are memoized; quarantined ones never are,
  /// so their diagnostics re-fire identically on every re-evaluation.
  MetricValues evaluate(const pcell::PrimitiveLayout& layout,
                        const EvalCondition& condition,
                        EvalOutcome* outcome = nullptr) const;

  /// Returns the full layout of the footprint being evaluated.
  using Materializer = std::function<const pcell::PrimitiveLayout&()>;

  /// The same evaluation of the layout `footprint` stands for (a
  /// PrimitiveGenerator::footprint() or a full layout), with one cache
  /// lookup: a hit reads only the key, and only a miss calls `full` for the
  /// layout to simulate. With a cache attached, a miss on a key another
  /// evaluation has in flight waits for it (single flight, see
  /// core/eval_cache.hpp) and counts "eval.cache_waits".
  MetricValues evaluate(const pcell::PrimitiveLayout& footprint,
                        const EvalCondition& condition,
                        const Materializer& full,
                        EvalOutcome* outcome = nullptr) const;

  /// Attaches a diagnostics sink (may be null to detach); the sink must
  /// outlive the evaluator. Forwarded to every internal simulator.
  void set_diagnostics(DiagnosticsSink* sink) { diag_ = sink; }

  /// Attaches an execution budget (may be null to detach); the budget must
  /// outlive the evaluator. Every testbench run consumes one unit of the
  /// testbench budget, and the budget is forwarded to every internal
  /// simulator so exhaustion also bounds Newton/timestep loops.
  void set_budget(Budget* budget) { budget_ = budget; }

  /// Attaches a memoizing evaluation cache (may be null to detach); the
  /// cache must outlive the evaluator. Cache hits skip simulation entirely —
  /// and therefore also skip testbench-budget consumption and chaos fault
  /// draws — which is why the flow leaves the cache off by default. An
  /// evaluation that ends with the attached budget exhausted is not cached.
  /// `client` identifies this evaluator's flow run when several runs share
  /// one cache (circuits/batch); hits on entries another client inserted are
  /// counted as cross-client.
  void set_cache(EvalCache* cache, int client = -1) {
    cache_ = cache;
    cache_client_ = client;
  }

  /// One-sigma random (mismatch) input offset of a matched pair; the offset
  /// spec is 10% of this value (paper Eq. 6 discussion).
  double random_offset_sigma(const pcell::PrimitiveLayout& layout) const;

  /// Monte Carlo mismatch analysis: samples per-device Vth perturbations
  /// from the Pelgrom distribution and measures the offset testbench per
  /// sample. Validates the analytic random_offset_sigma and exposes the
  /// systematic + random distribution the paper's designers size against.
  struct MonteCarloOffset {
    double mean = 0.0;   ///< systematic component [V]
    double sigma = 0.0;  ///< random component [V]
    int samples = 0;
  };
  MonteCarloOffset monte_carlo_offset(const pcell::PrimitiveLayout& layout,
                                      const EvalCondition& condition,
                                      int samples, std::uint64_t seed) const;

  /// The eval-cache key of one evaluation: EvalCache::make_key over the
  /// per-call fields plus this evaluator's context, serialized once at
  /// construction (the bias context and model cards never change).
  std::string cache_key(const pcell::PrimitiveLayout& layout,
                        const EvalCondition& condition) const;

  const BiasContext& bias() const { return bias_; }
  EvalStats& stats() const { return stats_; }

 private:
  /// The single place a testbench run is counted: bumps the local EvalStats
  /// AND the process-wide obs counter "eval.testbench" together, so
  /// FlowReport::testbenches and FlowTelemetry::simulations are derived from
  /// the same increments and can never disagree.
  void count_testbench() const;

  MetricValues evaluate_impl(const pcell::PrimitiveLayout& layout,
                             const EvalCondition& condition) const;
  MetricValues eval_diff_pair(const pcell::PrimitiveLayout& layout,
                              const EvalCondition& c, bool cross) const;
  MetricValues eval_current_mirror(const pcell::PrimitiveLayout& layout,
                                   const EvalCondition& c, bool active) const;
  MetricValues eval_current_source(const pcell::PrimitiveLayout& layout,
                                   const EvalCondition& c) const;
  MetricValues eval_common_source(const pcell::PrimitiveLayout& layout,
                                  const EvalCondition& c) const;
  MetricValues eval_starved_inverter(const pcell::PrimitiveLayout& layout,
                                     const EvalCondition& c) const;
  MetricValues eval_switch(const pcell::PrimitiveLayout& layout,
                           const EvalCondition& c) const;

  const tech::Technology& tech_;
  spice::MosModel nmos_;
  spice::MosModel pmos_;
  BiasContext bias_;
  std::string cache_context_;  ///< EvalCache::context_key(bias_, nmos_, pmos_)
  mutable EvalStats stats_;
  DiagnosticsSink* diag_ = nullptr;
  Budget* budget_ = nullptr;
  EvalCache* cache_ = nullptr;
  int cache_client_ = -1;
};

/// Metric evaluation for the passive MOM capacitor primitive.
MetricValues evaluate_mom_cap(const tech::Technology& t,
                              const pcell::MomCapLayout& cap,
                              const EvalCondition& condition);

}  // namespace olp::core
