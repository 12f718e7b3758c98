#pragma once
// Deterministic chaos fault injection.
//
// A process-global FaultInjector lets tests force recoverable failures at
// well-known sites (op/tran non-convergence, route failure, NaN metric) and
// scramble TaskPool completion order, without patching subsystem code. Draws
// are derived from a counter hash, so a given (seed, rates) configuration
// fires the exact same faults on every run — chaos tests are reproducible
// and can assert exact accounting. Budget exhaustion is not a site: a test
// lands a trip at an exact point with the per-budget fuel limit
// (BudgetOptions::max_checks, util/budget.hpp).
//
// The injector is disabled by default and costs one branch per site when
// disabled; production flows with injection off are bit-identical to a build
// without this header.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>

namespace olp {

enum class FaultSite : int {
  kOpNonConvergence = 0,   ///< Simulator::op reports converged=false
  kTranNonConvergence = 1, ///< Simulator::tran attempt reports ok=false
  kRouteFailure = 2,       ///< GlobalRouter::route reports routed=false
  kNanMetric = 3,          ///< PrimitiveEvaluator emits a NaN metric
  kPoolTaskDelay = 4,      ///< TaskPool sleeps before a task (reorder chaos)
};

inline constexpr int kNumFaultSites = 5;

/// Short site name: "op", "tran", "route", "nan_metric", "pool_delay".
const char* fault_site_name(FaultSite site);

/// Per-site fault probabilities plus determinism controls.
struct FaultConfig {
  std::uint64_t seed = 1;
  double op_rate = 0.0;
  double tran_rate = 0.0;
  double route_rate = 0.0;
  double nan_metric_rate = 0.0;
  /// Probability that a TaskPool task sleeps a few hundred microseconds
  /// before running — scrambles completion order so tests can prove the
  /// ordered reduction is completion-order independent. Never corrupts
  /// results; only perturbs timing.
  double pool_delay_rate = 0.0;
  /// Stop firing after this many total faults (-1 = unlimited).
  long max_total_fires = -1;
  /// The first N draws at each site never fire — lets a test skip reference
  /// evaluations and target a specific later call.
  long skip_draws = 0;

  double rate(FaultSite site) const;
};

/// Process-global deterministic fault injector. Draw bookkeeping is guarded
/// by an internal mutex so TaskPool workers may draw concurrently; under
/// concurrency the per-site draw *order* follows task interleaving (chaos
/// tests that assert exact accounting run the flow single-threaded). The
/// disabled fast path stays a single relaxed atomic load.
class FaultInjector {
 public:
  static FaultInjector& global();

  void enable(const FaultConfig& config);
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// One deterministic draw at the given site. Returns true when the fault
  /// should fire; bumps per-site draw/fire counters.
  bool should_fail(FaultSite site);

  long fired(FaultSite site) const;
  long draws(FaultSite site) const;
  long total_fired() const;

 private:
  FaultInjector() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  ///< guards everything below
  FaultConfig config_;
  std::array<long, kNumFaultSites> site_draws_{};
  std::array<long, kNumFaultSites> site_fires_{};
};

/// RAII scope: enables the global injector on construction (resetting its
/// counters), disables it on destruction. Fired counts remain readable after
/// the scope ends, until the next enable().
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const FaultConfig& config) {
    FaultInjector::global().enable(config);
  }
  ~ScopedFaultInjection() { FaultInjector::global().disable(); }

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace olp
