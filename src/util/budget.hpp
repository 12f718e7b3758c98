#pragma once
// Deadline- and budget-bounded flow execution.
//
// A Budget is a cooperative execution bound carried through the layout flow:
// a wall-clock deadline (monotonic, steady_clock), a testbench-count budget,
// and a deterministic check-count budget ("fuel", for tests). Every major
// loop in the flow — optimizer candidate enumeration and tuning sweeps,
// placer annealing iterations, per-net routing, port-optimizer sweeps,
// simulator Newton/timestep loops — probes the handle via Budget::check()
// and, once the budget is exhausted, unwinds keeping its best-so-far result
// instead of throwing work away.
//
// Exhaustion is sticky: once any dimension trips, every later check() returns
// true, so all downstream stages degrade to their cheapest salvage path and
// the flow terminates promptly. Until a limit trips, check() feeds nothing
// back into flow decisions, so a run whose limits are never reached is
// bit-identical to an unbudgeted one.

#include <atomic>
#include <chrono>
#include <string>

namespace olp {

class DiagnosticsSink;

// All flow timing (deadline math, FlowReport::runtime_s) goes through this
// single monotonic source; it must never go backwards under wall-clock
// adjustment.
using BudgetClock = std::chrono::steady_clock;
static_assert(BudgetClock::is_steady,
              "flow deadlines and runtimes require a monotonic clock");

/// Monotonic stopwatch: the one way flow code measures elapsed seconds.
class MonotonicStopwatch {
 public:
  MonotonicStopwatch() : start_(BudgetClock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(BudgetClock::now() - start_).count();
  }

 private:
  BudgetClock::time_point start_;
};

/// Which budget dimension tripped first.
enum class BudgetKind : int {
  kNone = 0,         ///< not exhausted
  kDeadline = 1,     ///< wall-clock deadline exceeded
  kTestbenches = 2,  ///< testbench-count budget consumed
  kChecks = 3,       ///< check-count ("fuel") budget consumed
};

/// Short kind name: "none", "deadline", "testbenches", "checks".
const char* budget_kind_name(BudgetKind kind);

/// Configured limits. Every dimension defaults to unlimited.
struct BudgetOptions {
  /// Wall-clock deadline in seconds; <= 0 means no deadline.
  double deadline_s = 0.0;
  /// Maximum testbench evaluations; < 0 means unlimited.
  long max_testbenches = -1;
  /// Maximum Budget::check() probes; < 0 means unlimited. Deterministic
  /// "fuel" dimension: same inputs consume the same number of checks, so
  /// tests can land exhaustion at an exact flow position.
  long max_checks = -1;

  bool limited() const {
    return deadline_s > 0.0 || max_testbenches >= 0 || max_checks >= 0;
  }
};

/// Applies OLP_DEADLINE_MS / OLP_TESTBENCH_BUDGET environment overrides on
/// top of `base`. Unset, non-numeric or out-of-range variables (a value that
/// is not finite or does not fit in long, or a deadline of 0 ms or less)
/// leave `base` untouched.
BudgetOptions budget_options_from_env(BudgetOptions base = {});

/// Point-in-time consumption snapshot, reported on FlowReport::budget.
struct BudgetStatus {
  bool limited = false;
  bool exhausted = false;
  BudgetKind tripped = BudgetKind::kNone;
  double elapsed_s = 0.0;
  double deadline_s = 0.0;        ///< 0 when no deadline configured
  long testbenches_consumed = 0;
  long testbench_limit = -1;      ///< -1 when unlimited
  long checks = 0;
  long check_limit = -1;          ///< -1 when unlimited

  std::string to_string() const;
};

/// The budget handle threaded through the flow. Fully thread-safe: check()
/// and consume_testbench() may race freely across TaskPool workers (all
/// consumption counters are atomic; the first trip wins and is sticky), and
/// every later check() on any worker sees the trip, so a pool whose tasks
/// probe the budget drains promptly.
class Budget {
 public:
  /// Unlimited budget: check() never trips.
  Budget() : Budget(BudgetOptions{}) {}
  explicit Budget(const BudgetOptions& options) : opt_(options) {}

  /// True when any dimension has a configured limit.
  bool limited() const { return opt_.limited(); }

  /// The cheap per-loop probe. Returns true when the budget is exhausted and
  /// the caller should unwind with its best-so-far result. Sticky: stays
  /// true forever after the first trip.
  bool check();

  /// True once any dimension tripped. Does not consume a check.
  bool exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }

  /// The dimension that tripped first (kNone while not exhausted).
  BudgetKind tripped() const {
    return tripped_.load(std::memory_order_relaxed);
  }

  /// Records testbench evaluations against the testbench budget. The limit
  /// itself is enforced at the next check(), so an in-flight testbench
  /// always completes (exhaustion overshoots by at most one evaluation).
  void consume_testbench(long n = 1) {
    testbenches_.fetch_add(n, std::memory_order_relaxed);
  }

  long checks() const { return checks_.load(std::memory_order_relaxed); }

  BudgetStatus status() const;

  /// Human-readable description of the tripped budget, for diagnostics:
  /// e.g. "deadline budget exhausted (0.050 s limit, 0.052 s elapsed)".
  std::string description() const;

 private:
  void trip(BudgetKind kind);

  BudgetOptions opt_;
  MonotonicStopwatch stopwatch_;
  std::atomic<long> testbenches_{0};
  std::atomic<long> checks_{0};
  std::atomic<bool> exhausted_{false};
  std::atomic<BudgetKind> tripped_{BudgetKind::kNone};
};

/// Records a loop the exhausted `budget` cut short: bumps
/// "budget.truncations" and reports "<description>; <what>" to `diag`.
void report_truncation(const Budget& budget, DiagnosticsSink* diag,
                       const std::string& stage, const std::string& subject,
                       const std::string& what);

}  // namespace olp
