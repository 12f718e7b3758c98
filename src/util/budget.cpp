#include "util/budget.hpp"

#include <limits>
#include <sstream>

#include "util/diag.hpp"
#include "util/env.hpp"
#include "util/obs.hpp"

namespace olp {

const char* budget_kind_name(BudgetKind kind) {
  switch (kind) {
    case BudgetKind::kNone:
      return "none";
    case BudgetKind::kDeadline:
      return "deadline";
    case BudgetKind::kTestbenches:
      return "testbenches";
    case BudgetKind::kChecks:
      return "checks";
  }
  return "unknown";
}

namespace {

/// True for a value in [0, LONG_MAX]. A value that does not fit in long
/// (inf, 1e30) is malformed like NaN: converting it would be undefined
/// behavior. long's max rounds up to 2^63 as a double, so `<` admits
/// exactly the representable values.
bool fits_in_long(double value) {
  return value >= 0.0 &&
         value < static_cast<double>(std::numeric_limits<long>::max());
}

}  // namespace

BudgetOptions budget_options_from_env(BudgetOptions base) {
  // Both values come from outside the program, where inf or 1e300 is a typo
  // rather than a limit, so the deadline obeys the count's range rule. It
  // must also be positive: 0 ms would read as "no deadline" and lift the
  // configured one.
  const double deadline_ms = env::number("OLP_DEADLINE_MS", -1.0);
  if (deadline_ms > 0.0 && fits_in_long(deadline_ms)) {
    base.deadline_s = deadline_ms / 1000.0;
  }
  const double benches = env::number("OLP_TESTBENCH_BUDGET", -1.0);
  if (fits_in_long(benches)) {
    base.max_testbenches = static_cast<long>(benches);
  }
  return base;
}

std::string BudgetStatus::to_string() const {
  std::ostringstream os;
  os << "budget{";
  if (!limited) {
    os << "unlimited";
  } else {
    bool first = true;
    auto sep = [&first, &os]() {
      if (!first) os << ", ";
      first = false;
    };
    if (deadline_s > 0.0) {
      sep();
      os << "deadline " << deadline_s << " s";
    }
    if (testbench_limit >= 0) {
      sep();
      os << "testbenches " << testbench_limit;
    }
    if (check_limit >= 0) {
      sep();
      os << "checks " << check_limit;
    }
  }
  os << "; elapsed " << elapsed_s << " s, testbenches "
     << testbenches_consumed << ", checks " << checks;
  if (exhausted) os << "; exhausted by " << budget_kind_name(tripped);
  os << "}";
  return os.str();
}

bool Budget::check() {
  const long checks = checks_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (exhausted_.load(std::memory_order_relaxed)) return true;
  if (opt_.max_checks >= 0 && checks > opt_.max_checks) {
    trip(BudgetKind::kChecks);
  } else if (opt_.max_testbenches >= 0 &&
             testbenches_.load(std::memory_order_relaxed) >=
                 opt_.max_testbenches) {
    trip(BudgetKind::kTestbenches);
  } else if (opt_.deadline_s > 0.0 && stopwatch_.seconds() >= opt_.deadline_s) {
    trip(BudgetKind::kDeadline);
  }
  return exhausted_.load(std::memory_order_relaxed);
}

void Budget::trip(BudgetKind kind) {
  // First trip wins: record the kind before publishing exhaustion, so a
  // racing reader that observes exhausted == true also sees a non-kNone
  // kind (the exchange makes later trips no-ops).
  BudgetKind expected = BudgetKind::kNone;
  if (tripped_.compare_exchange_strong(expected, kind,
                                       std::memory_order_relaxed)) {
    exhausted_.store(true, std::memory_order_release);
  }
}

BudgetStatus Budget::status() const {
  BudgetStatus s;
  s.limited = limited();
  s.exhausted = exhausted();
  s.tripped = tripped_;
  s.elapsed_s = stopwatch_.seconds();
  s.deadline_s = opt_.deadline_s > 0.0 ? opt_.deadline_s : 0.0;
  s.testbenches_consumed = testbenches_;
  s.testbench_limit = opt_.max_testbenches >= 0 ? opt_.max_testbenches : -1;
  s.checks = checks_;
  s.check_limit = opt_.max_checks >= 0 ? opt_.max_checks : -1;
  return s;
}

std::string Budget::description() const {
  std::ostringstream os;
  switch (tripped_) {
    case BudgetKind::kNone:
      os << "budget not exhausted";
      break;
    case BudgetKind::kDeadline:
      os << "deadline budget exhausted (" << opt_.deadline_s << " s limit, "
         << stopwatch_.seconds() << " s elapsed)";
      break;
    case BudgetKind::kTestbenches:
      os << "testbench budget exhausted (" << opt_.max_testbenches
         << " limit, " << testbenches_ << " consumed)";
      break;
    case BudgetKind::kChecks:
      os << "check budget exhausted (" << opt_.max_checks << " limit, "
         << checks_ << " consumed)";
      break;
  }
  return os.str();
}

void report_truncation(const Budget& budget, DiagnosticsSink* diag,
                       const std::string& stage, const std::string& subject,
                       const std::string& what) {
  obs::counter_add("budget.truncations");
  if (diag != nullptr) {
    diag->report(DiagSeverity::kWarning, stage, subject,
                 budget.description() + "; " + what);
  }
}

}  // namespace olp
