#include "util/faults.hpp"

#include "util/error.hpp"

namespace olp {
namespace {

// splitmix64 finalizer — full-avalanche mix of a 64-bit counter.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Uniform [0, 1) from (seed, site, draw index).
double uniform_draw(std::uint64_t seed, FaultSite site, long draw_index) {
  std::uint64_t h = mix64(seed);
  h = mix64(h ^ (static_cast<std::uint64_t>(site) + 1));
  h = mix64(h ^ static_cast<std::uint64_t>(draw_index));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const char* fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kOpNonConvergence:
      return "op";
    case FaultSite::kTranNonConvergence:
      return "tran";
    case FaultSite::kRouteFailure:
      return "route";
    case FaultSite::kNanMetric:
      return "nan_metric";
    case FaultSite::kPoolTaskDelay:
      return "pool_delay";
  }
  return "unknown";
}

double FaultConfig::rate(FaultSite site) const {
  switch (site) {
    case FaultSite::kOpNonConvergence:
      return op_rate;
    case FaultSite::kTranNonConvergence:
      return tran_rate;
    case FaultSite::kRouteFailure:
      return route_rate;
    case FaultSite::kNanMetric:
      return nan_metric_rate;
    case FaultSite::kPoolTaskDelay:
      return pool_delay_rate;
  }
  return 0.0;
}

FaultInjector& FaultInjector::global() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::enable(const FaultConfig& config) {
  for (int i = 0; i < kNumFaultSites; ++i) {
    const double r = config.rate(static_cast<FaultSite>(i));
    OLP_CHECK(r >= 0.0 && r <= 1.0, "fault rates must be in [0, 1]");
  }
  std::lock_guard<std::mutex> lock(mu_);
  config_ = config;
  site_draws_.fill(0);
  site_fires_.fill(0);
  enabled_.store(true, std::memory_order_relaxed);
}

bool FaultInjector::should_fail(FaultSite site) {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const int idx = static_cast<int>(site);
  const long draw_index = site_draws_[idx]++;
  if (draw_index < config_.skip_draws) return false;
  if (config_.max_total_fires >= 0) {
    long total = 0;
    for (long f : site_fires_) total += f;
    if (total >= config_.max_total_fires) return false;
  }
  const double rate = config_.rate(site);
  if (rate <= 0.0) return false;
  const bool fire =
      rate >= 1.0 || uniform_draw(config_.seed, site, draw_index) < rate;
  if (fire) ++site_fires_[idx];
  return fire;
}

long FaultInjector::fired(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return site_fires_[static_cast<int>(site)];
}

long FaultInjector::draws(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return site_draws_[static_cast<int>(site)];
}

long FaultInjector::total_fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  long total = 0;
  for (long f : site_fires_) total += f;
  return total;
}

}  // namespace olp
