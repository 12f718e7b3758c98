#include "util/obs.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "util/budget.hpp"

namespace olp::obs {

std::int64_t steady_now_us() {
  // Span timestamps share the flow's one monotonic source (util/budget).
  return std::chrono::duration_cast<std::chrono::microseconds>(
             BudgetClock::now().time_since_epoch())
      .count();
}

namespace {

/// Nearest-rank percentile of an ascending-sorted sample vector:
/// the smallest element with at least ceil(q * n) samples at or below it.
double percentile(const std::vector<double>& sorted, double q) {
  const std::size_t n = sorted.size();
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  return sorted[std::min(idx, n - 1)];
}

/// Lower edge of the histogram's geometric bucket ladder (bucket 0 holds
/// everything at or below it).
constexpr double kHistMin = 1e-3;

/// a + b clamped to long's range. Counters saturate instead of overflowing:
/// counter_add takes any caller-supplied long, and a batch sums every job's
/// additions into one counter.
long saturating_add(long a, long b) {
  long sum = 0;
  if (!__builtin_add_overflow(a, b, &sum)) return sum;
  return b > 0 ? std::numeric_limits<long>::max()
               : std::numeric_limits<long>::min();
}

}  // namespace

// ---------------------------------------------------------------------------
// LatencyHistogram

double LatencyHistogram::bucket_upper(int i) { return std::ldexp(kHistMin, i); }

int LatencyHistogram::bucket_index(double value) {
  // NaN, negatives, zero and anything at or below the ladder floor land in
  // bucket 0 (the comparison is written so NaN fails it).
  if (!(value > kHistMin)) return 0;
  const double ratio = value / kHistMin;
  const int e = std::ilogb(ratio);  // floor(log2(ratio)); ratio > 1 => e >= 0
  if (e >= kBuckets - 2) {
    return (e == kBuckets - 2 && std::ldexp(1.0, e) >= ratio) ? e
                                                              : kBuckets - 1;
  }
  // Bucket i covers (2^(i-1), 2^i] in ratio space; an exact power of two
  // sits on its bucket's upper edge.
  return std::ldexp(1.0, e) >= ratio ? e : e + 1;
}

void LatencyHistogram::record(double value) {
  ++buckets_[static_cast<std::size_t>(bucket_index(value))];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[static_cast<std::size_t>(i)] +=
        other.buckets_[static_cast<std::size_t>(i)];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

HistogramStats LatencyHistogram::stats() const {
  HistogramStats st;
  st.count = count_;
  if (count_ == 0) return st;
  st.sum = sum_;
  st.min = min_;
  st.max = max_;
  const auto quantile = [this](double q) {
    // Nearest rank over bucket counts, linearly interpolated inside the
    // selected bucket and clamped to the exact observed range.
    long rank = static_cast<long>(std::ceil(q * static_cast<double>(count_)));
    if (rank < 1) rank = 1;
    long below = 0;
    for (int b = 0; b < kBuckets; ++b) {
      const long in_bucket = buckets_[static_cast<std::size_t>(b)];
      if (in_bucket == 0) continue;
      if (below + in_bucket >= rank) {
        const double lo = b == 0 ? 0.0 : bucket_upper(b - 1);
        const double hi = b == kBuckets - 1 ? max_ : bucket_upper(b);
        const double frac = static_cast<double>(rank - below) /
                            static_cast<double>(in_bucket);
        return std::min(std::max(lo + frac * (hi - lo), min_), max_);
      }
      below += in_bucket;
    }
    return max_;
  };
  st.p50 = quantile(0.50);
  st.p95 = quantile(0.95);
  st.p99 = quantile(0.99);
  st.p999 = quantile(0.999);
  for (int b = 0; b < kBuckets; ++b) {
    const long in_bucket = buckets_[static_cast<std::size_t>(b)];
    if (in_bucket != 0) st.buckets.emplace_back(b, in_bucket);
  }
  return st;
}

// ---------------------------------------------------------------------------
// Registry

/// What one thread keeps to itself. Only its owner touches it; `stack`
/// indexes Registry::spans_ and is read and written under Registry::mu_.
struct Registry::ThreadState {
  int tid = 0;              ///< 1-based, in first-use order; 0 = unassigned
  std::uint64_t epoch = 0;  ///< the epoch `stack` belongs to
  std::vector<std::size_t> stack;  ///< open spans, outermost first
  ThreadContext ambient;  ///< carries its own epoch; ignored when stale
};

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Registry::ThreadState& Registry::thread_state() {
  static thread_local ThreadState state;
  if (state.tid == 0) {
    state.tid = global().next_tid_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  return state;
}

void Registry::enable() {
  std::lock_guard<std::mutex> lock(mu_);
  epoch_.fetch_add(1, std::memory_order_relaxed);
  t0_us_ = steady_now_us();
  spans_.clear();
  counters_.clear();
  samples_.clear();
  hists_.clear();
  enabled_.store(true, std::memory_order_relaxed);
}

void Registry::rebase() {
  if (!enabled()) return;
  enable();
}

SpanToken Registry::open_span(const char* name, std::string detail) {
  if (!enabled()) return {};
  ThreadState& ts = thread_state();
  SpanRecord rec;
  rec.tid = ts.tid;
  rec.name = name;
  rec.detail = std::move(detail);
  rec.open = true;
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  if (ts.epoch != epoch) {
    // The stack's spans belong to an earlier epoch: they are orphaned.
    ts.stack.clear();
    ts.epoch = epoch;
  }
  rec.id = spans_.size() + 1;
  if (!ts.stack.empty()) {
    const SpanRecord& parent = spans_[ts.stack.back()];
    rec.parent = parent.id;
    rec.depth = parent.depth + 1;
  } else if (ts.ambient.epoch == epoch) {
    // Worker-thread root: parent under the submitting thread's span.
    rec.parent = ts.ambient.parent_id;
    rec.depth = ts.ambient.depth;
  }
  rec.start_us = steady_now_us() - t0_us_;
  ts.stack.push_back(spans_.size());
  spans_.push_back(std::move(rec));
  return {static_cast<std::int64_t>(spans_.back().id), epoch};
}

void Registry::close_span(std::int64_t token, std::uint64_t epoch) {
  if (token < 0) return;
  ThreadState& ts = thread_state();
  std::lock_guard<std::mutex> lock(mu_);
  // The epoch guard orphans spans that straddle an enable()/rebase(): their
  // records are gone, so closing must be a no-op.
  if (epoch != epoch_.load(std::memory_order_relaxed) || ts.epoch != epoch) {
    return;
  }
  // Every open span of this thread is on its stack, usually on top; a span
  // that is not (opened on another thread, or already closed) is left alone.
  const std::size_t idx = static_cast<std::size_t>(token) - 1;
  const auto it = std::find(ts.stack.rbegin(), ts.stack.rend(), idx);
  if (it == ts.stack.rend()) return;
  SpanRecord& rec = spans_[idx];
  rec.dur_us = steady_now_us() - t0_us_ - rec.start_us;
  rec.open = false;
  ts.stack.erase(std::next(it).base());
}

void Registry::add(const char* name, long delta) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  long& total = counters_[name];
  total = saturating_add(total, delta);
}

void Registry::record(const char* name, double value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  samples_[name].push_back(value);
}

void Registry::record_hist(const char* name, double value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  hists_[name].record(value);
}

long Registry::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  long total = 0;
  for (const auto& [key, value] : counters_) {
    if (name == key) total = saturating_add(total, value);
  }
  return total;
}

std::string Registry::path_locked(const ThreadState& ts) const {
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  std::string path;
  if (ts.ambient.epoch == epoch) path = ts.ambient.path;
  if (ts.epoch != epoch) return path;
  for (const std::size_t idx : ts.stack) {
    if (!path.empty()) path += '/';
    path += spans_[idx].name;
  }
  return path;
}

std::string Registry::span_path() const {
  const ThreadState& ts = thread_state();
  std::lock_guard<std::mutex> lock(mu_);
  return path_locked(ts);
}

ThreadContext Registry::capture_thread_context() const {
  if (!enabled()) return {};
  const ThreadState& ts = thread_state();
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  if (ts.epoch != epoch || ts.stack.empty()) {
    // No local spans open (nested pools): forward the inherited context.
    return ts.ambient.epoch == epoch ? ts.ambient : ThreadContext{};
  }
  const SpanRecord& top = spans_[ts.stack.back()];
  ThreadContext ctx;
  ctx.epoch = epoch;
  ctx.parent_id = top.id;
  ctx.depth = top.depth + 1;
  ctx.path = path_locked(ts);
  return ctx;
}

void Registry::set_thread_context(const ThreadContext& context) {
  thread_state().ambient = context;
}

ThreadContext Registry::ambient_thread_context() const {
  return thread_state().ambient;
}

void Registry::set_thread_name(std::string name) {
  const int tid = thread_state().tid;
  std::lock_guard<std::mutex> lock(mu_);
  thread_names_[tid] = std::move(name);
}

ThreadContext ThreadContextScope::capture_ambient() {
  // The raw ambient slot (not the stack top): restoring it on destruction
  // must round-trip exactly, including "no context".
  return Registry::global().ambient_thread_context();
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  // Families are keyed by name pointer; equal names behind different
  // pointers fold together here.
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, LatencyHistogram> hists;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.spans = spans_;
    const std::int64_t now_us = steady_now_us() - t0_us_;
    for (SpanRecord& rec : snap.spans) {
      if (rec.open) rec.dur_us = now_us - rec.start_us;
    }
    for (const auto& [name, value] : counters_) {
      long& total = snap.counters[name];
      total = saturating_add(total, value);
    }
    for (const auto& [name, values] : samples_) {
      std::vector<double>& all = samples[name];
      all.insert(all.end(), values.begin(), values.end());
    }
    for (const auto& [name, hist] : hists_) hists[name].merge(hist);
    snap.thread_names = thread_names_;
  }
  for (auto& [name, sorted] : samples) {
    std::sort(sorted.begin(), sorted.end());
    DistributionStats d;
    d.count = static_cast<long>(sorted.size());
    d.min = sorted.front();
    d.max = sorted.back();
    double sum = 0.0;
    for (const double v : sorted) sum += v;
    d.mean = sum / static_cast<double>(sorted.size());
    d.p50 = percentile(sorted, 0.50);
    d.p95 = percentile(sorted, 0.95);
    snap.distributions[name] = d;
  }
  for (const auto& [name, hist] : hists) snap.histograms[name] = hist.stats();
  return snap;
}

}  // namespace olp::obs
