#pragma once
// Flow-wide observability: RAII scoped spans, monotonic counters, value
// distributions and fixed-bucket histograms in a process-wide registry.
//
// The registry is disabled by default. Every instrumentation site pays one
// relaxed-atomic load when disabled — no allocation, no clock read, no
// output — and instrumentation only *observes* (it never feeds back into
// flow decisions), so flow results are bit-identical with the registry on
// or off.
//
// Span taxonomy (dotted names, slash-joined into nesting paths):
//   flow.optimize / flow.conventional / flow.manual_oracle   (roots)
//     selection, combo_choice, placement, routing,
//     port_optimization, realization                         (stages)
//   optimizer.evaluate_all, optimizer.tune                   (Algorithm 1)
//   portopt.constraints, portopt.reconcile                   (Algorithm 2)
//   router.net                                               (per net)
//   eval.testbench                                           (per evaluation)
//   sim.op, sim.ac, sim.tran                                 (per analysis)
//
// One lock: counters, samples, histograms, span records and thread names
// live in the registry's maps behind one mutex. Span records are appended
// in open order, so a span's id is its position in the epoch and every
// snapshot is a consistent cut. Each thread keeps only what is its own: a
// tid, its open-span stack and the ambient ThreadContext below. Records of
// a thread that exits stay in the registry; a span it left open stays open.
//
// TaskPool propagates a ThreadContext from the submitting thread to its
// workers, making worker spans nest under the submitting span. Threads can
// be named (set_thread_name) and every span carries its thread's tid, so
// Chrome-trace exports show per-thread lanes with readable names.
//
// Contention instrumentation: timed_lock()/timed_relock() wrap a mutex
// acquisition with a try-lock fast path; only a *contended* acquisition
// reads the clock and records into the "obs.contention.<site>" counter
// (contended acquisitions) and histogram (wait microseconds) families.
//
// The disabled fast path is still one relaxed atomic load. Collected data
// stays readable after disable(), until the next enable()/rebase().

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace olp::obs {

/// One closed (or still-open) scoped span.
struct SpanRecord {
  std::uint64_t id = 0;      ///< 1-based, in open order
  std::uint64_t parent = 0;  ///< id of the enclosing span; 0 = root
  int depth = 0;             ///< nesting depth (0 = root)
  int tid = 1;               ///< registry thread id (see set_thread_name)
  std::string name;          ///< taxonomy name, e.g. "sim.op"
  std::string detail;        ///< free-form context, e.g. the net name
  std::int64_t start_us = 0; ///< wall-clock start, relative to enable()
  std::int64_t dur_us = 0;   ///< wall-clock duration
  bool open = false;         ///< still open when the snapshot was taken
};

/// Order statistics of one value distribution (nearest-rank percentiles,
/// exact — computed from the full sample set).
struct DistributionStats {
  long count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
};

/// Summary of one fixed-bucket histogram (see LatencyHistogram): exact
/// count/sum/min/max, bucket-interpolated quantiles, and the nonzero
/// buckets as (index, count) pairs.
struct HistogramStats {
  long count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  std::vector<std::pair<int, long>> buckets;  ///< nonzero (index, count)
};

/// Bounded-memory value histogram with a fixed logarithmic bucket layout:
/// bucket 0 holds values <= 1e-3 (including zero and negatives), buckets
/// 1..62 are base-2 geometric — bucket i covers (1e-3 * 2^(i-1),
/// 1e-3 * 2^i] — and bucket 63 is the overflow. The layout spans ~1e-3 to
/// ~4.6e15 in whatever unit the caller records (contention sites record
/// microseconds, the pool its queue depth), so quantile
/// estimates carry at most one-bucket (2x) relative error, refined by
/// linear interpolation within the bucket and clamped to the exact
/// observed [min, max]. Merging is bucket-wise addition, so merges commute
/// and the merged histogram is independent of merge order.
///
/// Not internally synchronized: callers hold their own lock.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  void record(double value);
  void merge(const LatencyHistogram& other);
  long count() const { return count_; }
  double sum() const { return sum_; }

  /// Upper bound of bucket `i` for i in [0, 62]; bucket 63 is unbounded.
  static double bucket_upper(int i);
  /// The bucket record() files `value` under.
  static int bucket_index(double value);

  HistogramStats stats() const;

 private:
  std::array<long, kBuckets> buckets_{};
  long count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// A point-in-time copy of everything the registry collected.
struct Snapshot {
  std::vector<SpanRecord> spans;  ///< ordered by span id (= open order)
  std::map<std::string, long> counters;
  std::map<std::string, DistributionStats> distributions;
  std::map<std::string, HistogramStats> histograms;
  std::map<int, std::string> thread_names;  ///< tid -> name (see set_thread_name)

  long counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

/// Ambient span parentage carried from a submitting thread to pool workers:
/// new top-of-stack spans opened on the receiving thread are parented under
/// `parent_id` (at `depth`), and span_path() prefixes `path`. The epoch tag
/// invalidates a context captured before an enable()/rebase().
struct ThreadContext {
  std::uint64_t epoch = 0;     ///< 0 = no context captured
  std::uint64_t parent_id = 0; ///< span id new roots are parented under
  int depth = 0;               ///< depth assigned to those new roots
  std::string path;            ///< span_path() prefix, e.g. "flow.optimize/selection"
};

/// What Registry::open_span hands back for the matching close_span: the
/// span id and the epoch the span was opened in, both read under the
/// registry lock.
struct SpanToken {
  std::int64_t id = -1;  ///< -1 = disabled at open
  std::uint64_t epoch = 0;
};

/// The process-wide registry. Use the free functions / Span below at
/// instrumentation sites; the registry itself is for enable/export code.
class Registry {
 public:
  static Registry& global();

  /// Clears all collected state, restarts the clock and starts collecting.
  void enable();
  /// Stops collecting; collected data stays snapshotable until the next
  /// enable()/rebase().
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// enable() semantics while already enabled: clears collected state and
  /// restarts the clock so the next snapshot covers exactly one unit of
  /// work. The flow entry points call this so every FlowReport carries a
  /// self-contained trace; spans still open across a rebase are orphaned
  /// (their close becomes a no-op — the epoch guard below). No-op when
  /// disabled.
  void rebase();

  // -- Instrumentation backend (call through the free functions below). --
  /// Opens a span on the calling thread's stack; returns its id and the
  /// epoch it opened in (id -1 when disabled). Pass both to close_span: an
  /// epoch read before this call may already be stale.
  SpanToken open_span(const char* name, std::string detail);
  /// Closes the span if `epoch` still matches the open epoch. Must run on
  /// the opening thread (RAII spans always do); a mismatched thread or a
  /// stale epoch makes it a safe no-op.
  void close_span(std::int64_t token, std::uint64_t epoch);
  void add(const char* name, long delta);
  void record(const char* name, double value);
  /// Records into the named fixed-bucket histogram (bounded memory; use
  /// for per-event latencies that would make record() vectors unbounded).
  void record_hist(const char* name, double value);

  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }
  /// Current counter value (0 when absent).
  long counter(const std::string& name) const;
  /// Slash-joined names of this thread's open span stack (prefixed by any
  /// applied ThreadContext path), e.g. "flow.optimize/routing/router.net";
  /// empty when none.
  std::string span_path() const;

  /// Names the calling thread in exported traces (Chrome trace "M"
  /// metadata records) — e.g. "pool/worker-3". Thread names are structural
  /// and survive enable()/rebase().
  void set_thread_name(std::string name);

  /// Captures this thread's span position for propagation to pool workers.
  ThreadContext capture_thread_context() const;
  /// Installs the calling thread's ambient context (used by
  /// ThreadContextScope below; stale-epoch contexts are ignored at use).
  void set_thread_context(const ThreadContext& context);
  /// The calling thread's raw ambient slot, as set (empty when none).
  ThreadContext ambient_thread_context() const;

  /// A copy of everything collected in the current epoch. Open spans are
  /// included with their duration-so-far and open=true. Safe to call at
  /// any time from any thread.
  Snapshot snapshot() const;

 private:
  struct ThreadState;

  Registry() = default;

  /// The calling thread's state; its tid is assigned on first use.
  static ThreadState& thread_state();
  /// Slash-joined path of `ts`'s ambient prefix and open spans. Caller
  /// holds mu_.
  std::string path_locked(const ThreadState& ts) const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> epoch_{0};  ///< bumped by enable()/rebase()
  std::atomic<int> next_tid_{0};

  mutable std::mutex mu_;  ///< guards everything below
  std::int64_t t0_us_ = 0;  ///< steady-clock origin of the epoch
  std::vector<SpanRecord> spans_;  ///< the epoch's spans; id = index + 1
  std::unordered_map<const char*, long> counters_;
  std::unordered_map<const char*, std::vector<double>> samples_;
  std::unordered_map<const char*, LatencyHistogram> hists_;
  std::map<int, std::string> thread_names_;
};

/// Fast-path enabled check (one relaxed atomic load).
inline bool enabled() { return Registry::global().enabled(); }

/// Bumps a named monotonic counter, which saturates at long's range.
/// `name` must be a literal or otherwise outlive the call; nothing is
/// allocated when disabled.
inline void counter_add(const char* name, long delta = 1) {
  if (enabled()) Registry::global().add(name, delta);
}

/// Records one sample of a named value distribution (exact percentiles,
/// memory grows with the sample count — prefer histogram() for
/// high-volume per-event samples such as lock waits).
inline void record(const char* name, double value) {
  if (enabled()) Registry::global().record(name, value);
}

/// Records into a named fixed-bucket histogram (bounded memory).
inline void histogram(const char* name, double value) {
  if (enabled()) Registry::global().record_hist(name, value);
}

/// Names the calling thread in exported traces (no-op only in the sense
/// that nothing is exported until the registry is enabled; the name itself
/// is always registered).
inline void set_thread_name(std::string name) {
  Registry::global().set_thread_name(std::move(name));
}

/// One instrumented mutex site: the counter bumped per *contended*
/// acquisition and the histogram of contended wait times in microseconds.
/// Both names must be string literals (they key the registry's maps by
/// pointer).
struct LockSite {
  const char* contended;  ///< counter, e.g. "obs.contention.pool.contended"
  const char* wait_us;    ///< histogram, e.g. "obs.contention.pool.wait_us"
};

/// Locks `mu`, attributing contended waits to `site`. The fast path is one
/// try_lock; only a failed try-lock (actual contention) reads the clock,
/// and only while the registry is enabled does it record anything.
inline std::unique_lock<std::mutex> timed_lock(std::mutex& mu,
                                               const LockSite& site) {
  std::unique_lock<std::mutex> lock(mu, std::try_to_lock);
  if (lock.owns_lock()) return lock;
  if (!enabled()) {
    lock.lock();
    return lock;
  }
  const auto t0 = std::chrono::steady_clock::now();
  lock.lock();
  const double wait_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t0)
          .count();
  Registry::global().add(site.contended, 1);
  Registry::global().record_hist(site.wait_us, wait_us);
  return lock;
}

/// Re-acquires an unlocked unique_lock with the same contention
/// attribution as timed_lock (for worker loops that drop and retake one
/// lock).
inline void timed_relock(std::unique_lock<std::mutex>& lock,
                         const LockSite& site) {
  if (lock.try_lock()) return;
  if (!enabled()) {
    lock.lock();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  lock.lock();
  const double wait_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t0)
          .count();
  Registry::global().add(site.contended, 1);
  Registry::global().record_hist(site.wait_us, wait_us);
}

/// RAII scoped span. Construction opens, destruction (or close()) closes.
/// The optional detail argument may be a string (copied only when enabled
/// for string literals; a std::string lvalue/temporary is still built by the
/// caller) or a nullary callable returning one — use the callable form when
/// building the detail would allocate, so disabled mode stays allocation-free.
/// A Span must be destroyed on the thread that constructed it (RAII usage
/// guarantees this); it sits on that thread's open-span stack.
class Span {
 public:
  explicit Span(const char* name) {
    if (enabled()) open(name, std::string());
  }
  template <typename D>
  Span(const char* name, D&& detail) {
    if (!enabled()) return;
    if constexpr (std::is_invocable_v<D>) {
      open(name, std::string(std::forward<D>(detail)()));
    } else {
      open(name, std::string(std::forward<D>(detail)));
    }
  }
  ~Span() { close(); }

  /// Closes the span early (idempotent); used where the enclosing function
  /// must snapshot the registry after the span ends.
  void close() {
    if (token_ < 0) return;
    Registry::global().close_span(token_, epoch_);
    token_ = -1;
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(const char* name, std::string detail) {
    const SpanToken token =
        Registry::global().open_span(name, std::move(detail));
    token_ = token.id;
    epoch_ = token.epoch;
  }

  std::int64_t token_ = -1;  ///< -1 = disabled at construction or closed
  std::uint64_t epoch_ = 0;
};

/// Captures the calling thread's span position (free-function shorthand).
inline ThreadContext capture_thread_context() {
  return Registry::global().capture_thread_context();
}

/// RAII scope applying an ambient ThreadContext on a worker thread: spans
/// opened while the scope is active nest under the captured parent, and
/// span_path() is prefixed accordingly. The previous ambient context is
/// restored on destruction (nested pools compose).
class ThreadContextScope {
 public:
  explicit ThreadContextScope(const ThreadContext& context)
      : previous_(capture_ambient()) {
    Registry::global().set_thread_context(context);
  }
  ~ThreadContextScope() { Registry::global().set_thread_context(previous_); }

  ThreadContextScope(const ThreadContextScope&) = delete;
  ThreadContextScope& operator=(const ThreadContextScope&) = delete;

 private:
  static ThreadContext capture_ambient();

  ThreadContext previous_;
};

/// RAII scope: enables the global registry on construction (clearing prior
/// state), disables it on destruction. Collected data remains snapshotable
/// after the scope ends, until the next enable().
class ScopedObservability {
 public:
  ScopedObservability() { Registry::global().enable(); }
  ~ScopedObservability() { Registry::global().disable(); }

  ScopedObservability(const ScopedObservability&) = delete;
  ScopedObservability& operator=(const ScopedObservability&) = delete;
};

}  // namespace olp::obs
