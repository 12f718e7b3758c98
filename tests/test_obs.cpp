// Tests for the observability subsystem (util/obs + util/trace_export):
// span nesting/ordering, counter and distribution accounting, disabled-mode
// zero-allocation, Chrome-trace JSON well-formedness, and exact agreement
// between FlowReport::testbenches and FlowTelemetry on the 5T-OTA flow.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "circuits/flow.hpp"
#include "circuits/ota5t.hpp"
#include "util/jsonl.hpp"
#include "util/logging.hpp"
#include "util/obs.hpp"
#include "util/task_pool.hpp"
#include "util/trace_export.hpp"

// Global allocation counter for the zero-allocation test. Replacing the
// global operator new/delete pair counts every heap allocation in the
// process; the test only looks at the delta across a few instrumentation
// calls while the registry is disabled. The deletes stay out of line: GCC
// 12 takes an inlined std::free of a new-expression's pointer for a
// mismatched pair (-Wmismatched-new-delete), though this file replaces both.
static std::atomic<long> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace olp::obs {
namespace {

TEST(Obs, DisabledByDefault) {
  // Fresh process state: nothing has enabled the registry yet in this test
  // binary unless a prior test did — normalize first.
  Registry::global().disable();
  EXPECT_FALSE(enabled());
  EXPECT_TRUE(Registry::global().span_path().empty());
}

TEST(Obs, SpanNestingAndOrdering) {
  ScopedObservability scope;
  {
    Span outer("flow.optimize");
    EXPECT_EQ(Registry::global().span_path(), "flow.optimize");
    {
      Span stage("selection", "first pass");
      EXPECT_EQ(Registry::global().span_path(), "flow.optimize/selection");
      Span leaf("sim.op", [] { return std::string("newton"); });
      EXPECT_EQ(Registry::global().span_path(),
                "flow.optimize/selection/sim.op");
    }
    Span stage2("routing");
  }
  const Snapshot snap = Registry::global().snapshot();
  ASSERT_EQ(snap.spans.size(), 4u);

  // Records are in open order with 1-based ids.
  EXPECT_EQ(snap.spans[0].name, "flow.optimize");
  EXPECT_EQ(snap.spans[1].name, "selection");
  EXPECT_EQ(snap.spans[2].name, "sim.op");
  EXPECT_EQ(snap.spans[3].name, "routing");
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    EXPECT_EQ(snap.spans[i].id, i + 1);
    EXPECT_FALSE(snap.spans[i].open);
    EXPECT_GE(snap.spans[i].start_us, 0);
    EXPECT_GE(snap.spans[i].dur_us, 0);
  }

  // Parent/depth reflect nesting.
  EXPECT_EQ(snap.spans[0].parent, 0u);
  EXPECT_EQ(snap.spans[0].depth, 0);
  EXPECT_EQ(snap.spans[1].parent, snap.spans[0].id);
  EXPECT_EQ(snap.spans[1].depth, 1);
  EXPECT_EQ(snap.spans[2].parent, snap.spans[1].id);
  EXPECT_EQ(snap.spans[2].depth, 2);
  EXPECT_EQ(snap.spans[3].parent, snap.spans[0].id);
  EXPECT_EQ(snap.spans[3].depth, 1);

  // Detail forms: literal and deferred callable.
  EXPECT_EQ(snap.spans[1].detail, "first pass");
  EXPECT_EQ(snap.spans[2].detail, "newton");

  // A child starts no earlier than its parent and ends no later.
  EXPECT_GE(snap.spans[1].start_us, snap.spans[0].start_us);
  EXPECT_LE(snap.spans[1].start_us + snap.spans[1].dur_us,
            snap.spans[0].start_us + snap.spans[0].dur_us);
}

TEST(Obs, EarlyCloseIsIdempotentAndPopsStack) {
  ScopedObservability scope;
  Span outer("flow.optimize");
  {
    Span stage("placement");
    stage.close();
    EXPECT_EQ(Registry::global().span_path(), "flow.optimize");
    stage.close();  // idempotent
  }
  const Snapshot snap = Registry::global().snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);
  EXPECT_FALSE(snap.spans[1].open);
  EXPECT_TRUE(snap.spans[0].open);  // outer still open at snapshot time
}

TEST(Obs, CounterAccountingIsExact) {
  ScopedObservability scope;
  counter_add("eval.testbench");
  counter_add("eval.testbench", 4);
  counter_add("router.nets", 2);
  EXPECT_EQ(Registry::global().counter("eval.testbench"), 5);
  const Snapshot snap = Registry::global().snapshot();
  EXPECT_EQ(snap.counter("eval.testbench"), 5);
  EXPECT_EQ(snap.counter("router.nets"), 2);
  EXPECT_EQ(snap.counter("absent"), 0);
}

TEST(Obs, CountersSaturateInsteadOfOverflowing) {
  constexpr long kMax = std::numeric_limits<long>::max();
  ScopedObservability scope;
  counter_add("big", kMax);
  counter_add("big", kMax);
  counter_add("small", -kMax);
  counter_add("small", -kMax);
  EXPECT_EQ(Registry::global().counter("big"), kMax);
  const Snapshot snap = Registry::global().snapshot();
  EXPECT_EQ(snap.counter("big"), kMax);
  EXPECT_EQ(snap.counter("small"), std::numeric_limits<long>::min());
}

TEST(Obs, DistributionStatsNearestRank) {
  ScopedObservability scope;
  // 1..10 in shuffled order: nearest-rank p50 = 5, p95 = 10.
  for (double v : {7.0, 1.0, 10.0, 3.0, 5.0, 9.0, 2.0, 8.0, 4.0, 6.0}) {
    record("portopt.decision_wires", v);
  }
  const Snapshot snap = Registry::global().snapshot();
  ASSERT_EQ(snap.distributions.count("portopt.decision_wires"), 1u);
  const DistributionStats& d = snap.distributions.at("portopt.decision_wires");
  EXPECT_EQ(d.count, 10);
  EXPECT_DOUBLE_EQ(d.min, 1.0);
  EXPECT_DOUBLE_EQ(d.max, 10.0);
  EXPECT_DOUBLE_EQ(d.mean, 5.5);
  EXPECT_DOUBLE_EQ(d.p50, 5.0);
  EXPECT_DOUBLE_EQ(d.p95, 10.0);

  // Single sample: every statistic is that sample.
  record("single", 3.25);
  const DistributionStats s =
      Registry::global().snapshot().distributions.at("single");
  EXPECT_EQ(s.count, 1);
  EXPECT_DOUBLE_EQ(s.p50, 3.25);
  EXPECT_DOUBLE_EQ(s.p95, 3.25);
}

TEST(Obs, DisabledModeCollectsNothingAndAllocatesNothing) {
  Registry::global().enable();   // clear prior state
  Registry::global().disable();  // and stop collecting

  const long before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    Span span("sim.op", [] {
      return std::string(
          "a detail string long enough to defeat the small-string "
          "optimization were it ever materialized");
    });
    counter_add("eval.testbench");
    record("sim.op.newton_iterations", 7.0);
  }
  const long after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "disabled-mode instrumentation allocated";

  const Snapshot snap = Registry::global().snapshot();
  EXPECT_TRUE(snap.spans.empty());
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.distributions.empty());
}

TEST(Obs, RebaseOrphansOpenSpansSafely) {
  ScopedObservability scope;
  auto straddler = std::make_unique<Span>("flow.optimize");
  counter_add("eval.testbench", 3);

  Registry::global().rebase();
  straddler.reset();  // close from the previous epoch: must be a no-op

  Span fresh("flow.conventional");
  fresh.close();
  const Snapshot snap = Registry::global().snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].name, "flow.conventional");
  EXPECT_FALSE(snap.spans[0].open);
  EXPECT_EQ(snap.counter("eval.testbench"), 0);  // cleared by rebase
}

// A rebase that lands between reading the epoch and opening the span opens
// the span in the new epoch. Closing it with the epoch open_span returned
// must close it, so the thread's next span is a root, not its child.
TEST(Obs, SpanOpenedAcrossARebaseCloses) {
  ScopedObservability scope;
  Registry& registry = Registry::global();
  const std::uint64_t read_before = registry.epoch();
  registry.rebase();
  const SpanToken token = registry.open_span("flow.optimize", std::string());
  EXPECT_NE(token.epoch, read_before);
  EXPECT_EQ(token.epoch, registry.epoch());
  registry.close_span(token.id, token.epoch);

  Span next("flow.conventional");
  next.close();
  const Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);
  EXPECT_FALSE(snap.spans[0].open);
  EXPECT_EQ(snap.spans[1].name, "flow.conventional");
  EXPECT_EQ(snap.spans[1].parent, 0u);
  EXPECT_EQ(snap.spans[1].depth, 0);
  EXPECT_TRUE(registry.span_path().empty());
}

TEST(Obs, RebaseWhileDisabledIsNoOp) {
  ScopedObservability scope;
  counter_add("kept", 1);
  Registry::global().disable();
  Registry::global().rebase();  // must not clear: registry is off
  EXPECT_EQ(Registry::global().counter("kept"), 1);
  Registry::global().enable();
}

TEST(LatencyHistogram, BucketLadderEdges) {
  using H = LatencyHistogram;
  // NaN, negatives, zero and the ladder floor itself all land in bucket 0.
  EXPECT_EQ(H::bucket_index(std::nan("")), 0);
  EXPECT_EQ(H::bucket_index(-1.0), 0);
  EXPECT_EQ(H::bucket_index(0.0), 0);
  EXPECT_EQ(H::bucket_index(1e-3), 0);
  // Bucket i covers (upper(i-1), upper(i)]: the upper bound belongs to its
  // own bucket, one ulp past moves up.
  for (int i = 1; i <= H::kBuckets - 2; ++i) {
    EXPECT_EQ(H::bucket_index(H::bucket_upper(i)), i) << i;
    EXPECT_EQ(H::bucket_index(H::bucket_upper(i - 1) * 1.0001), i) << i;
  }
  // Beyond the top rung: overflow bucket.
  EXPECT_EQ(H::bucket_index(H::bucket_upper(H::kBuckets - 2) * 2.0),
            H::kBuckets - 1);
  EXPECT_EQ(H::bucket_index(std::numeric_limits<double>::infinity()),
            H::kBuckets - 1);
}

TEST(LatencyHistogram, MergeEqualsCombinedRecording) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram combined;
  for (int i = 0; i < 500; ++i) {
    const double va = 1e-3 * (1 + i % 97);
    const double vb = 0.5 * (1 + i % 13);
    a.record(va);
    b.record(vb);
    combined.record(va);
    combined.record(vb);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
  const HistogramStats sa = a.stats();
  const HistogramStats sc = combined.stats();
  EXPECT_EQ(sa.buckets, sc.buckets);
  EXPECT_DOUBLE_EQ(sa.min, sc.min);
  EXPECT_DOUBLE_EQ(sa.max, sc.max);
  EXPECT_DOUBLE_EQ(sa.p50, sc.p50);
  EXPECT_DOUBLE_EQ(sa.p999, sc.p999);
}

TEST(LatencyHistogram, QuantilesClampedToObservedRange) {
  LatencyHistogram h;
  h.record(4.0);  // lone sample: every quantile must be exactly it
  HistogramStats st = h.stats();
  EXPECT_DOUBLE_EQ(st.p50, 4.0);
  EXPECT_DOUBLE_EQ(st.p999, 4.0);
  EXPECT_DOUBLE_EQ(st.min, 4.0);
  EXPECT_DOUBLE_EQ(st.max, 4.0);

  for (int i = 0; i < 999; ++i) h.record(4.0);
  h.record(1e9);  // one outlier in the overflow bucket
  st = h.stats();
  EXPECT_DOUBLE_EQ(st.p50, 4.0);
  EXPECT_LE(st.p999, 1e9);
  EXPECT_GE(st.p999, 4.0);
  EXPECT_DOUBLE_EQ(st.max, 1e9);
  EXPECT_EQ(st.count, 1001);
}

TEST(Obs, ConcurrentCountersMergeExactlyToSerialTotals) {
  // 8 threads hammer the same counter and histogram families; the snapshot
  // must equal the serial totals EXACTLY — concurrent recording loses
  // nothing and double-counts nothing.
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  long serial_count = 0;
  double serial_sum = 0.0;
  for (int i = 0; i < kIters; ++i) {
    ++serial_count;
    serial_sum += static_cast<double>(i % 7);
  }

  ScopedObservability scope;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kIters; ++i) {
        counter_add("mt.count");
        histogram("mt.wait", static_cast<double>(i % 7));
      }
    });
  }
  for (auto& th : threads) th.join();

  const Snapshot snap = Registry::global().snapshot();
  EXPECT_EQ(snap.counter("mt.count"), kThreads * serial_count);
  const auto it = snap.histograms.find("mt.wait");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->second.count, kThreads * serial_count);
  EXPECT_DOUBLE_EQ(it->second.sum, kThreads * serial_sum);
}

TEST(Obs, SnapshotIsDeterministicRegardlessOfMergeTiming) {
  // Concurrent span producers, then two snapshots back-to-back: both must
  // render the identical, id-ordered view.
  constexpr int kThreads = 6;
  ScopedObservability scope;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 40; ++i) {
        Span outer("mt.outer");
        counter_add("mt.spans");
        { Span inner(t % 2 == 0 ? "mt.even" : "mt.odd"); }
      }
    });
  }
  for (auto& th : threads) th.join();

  const Snapshot a = Registry::global().snapshot();
  const Snapshot b = Registry::global().snapshot();
  ASSERT_EQ(a.spans.size(), b.spans.size());
  ASSERT_EQ(a.spans.size(), static_cast<std::size_t>(kThreads * 40 * 2));
  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    EXPECT_EQ(a.spans[i].id, b.spans[i].id);
    EXPECT_EQ(a.spans[i].parent, b.spans[i].parent);
    EXPECT_EQ(a.spans[i].name, b.spans[i].name);
    EXPECT_EQ(a.spans[i].tid, b.spans[i].tid);
    if (i > 0) {
      EXPECT_LT(a.spans[i - 1].id, a.spans[i].id);
    }
  }
  EXPECT_EQ(a.counters, b.counters);
  // Every inner span is parented under an outer span from its own thread.
  std::map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : a.spans) by_id[s.id] = &s;
  for (const SpanRecord& s : a.spans) {
    if (s.name == "mt.outer") continue;
    ASSERT_NE(by_id.count(s.parent), 0u);
    EXPECT_EQ(by_id[s.parent]->name, "mt.outer");
    EXPECT_EQ(by_id[s.parent]->tid, s.tid);
  }
}

TEST(Obs, PoolWorkerSpansNestUnderTheSubmittingSpan) {
  // Tasks that land on workers parent their spans under the span open on
  // the submitting thread, one level deeper, and see its path as a prefix.
  constexpr std::size_t kTasks = 16;
  ScopedObservability scope;
  TaskPool pool(4);
  Span root("flow.optimize");
  Span stage("selection");
  const std::string submitter_path = Registry::global().span_path();
  std::vector<std::string> paths(kTasks);
  pool.parallel_for(kTasks, [&paths](std::size_t i) {
    Span leaf("pool.leaf");
    paths[i] = Registry::global().span_path();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return true;
  });
  stage.close();
  root.close();

  for (const std::string& path : paths) {
    EXPECT_EQ(path, submitter_path + "/pool.leaf");
  }
  const Snapshot snap = Registry::global().snapshot();
  const SpanRecord* submitter = nullptr;
  for (const SpanRecord& s : snap.spans) {
    if (s.name == "selection") submitter = &s;
  }
  ASSERT_NE(submitter, nullptr);
  int leaves = 0;
  int on_workers = 0;
  for (const SpanRecord& s : snap.spans) {
    if (s.name != "pool.leaf") continue;
    ++leaves;
    if (s.tid != submitter->tid) ++on_workers;
    EXPECT_EQ(s.parent, submitter->id);
    EXPECT_EQ(s.depth, submitter->depth + 1);
    EXPECT_FALSE(s.open);
  }
  EXPECT_EQ(leaves, static_cast<int>(kTasks));
  EXPECT_GT(on_workers, 0) << "no task ran on a worker";
}

TEST(Obs, ContextCapturedBeforeRebaseIsIgnored) {
  ScopedObservability scope;
  Span outer("flow.optimize");
  const ThreadContext stale = capture_thread_context();
  ASSERT_NE(stale.parent_id, 0u);
  Registry::global().rebase();

  std::string worker_path;
  std::thread worker([&stale, &worker_path] {
    ThreadContextScope context(stale);
    Span leaf("pool.leaf");
    worker_path = Registry::global().span_path();
  });
  worker.join();

  EXPECT_EQ(worker_path, "pool.leaf");
  const Snapshot snap = Registry::global().snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].name, "pool.leaf");
  EXPECT_EQ(snap.spans[0].parent, 0u);
  EXPECT_EQ(snap.spans[0].depth, 0);
}

TEST(Obs, JoinedThreadRecordsSurviveIntoTheSnapshot) {
  ScopedObservability scope;
  std::unique_ptr<Span> left_open;
  std::thread worker([&left_open] {
    counter_add("joined.count", 3);
    histogram("joined.hist", 2.0);
    record("joined.dist", 1.5);
    { Span closed("joined.closed"); }
    left_open = std::make_unique<Span>("joined.open");
  });
  worker.join();

  const Snapshot snap = Registry::global().snapshot();
  EXPECT_EQ(snap.counter("joined.count"), 3);
  ASSERT_EQ(snap.histograms.count("joined.hist"), 1u);
  EXPECT_EQ(snap.histograms.at("joined.hist").count, 1);
  ASSERT_EQ(snap.distributions.count("joined.dist"), 1u);
  EXPECT_DOUBLE_EQ(snap.distributions.at("joined.dist").max, 1.5);
  ASSERT_EQ(snap.spans.size(), 2u);
  EXPECT_EQ(snap.spans[0].name, "joined.closed");
  EXPECT_FALSE(snap.spans[0].open);
  EXPECT_EQ(snap.spans[1].name, "joined.open");
  EXPECT_TRUE(snap.spans[1].open);
  EXPECT_EQ(snap.spans[0].tid, snap.spans[1].tid);
  left_open.reset();  // closing from this thread is a no-op
  EXPECT_TRUE(Registry::global().snapshot().spans[1].open);
}

TEST(Obs, ClosingASpanOnAnotherThreadIsANoOp) {
  ScopedObservability scope;
  Span outer("flow.optimize");
  auto inner = std::make_unique<Span>("routing");
  const std::string path = Registry::global().span_path();
  ASSERT_EQ(path, "flow.optimize/routing");

  std::thread other([&inner] { inner->close(); });
  other.join();

  EXPECT_EQ(Registry::global().span_path(), path);
  const Snapshot snap = Registry::global().snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);
  EXPECT_TRUE(snap.spans[0].open);
  EXPECT_TRUE(snap.spans[1].open);
}

TEST(TraceExport, ThreadNameMetadataRecordsInChromeTrace) {
  ScopedObservability scope;
  set_thread_name("main-test-thread");
  {
    Span span("named.main");
  }
  std::thread helper([] {
    set_thread_name("helper-0");
    Span span("named.helper");
  });
  helper.join();

  const Snapshot snap = Registry::global().snapshot();
  ASSERT_GE(snap.thread_names.size(), 2u);
  const std::string json = to_chrome_trace_json(snap);
  std::string err;
  ASSERT_TRUE(jsonl::well_formed(json, &err)) << err;
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"main-test-thread\""), std::string::npos);
  EXPECT_NE(json.find("\"helper-0\""), std::string::npos);
  // The helper's X event rides its own tid lane, not the main thread's.
  int helper_tid = -1;
  int main_tid = -1;
  for (const auto& [tid, name] : snap.thread_names) {
    if (name == "helper-0") helper_tid = tid;
    if (name == "main-test-thread") main_tid = tid;
  }
  ASSERT_GE(helper_tid, 0);
  ASSERT_GE(main_tid, 0);
  EXPECT_NE(helper_tid, main_tid);
  for (const SpanRecord& s : snap.spans) {
    if (s.name == "named.helper") {
      EXPECT_EQ(s.tid, helper_tid);
    }
    if (s.name == "named.main") {
      EXPECT_EQ(s.tid, main_tid);
    }
  }
}

TEST(TraceExport, ChromeTraceJsonIsWellFormedAndComplete) {
  ScopedObservability scope;
  {
    Span root("flow.optimize");
    Span stage("selection", "quote \" backslash \\ newline \n end");
    counter_add("eval.testbench", 42);
    record("router.net_length_um", 12.5);
  }
  const Snapshot snap = Registry::global().snapshot();
  const std::string json = to_chrome_trace_json(snap);

  std::string err;
  EXPECT_TRUE(jsonl::well_formed(json, &err)) << err;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"flow.optimize\""), std::string::npos);
  EXPECT_NE(json.find("\"selection\""), std::string::npos);
  EXPECT_NE(json.find("eval.testbench"), std::string::npos);
  // The raw control characters must have been escaped away.
  EXPECT_EQ(json.find('\n'), std::string::npos);

  // An empty snapshot still yields a valid document.
  EXPECT_TRUE(jsonl::well_formed(to_chrome_trace_json(Snapshot{}), &err))
      << err;
}

TEST(TraceExport, TelemetryViewAggregatesStages) {
  ScopedObservability scope;
  {
    Span root("flow.optimize");
    { Span s("selection"); }
    { Span s("placement"); }
    { Span s("placement"); }  // merged with the first by name
    { Span s("routing"); }
    counter_add("eval.testbench", 7);
  }
  const FlowTelemetry t = make_flow_telemetry(Registry::global().snapshot());
  EXPECT_TRUE(t.enabled);
  EXPECT_EQ(t.flow, "flow.optimize");
  EXPECT_EQ(t.simulations, 7);
  EXPECT_GE(t.total_seconds, 0.0);
  ASSERT_EQ(t.stages.size(), 3u);  // first-seen order, placement merged
  EXPECT_EQ(t.stages[0].stage, "selection");
  EXPECT_EQ(t.stages[1].stage, "placement");
  EXPECT_EQ(t.stages[1].spans, 2);
  EXPECT_EQ(t.stages[2].stage, "routing");

  std::string err;
  EXPECT_TRUE(jsonl::well_formed(to_json(t), &err)) << err;
  const std::string table = summary_table(t);
  EXPECT_NE(table.find("placement"), std::string::npos);
  EXPECT_NE(table.find("flow.optimize"), std::string::npos);

  // Empty snapshot -> disabled telemetry, still exportable.
  const FlowTelemetry empty = make_flow_telemetry(Snapshot{});
  EXPECT_FALSE(empty.enabled);
  EXPECT_TRUE(jsonl::well_formed(to_json(empty), &err)) << err;
}

TEST(TraceExport, WriteTextFile) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "olp_export_test";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "out.csv").string();
  write_text_file(path, "a,b\n1,2\n");  // creates the directory
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "a,b");
  // A regular file cannot hold a directory, even for a user who may create
  // one anywhere.
  EXPECT_THROW(write_text_file(path + "/x.csv", "x"), InvalidArgumentError);
  std::filesystem::remove_all(dir);
}

// --- Flow integration: enabled vs disabled on the 5T OTA. ---

class ObsFlowOnOta : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::kError);
    tech_ = new tech::Technology(tech::make_default_finfet_tech());
    ota_ = new circuits::Ota5T(*tech_);
    ASSERT_TRUE(ota_->prepare());

    // Reduced placer effort keeps the doubled run affordable; both runs use
    // identical options and seed so their results must match exactly.
    circuits::FlowOptions opt;
    opt.placer_iterations = 1500;
    opt.combo_place_iterations = 400;

    Registry::global().disable();
    circuits::FlowEngine plain(*tech_, opt);
    plain.run(circuits::FlowMode::kOptimize, ota_->instances(), ota_->routed_nets(), &plain_report_);

    // ctest runs each test of this suite in its own process, in parallel;
    // a per-process directory keeps one's teardown from deleting another's.
    artifacts_dir_ = ::testing::TempDir() + "/olp_obs_artifacts_" +
                     std::to_string(::getpid());
    opt.trace_artifacts_dir = artifacts_dir_;
    Registry::global().enable();
    circuits::FlowEngine traced(*tech_, opt);
    traced.run(circuits::FlowMode::kOptimize, ota_->instances(), ota_->routed_nets(), &traced_report_);
    Registry::global().disable();
  }
  static void TearDownTestSuite() {
    delete ota_;
    delete tech_;
    std::error_code ec;
    std::filesystem::remove_all(artifacts_dir_, ec);
  }

  static tech::Technology* tech_;
  static circuits::Ota5T* ota_;
  static circuits::FlowReport plain_report_;
  static circuits::FlowReport traced_report_;
  static std::string artifacts_dir_;
};

tech::Technology* ObsFlowOnOta::tech_ = nullptr;
circuits::Ota5T* ObsFlowOnOta::ota_ = nullptr;
circuits::FlowReport ObsFlowOnOta::plain_report_;
circuits::FlowReport ObsFlowOnOta::traced_report_;
std::string ObsFlowOnOta::artifacts_dir_;

TEST_F(ObsFlowOnOta, TracingDoesNotChangeFlowResults) {
  // Identical decisions with the registry off and on: instrumentation only
  // observes.
  EXPECT_EQ(plain_report_.testbenches, traced_report_.testbenches);
  EXPECT_DOUBLE_EQ(plain_report_.placement.width,
                   traced_report_.placement.width);
  EXPECT_DOUBLE_EQ(plain_report_.placement.height,
                   traced_report_.placement.height);
  EXPECT_DOUBLE_EQ(plain_report_.placement.hpwl,
                   traced_report_.placement.hpwl);
  EXPECT_EQ(plain_report_.chosen_option, traced_report_.chosen_option);

  ASSERT_EQ(plain_report_.routes.size(), traced_report_.routes.size());
  for (const auto& [net, route] : plain_report_.routes) {
    ASSERT_EQ(traced_report_.routes.count(net), 1u) << net;
    const route::NetRoute& other = traced_report_.routes.at(net);
    EXPECT_EQ(route.routed, other.routed) << net;
    EXPECT_DOUBLE_EQ(route.total_length(), other.total_length()) << net;
    EXPECT_EQ(route.vias, other.vias) << net;
  }

  ASSERT_EQ(plain_report_.decisions.size(), traced_report_.decisions.size());
  for (std::size_t i = 0; i < plain_report_.decisions.size(); ++i) {
    EXPECT_EQ(plain_report_.decisions[i].circuit_net,
              traced_report_.decisions[i].circuit_net);
    EXPECT_EQ(plain_report_.decisions[i].parallel_routes,
              traced_report_.decisions[i].parallel_routes);
  }
}

TEST_F(ObsFlowOnOta, TelemetryAgreesWithTestbenchCount) {
  // The disabled run carries no telemetry.
  EXPECT_FALSE(plain_report_.telemetry.enabled);

  const FlowTelemetry& t = traced_report_.telemetry;
  ASSERT_TRUE(t.enabled);
  EXPECT_EQ(t.flow, "flow.optimize");
  // Exact agreement: FlowReport::testbenches is derived from the same
  // counter sites.
  EXPECT_EQ(t.simulations, traced_report_.testbenches);
  EXPECT_EQ(t.snapshot.counter("eval.testbench"), traced_report_.testbenches);
  EXPECT_GT(t.simulations, 50);
  EXPECT_GT(t.total_seconds, 0.0);

  // The paper-flow stages all appear.
  std::vector<std::string> names;
  for (const StageTiming& s : t.stages) names.push_back(s.stage);
  for (const char* want : {"selection", "combo_choice", "placement",
                           "routing", "port_optimization", "realization"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << want;
  }

  // Lower-level instrumentation made it into the same snapshot.
  EXPECT_GT(t.snapshot.counter("sim.op"), 0);
  EXPECT_GT(t.snapshot.counter("router.nets"), 0);
  EXPECT_GT(t.snapshot.counter("optimizer.candidates"), 0);
  EXPECT_GE(t.snapshot.counter("portopt.sweep_points"), 1);
  EXPECT_EQ(t.snapshot.distributions.count("placer.hpwl_um"), 1u);
}

TEST_F(ObsFlowOnOta, ChromeTraceExportOfRealFlowParses) {
  const std::string json =
      to_chrome_trace_json(traced_report_.telemetry.snapshot);
  std::string err;
  ASSERT_TRUE(jsonl::well_formed(json, &err)) << err;
  EXPECT_NE(json.find("\"flow.optimize\""), std::string::npos);
  EXPECT_NE(json.find("\"router.net\""), std::string::npos);

  EXPECT_TRUE(jsonl::well_formed(to_json(traced_report_.telemetry), &err))
      << err;
}

TEST_F(ObsFlowOnOta, StageArtifactsWritten) {
  for (const char* name : {"optimize_placement.svg", "optimize_routed.svg"}) {
    const std::string path = artifacts_dir_ + "/" + name;
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    EXPECT_GT(std::filesystem::file_size(path), 100u) << path;
  }
}

TEST_F(ObsFlowOnOta, DiagnosticsCarrySpanContextWhenTraced) {
  // Any diagnostic reported while the registry was enabled must carry the
  // span path it was reported under; the untraced run's must not.
  for (const Diagnostic& d : plain_report_.diagnostics) {
    EXPECT_TRUE(d.span.empty()) << d.to_string();
  }
  for (const Diagnostic& d : traced_report_.diagnostics) {
    EXPECT_FALSE(d.span.empty()) << d.to_string();
  }
}

}  // namespace
}  // namespace olp::obs
