// Standalone obs registry concurrency stress (no gtest).
//
// Phase 1: 8 writer threads and a 4-worker TaskPool open nested spans and
// record counters, histograms and samples while one more thread loops
// snapshot() and rebase(). Every snapshot must be a consistent epoch: span
// ids run 1..n in order, and each parent is an earlier span of the same
// snapshot one level up.
//
// Phase 2: one clean epoch with the same 8 writers must reconcile EXACTLY:
// every count, every histogram and distribution sample and every span
// lands once, each inner span under an outer span of its own thread, and
// none is left open.
//
// Built unconditionally (outside OLP_BUILD_TESTS) so tests/run_tsan.sh can
// run it inside the sanitizer tree, where gtest is not configured. Exits
// nonzero on any mismatch.

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "util/obs.hpp"
#include "util/task_pool.hpp"

namespace {

using olp::obs::Registry;
using olp::obs::Snapshot;
using olp::obs::Span;
using olp::obs::SpanRecord;

constexpr int kWriters = 8;
constexpr int kIterations = 2000;
constexpr int kPoolWorkers = 4;
constexpr int kPoolBatches = 40;
constexpr std::size_t kPoolTasks = 16;

int g_failures = 0;

void check(bool ok, const char* what, long got, long want) {
  if (ok) return;
  std::fprintf(stderr, "FAIL: %s: got %ld want %ld\n", what, got, want);
  ++g_failures;
}

/// One writer iteration: an outer span holding a counter, a histogram and a
/// distribution sample, and one inner span.
void write_once(int i) {
  Span outer("stress.outer");
  olp::obs::counter_add("stress.count");
  olp::obs::histogram("stress.hist", static_cast<double>(i % 11));
  olp::obs::record("stress.sample", static_cast<double>(i % 5));
  Span inner("stress.inner");
}

void run_writers() {
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([] {
      for (int i = 0; i < kIterations; ++i) write_once(i);
    });
  }
  for (std::thread& t : writers) t.join();
}

/// Checks the structural invariants every snapshot holds, rebased or not.
void check_consistent(const Snapshot& snap) {
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    const SpanRecord& s = snap.spans[i];
    if (s.id != i + 1) {
      check(false, "span ids run 1..n", static_cast<long>(s.id),
            static_cast<long>(i + 1));
      return;
    }
    if (s.parent == 0) continue;
    if (s.parent >= s.id) {
      check(false, "parent opened first", static_cast<long>(s.parent),
            static_cast<long>(s.id));
      continue;
    }
    const SpanRecord& p = snap.spans[s.parent - 1];
    check(s.depth == p.depth + 1, "child one level below its parent", s.depth,
          p.depth + 1);
  }
}

/// Phase 1: writers and pool tasks race snapshot() and rebase().
void race_rebase() {
  Registry::global().enable();
  std::atomic<bool> done{false};
  std::thread rebaser([&done] {
    while (!done.load()) {
      check_consistent(Registry::global().snapshot());
      Registry::global().rebase();
    }
  });
  std::thread submitter([] {
    olp::TaskPool pool(kPoolWorkers + 1);
    for (int b = 0; b < kPoolBatches; ++b) {
      Span batch("stress.batch");
      pool.parallel_for(kPoolTasks, [](std::size_t i) {
        write_once(static_cast<int>(i));
        return true;
      });
    }
  });
  run_writers();
  submitter.join();
  done.store(true);
  rebaser.join();
  check_consistent(Registry::global().snapshot());
}

/// Phase 2: one clean epoch reconciles exactly.
void reconcile() {
  Registry::global().enable();
  run_writers();
  const Snapshot snap = Registry::global().snapshot();
  Registry::global().disable();
  check_consistent(snap);

  const long iterations = static_cast<long>(kWriters) * kIterations;
  check(snap.counter("stress.count") == iterations, "counter total",
        snap.counter("stress.count"), iterations);
  const auto hist = snap.histograms.find("stress.hist");
  check(hist != snap.histograms.end() && hist->second.count == iterations,
        "histogram samples",
        hist == snap.histograms.end() ? 0 : hist->second.count, iterations);
  const auto dist = snap.distributions.find("stress.sample");
  check(dist != snap.distributions.end() && dist->second.count == iterations,
        "distribution samples",
        dist == snap.distributions.end() ? 0 : dist->second.count, iterations);
  check(static_cast<long>(snap.spans.size()) == 2 * iterations, "span count",
        static_cast<long>(snap.spans.size()), 2 * iterations);

  long open = 0;
  long misparented = 0;
  for (const SpanRecord& s : snap.spans) {
    if (s.open) ++open;
    if (s.name == "stress.outer") {
      if (s.parent != 0) ++misparented;
      continue;
    }
    const bool ok = s.parent >= 1 && s.parent <= snap.spans.size() &&
                    snap.spans[s.parent - 1].name == "stress.outer" &&
                    snap.spans[s.parent - 1].tid == s.tid;
    if (!ok) ++misparented;
  }
  check(open == 0, "no span left open", open, 0);
  check(misparented == 0, "inner spans under an outer span of their thread",
        misparented, 0);
}

}  // namespace

int main() {
  race_rebase();
  reconcile();
  if (g_failures != 0) {
    std::fprintf(stderr, "obs_stress: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("obs_stress: OK\n");
  return 0;
}
