// Standalone EvalCache concurrency stress (no gtest): 8 reader threads
// hammer lookup while 2 writer threads populate the cache through the same
// shard mutexes, then every per-thread hit/miss tally is reconciled EXACTLY
// against the cache's own stats — every lookup must count once, as a hit or
// a miss, never both, never zero, under any interleaving.
//
// Built unconditionally (outside OLP_BUILD_TESTS) so tests/run_tsan.sh can
// run it inside the sanitizer tree, where gtest is not configured. Exits
// nonzero on any mismatch. The gtest twin lives in test_eval_cache.cpp.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/eval_cache.hpp"

namespace {

constexpr int kKeys = 500;
constexpr int kReaders = 8;
constexpr int kWriters = 2;
constexpr int kRounds = 40;

int g_failures = 0;

void check(bool ok, const char* what, long got, long want) {
  if (ok) return;
  std::fprintf(stderr, "FAIL: %s: got %ld want %ld\n", what, got, want);
  ++g_failures;
}

std::string key_of(int i) { return "k" + std::to_string(i); }

olp::core::MetricValues value_of(int i) {
  olp::core::MetricValues v;
  v[olp::core::MetricKind::kGm] = static_cast<double>(i) * 1.25 + 0.5;
  return v;
}

/// The stress run; failures are tallied in g_failures.
void stress() {
  olp::core::EvalCache cache;
  std::atomic<long> hits{0}, misses{0}, bad_values{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&cache, w] {
      // Disjoint key ranges per writer plus a contended overlap band at
      // the end, where first-writer-wins must hold (same key => same
      // value bits, so whoever wins is indistinguishable to readers).
      const int lo = w * (kKeys / kWriters);
      const int hi = lo + kKeys / kWriters;
      for (int i = lo; i < hi; ++i) cache.insert(key_of(i), value_of(i), w);
      for (int i = kKeys - 50; i < kKeys; ++i) {
        cache.insert(key_of(i), value_of(i), w);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      long my_hits = 0, my_misses = 0, my_bad = 0;
      olp::core::MetricValues v;
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kKeys; ++i) {
          if (cache.lookup(key_of(i), &v, /*client=*/100)) {
            ++my_hits;
            const double want = static_cast<double>(i) * 1.25 + 0.5;
            const double got = v.at(olp::core::MetricKind::kGm);
            if (std::memcmp(&got, &want, sizeof(double)) != 0) ++my_bad;
          } else {
            ++my_misses;
          }
        }
      }
      hits.fetch_add(my_hits);
      misses.fetch_add(my_misses);
      bad_values.fetch_add(my_bad);
    });
  }
  for (std::thread& t : threads) t.join();

  // Exact reconciliation vs a serial replay of the ledger: the cache's
  // global stats must equal the sum of every thread's local observations —
  // no lost, double-counted, or phantom lookups.
  const olp::core::EvalCacheStats stats = cache.stats();
  const long lookups = static_cast<long>(kReaders) * kRounds * kKeys;
  check(hits.load() + misses.load() == lookups, "reader tally covers lookups",
        hits.load() + misses.load(), lookups);
  check(stats.hits == hits.load(), "stats.hits == observed hits", stats.hits,
        hits.load());
  check(stats.misses == misses.load(), "stats.misses == observed misses",
        stats.misses, misses.load());
  check(bad_values.load() == 0, "hit values bit-exact", bad_values.load(), 0);
  check(stats.entries == kKeys, "all keys resident", stats.entries, kKeys);
  // Serial replay: every key must now hit with the exact value bits.
  olp::core::MetricValues v;
  long replay_bad = 0;
  for (int i = 0; i < kKeys; ++i) {
    if (!cache.lookup(key_of(i), &v)) {
      ++replay_bad;
      continue;
    }
    const double want = static_cast<double>(i) * 1.25 + 0.5;
    const double got = v.at(olp::core::MetricKind::kGm);
    if (std::memcmp(&got, &want, sizeof(double)) != 0) ++replay_bad;
  }
  check(replay_bad == 0, "serial replay hits every key", replay_bad, 0);
}

}  // namespace

int main() {
  stress();
  if (g_failures != 0) {
    std::fprintf(stderr, "eval_cache_stress: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("eval_cache_stress: OK\n");
  return 0;
}
