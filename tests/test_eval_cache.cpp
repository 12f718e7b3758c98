// Eval-cache tests: the canonical key must distinguish every input an
// evaluation depends on, hits must return bit-identical metrics without new
// simulation, quarantined evaluations must never be memoized (so their
// diagnostics re-fire), and the cache must be safe to share across TaskPool
// workers.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "circuits/common.hpp"
#include "core/eval_cache.hpp"
#include "core/evaluator.hpp"
#include "pcell/generator.hpp"
#include "util/diag.hpp"
#include "util/faults.hpp"
#include "util/logging.hpp"
#include "util/task_pool.hpp"

namespace olp::core {
namespace {

const tech::Technology& t() {
  static const tech::Technology tech = tech::make_default_finfet_tech();
  return tech;
}

pcell::LayoutConfig cfg(int nfin, int nf, int m) {
  pcell::LayoutConfig c;
  c.nfin = nfin;
  c.nf = nf;
  c.m = m;
  return c;
}

BiasContext dp_bias() {
  BiasContext b;
  b.vdd = t().vdd;
  b.bias_current = 500e-6;
  b.port_voltage = {
      {"ga", 0.5}, {"gb", 0.5}, {"da", 0.5}, {"db", 0.5}, {"s", 0.2}};
  b.port_load_cap = {{"da", 20e-15}, {"db", 20e-15}};
  return b;
}

TEST(EvalCacheKey, DistinguishesEveryInput) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg(8, 20, 6));
  const BiasContext bias = dp_bias();
  const spice::MosModel nmos = circuits::default_nmos();
  const spice::MosModel pmos = circuits::default_pmos();
  EvalCondition cond;

  const std::string base = EvalCache::make_key(lay, cond, bias, nmos, pmos);
  EXPECT_EQ(EvalCache::make_key(lay, cond, bias, nmos, pmos), base)
      << "same inputs must produce the same key";

  std::set<std::string> keys;
  keys.insert(base);

  // Different layout configuration.
  const pcell::PrimitiveLayout other =
      gen.generate(pcell::make_diff_pair(), cfg(8, 10, 12));
  EXPECT_TRUE(
      keys.insert(EvalCache::make_key(other, cond, bias, nmos, pmos)).second);

  // Different netlist (current mirror vs diff pair).
  const pcell::PrimitiveLayout mirror =
      gen.generate(pcell::make_current_mirror(), cfg(8, 20, 6));
  EXPECT_TRUE(
      keys.insert(EvalCache::make_key(mirror, cond, bias, nmos, pmos)).second);

  // Ideal vs extracted mode.
  EvalCondition ideal;
  ideal.ideal = true;
  EXPECT_TRUE(
      keys.insert(EvalCache::make_key(lay, ideal, bias, nmos, pmos)).second);

  // Strap tuning.
  EvalCondition tuned;
  tuned.tuning["s"] = 3;
  EXPECT_TRUE(
      keys.insert(EvalCache::make_key(lay, tuned, bias, nmos, pmos)).second);

  // Port wire RC — including a tiny (one-ulp-scale) perturbation.
  EvalCondition wired;
  wired.port_wires["da"] = extract::WireRc{12.5, 3e-15};
  const std::string wired_key =
      EvalCache::make_key(lay, wired, bias, nmos, pmos);
  EXPECT_TRUE(keys.insert(wired_key).second);
  wired.port_wires["da"].resistance =
      std::nextafter(12.5, 13.0);  // %.17g is round-trip exact
  EXPECT_TRUE(
      keys.insert(EvalCache::make_key(lay, wired, bias, nmos, pmos)).second);

  // Mismatch perturbations.
  EvalCondition mc;
  mc.extra_dvth["ma0"] = 1e-3;
  EXPECT_TRUE(
      keys.insert(EvalCache::make_key(lay, mc, bias, nmos, pmos)).second);

  // Bias context.
  BiasContext bias2 = bias;
  bias2.bias_current = 400e-6;
  EXPECT_TRUE(
      keys.insert(EvalCache::make_key(lay, cond, bias2, nmos, pmos)).second);
  BiasContext bias3 = bias;
  bias3.port_voltage["ga"] = 0.45;
  EXPECT_TRUE(
      keys.insert(EvalCache::make_key(lay, cond, bias3, nmos, pmos)).second);

  // Model card.
  spice::MosModel nmos2 = nmos;
  nmos2.vth0 += 1e-3;
  EXPECT_TRUE(
      keys.insert(EvalCache::make_key(lay, cond, bias, nmos2, pmos)).second);
}

TEST(EvalCache, HitReturnsIdenticalValuesWithoutNewTestbenches) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg(8, 20, 6));
  PrimitiveEvaluator eval(t(), circuits::default_nmos(),
                          circuits::default_pmos(), dp_bias());
  EvalCache cache;
  eval.set_cache(&cache);

  EvalCondition cond;
  EvalOutcome first_out;
  const MetricValues first = eval.evaluate(lay, cond, &first_out);
  EXPECT_FALSE(first_out.cache_hit);
  const long benches_after_miss = eval.stats().testbenches;
  EXPECT_GT(benches_after_miss, 0);

  EvalOutcome second_out;
  const MetricValues second = eval.evaluate(lay, cond, &second_out);
  EXPECT_TRUE(second_out.cache_hit);
  EXPECT_EQ(eval.stats().testbenches, benches_after_miss)
      << "a cache hit must not simulate";

  ASSERT_EQ(first.size(), second.size());
  auto fi = first.begin();
  auto si = second.begin();
  for (; fi != first.end(); ++fi, ++si) {
    EXPECT_EQ(fi->first, si->first);
    EXPECT_EQ(std::memcmp(&fi->second, &si->second, sizeof(double)), 0)
        << metric_name(fi->first);
  }

  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1);

  // A different condition is a fresh miss.
  EvalCondition tuned;
  tuned.tuning["s"] = 2;
  EvalOutcome third_out;
  eval.evaluate(lay, tuned, &third_out);
  EXPECT_FALSE(third_out.cache_hit);
  EXPECT_EQ(cache.stats().entries, 2);
}

TEST(EvalCache, QuarantinedEvaluationsAreNeverCached) {
  set_log_level(LogLevel::kOff);
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg(8, 20, 6));
  PrimitiveEvaluator eval(t(), circuits::default_nmos(),
                          circuits::default_pmos(), dp_bias());
  EvalCache cache;
  eval.set_cache(&cache);
  DiagnosticsSink sink;
  eval.set_diagnostics(&sink);

  FaultConfig config;
  config.seed = 3;
  config.nan_metric_rate = 1.0;  // every evaluation quarantines
  {
    ScopedFaultInjection chaos(config);
    EvalCondition cond;
    EvalOutcome out1, out2;
    eval.evaluate(lay, cond, &out1);
    eval.evaluate(lay, cond, &out2);
    EXPECT_GT(out1.quarantined, 0);
    EXPECT_FALSE(out1.cache_hit);
    // The second identical call must re-simulate (not hit a poisoned entry)
    // and re-fire the quarantine diagnostic.
    EXPECT_FALSE(out2.cache_hit);
    EXPECT_GT(out2.quarantined, 0);
  }
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(sink.count("evaluator"), 2u);
}

TEST(EvalCache, FullKeyEqualityMakesShardCollisionsBenign) {
  // One shard forces every key through the same map: distinct keys must
  // still resolve to their own entries (the hash only picks the shard).
  EvalCache cache(/*shards=*/1);
  for (int i = 0; i < 200; ++i) {
    MetricValues v;
    v[MetricKind::kGm] = static_cast<double>(i);
    cache.insert("key" + std::to_string(i), v);
  }
  EXPECT_EQ(cache.stats().entries, 200);
  for (int i = 0; i < 200; ++i) {
    MetricValues v;
    ASSERT_TRUE(cache.lookup("key" + std::to_string(i), &v)) << i;
    EXPECT_EQ(v.at(MetricKind::kGm), static_cast<double>(i)) << i;
  }
  MetricValues v;
  EXPECT_FALSE(cache.lookup("key200", &v));
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().hits, 0);
}

TEST(EvalCache, SharedAcrossPoolWorkers) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg(8, 20, 6));
  PrimitiveEvaluator eval(t(), circuits::default_nmos(),
                          circuits::default_pmos(), dp_bias());
  EvalCache cache;
  eval.set_cache(&cache);

  TaskPool pool(8);
  const std::size_t n = 32;
  std::vector<MetricValues> slots(n);
  pool.parallel_for(n, [&](std::size_t i) {
    EvalCondition cond;  // all workers evaluate the identical condition
    slots[i] = eval.evaluate(lay, cond);
    return true;
  });

  // Exactly one entry; every result is bit-identical to the first.
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.hits + stats.misses, static_cast<long>(n));
  EXPECT_GE(stats.hits, 1);
  for (std::size_t i = 1; i < n; ++i) {
    ASSERT_EQ(slots[i].size(), slots[0].size()) << i;
    auto a = slots[0].begin();
    auto b = slots[i].begin();
    for (; a != slots[0].end(); ++a, ++b) {
      EXPECT_EQ(std::memcmp(&a->second, &b->second, sizeof(double)), 0)
          << i << "/" << metric_name(a->first);
    }
  }
}


// --- capacity bound + eviction ----------------------------------------------

MetricValues one_metric(double v) {
  MetricValues m;
  m[MetricKind::kGain] = v;
  return m;
}

TEST(EvalCacheBounded, CapacityEnforcedWithClockEviction) {
  EvalCacheOptions opt;
  opt.shards = 1;  // one shard makes the capacity math exact
  opt.max_entries = 4;
  EvalCache cache(opt);
  for (int i = 0; i < 10; ++i) {
    cache.insert("key" + std::to_string(i), one_metric(i));
  }
  const EvalCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 4);
  EXPECT_EQ(s.evictions, 6);
  EXPECT_EQ(s.capacity, 4);
}

TEST(EvalCacheBounded, SecondChanceKeepsRecentlyHitEntries) {
  EvalCacheOptions opt;
  opt.shards = 1;
  opt.max_entries = 4;
  EvalCache cache(opt);
  for (int i = 0; i < 4; ++i) {
    cache.insert("key" + std::to_string(i), one_metric(i));
  }
  // Touch key2: its referenced bit grants one extra lap over the cold keys.
  EXPECT_TRUE(cache.lookup("key2", nullptr));
  for (int i = 4; i < 7; ++i) {
    cache.insert("key" + std::to_string(i), one_metric(i));
  }
  EXPECT_TRUE(cache.lookup("key2", nullptr));
  EXPECT_EQ(cache.stats().entries, 4);
}

TEST(EvalCacheBounded, UnboundedDefaultNeverEvicts) {
  EvalCache cache(4);  // 4 shards, no bound
  for (int i = 0; i < 1000; ++i) {
    cache.insert("key" + std::to_string(i), one_metric(i));
  }
  const EvalCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 1000);
  EXPECT_EQ(s.evictions, 0);
  EXPECT_EQ(s.capacity, 0);
}

// --- serialize / restore ----------------------------------------------------

TEST(EvalCacheSnapshot, SerializeRestoreIsBitIdentical) {
  EvalCache cache(4);
  // Values chosen to stress bit-exactness: denormal, negative zero, huge.
  const double values[] = {1.0 / 3.0, -0.0, 5e-324, 1.7976931348623157e308};
  for (int i = 0; i < 4; ++i) {
    cache.insert("key" + std::to_string(i), one_metric(values[i]), i);
  }
  const std::string payload = cache.serialize_entries();

  EvalCache restored(8);  // different shard count must not matter
  ASSERT_TRUE(restored.restore_entries(payload));
  EXPECT_EQ(restored.stats().entries, 4);
  for (int i = 0; i < 4; ++i) {
    MetricValues got;
    ASSERT_TRUE(restored.lookup("key" + std::to_string(i), &got));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(std::memcmp(&got[MetricKind::kGain], &values[i],
                          sizeof(double)),
              0)
        << i;
  }
  // Hits on restored entries are attributed as such (warm-start evidence),
  // and never as cross-client (restored owner is -1).
  const EvalCacheStats s = restored.stats();
  EXPECT_EQ(s.restored_hits, 4);
  EXPECT_EQ(s.cross_client_hits, 0);
}

TEST(EvalCacheSnapshot, RestoreRejectsTruncatedPayloadAtomically) {
  EvalCache cache(2);
  for (int i = 0; i < 8; ++i) {
    cache.insert("key" + std::to_string(i), one_metric(i));
  }
  const std::string payload = cache.serialize_entries();
  for (const std::size_t cut :
       {payload.size() / 2, payload.size() - 1, std::size_t{3}}) {
    EvalCache fresh(2);
    std::string error;
    EXPECT_FALSE(fresh.restore_entries(payload.substr(0, cut), &error));
    EXPECT_FALSE(error.empty());
    // All-or-nothing: a bad payload restores NO entries.
    EXPECT_EQ(fresh.stats().entries, 0);
  }
}

TEST(EvalCacheSnapshot, LiveEntriesWinOverRestore) {
  EvalCache donor(2);
  donor.insert("shared", one_metric(1.0));
  const std::string payload = donor.serialize_entries();

  EvalCache cache(2);
  cache.insert("shared", one_metric(2.0), 7);
  ASSERT_TRUE(cache.restore_entries(payload));
  MetricValues got;
  ASSERT_TRUE(cache.lookup("shared", &got));
  EXPECT_EQ(got[MetricKind::kGain], 2.0);  // first writer (live) wins
  EXPECT_EQ(cache.stats().restored_hits, 0);
}

TEST(EvalCacheSnapshot, FileRoundTripAcrossScopes) {
  const std::string path =
      testing::TempDir() + "olp_eval_cache_snapshot_test.bin";
  std::remove(path.c_str());

  EvalCache a(2), b(2);
  a.insert("ka", one_metric(1.5));
  b.insert("kb1", one_metric(2.5));
  b.insert("kb2", one_metric(3.5));
  std::map<std::string, const EvalCache*> caches;
  caches["scopeA"] = &a;
  caches["scopeB"] = &b;
  std::string error;
  ASSERT_TRUE(save_cache_snapshot(path, caches, &error)) << error;

  std::map<std::string, std::string> payloads;
  ASSERT_TRUE(load_cache_snapshot(path, &payloads, &error)) << error;
  ASSERT_EQ(payloads.size(), 2u);
  EvalCache ra(2), rb(2);
  ASSERT_TRUE(ra.restore_entries(payloads.at("scopeA")));
  ASSERT_TRUE(rb.restore_entries(payloads.at("scopeB")));
  EXPECT_EQ(ra.stats().entries, 1);
  EXPECT_EQ(rb.stats().entries, 2);
  EXPECT_TRUE(ra.lookup("ka", nullptr));
  EXPECT_TRUE(rb.lookup("kb2", nullptr));
  std::remove(path.c_str());
}

TEST(EvalCacheSnapshot, CorruptOrMissingFileFailsCleanly) {
  const std::string path =
      testing::TempDir() + "olp_eval_cache_corrupt_test.bin";
  std::remove(path.c_str());
  std::map<std::string, std::string> payloads;
  std::string error;

  // Missing file.
  EXPECT_FALSE(load_cache_snapshot(path, &payloads, &error));
  EXPECT_FALSE(error.empty());

  // Valid snapshot, then flip one body byte: checksum must catch it.
  EvalCache cache(2);
  cache.insert("key", one_metric(42.0));
  std::map<std::string, const EvalCache*> caches;
  caches["scope"] = &cache;
  ASSERT_TRUE(save_cache_snapshot(path, caches, &error)) << error;
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(12);
    char byte = 0;
    f.seekg(12);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(12);
    f.write(&byte, 1);
  }
  EXPECT_FALSE(load_cache_snapshot(path, &payloads, &error));
  EXPECT_TRUE(payloads.empty());

  // Truncated file.
  ASSERT_TRUE(save_cache_snapshot(path, caches, &error)) << error;
  std::string full;
  {
    std::ifstream in(path, std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size() / 2));
  }
  EXPECT_FALSE(load_cache_snapshot(path, &payloads, &error));
  EXPECT_TRUE(payloads.empty());

  // Bad magic.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "definitely not a snapshot";
  }
  EXPECT_FALSE(load_cache_snapshot(path, &payloads, &error));
  EXPECT_TRUE(payloads.empty());
  std::remove(path.c_str());
}

TEST(EvalCacheSnapshot, InjectedIoFaultFailsSaveAndLoad) {
  const std::string path = testing::TempDir() + "olp_eval_cache_fault.bin";
  std::remove(path.c_str());
  EvalCache cache(2);
  cache.insert("key", one_metric(1.0));
  std::map<std::string, const EvalCache*> caches;
  caches["scope"] = &cache;

  FaultConfig config;
  config.snapshot_io_rate = 1.0;
  {
    ScopedFaultInjection chaos(config);
    std::string error;
    EXPECT_FALSE(save_cache_snapshot(path, caches, &error));
    EXPECT_NE(error.find("injected"), std::string::npos);
    EXPECT_EQ(FaultInjector::global().fired(FaultSite::kSnapshotIo), 1);
  }
  // The injected save failure left no file behind.
  std::ifstream probe(path);
  EXPECT_FALSE(probe.good());

  std::string error;
  ASSERT_TRUE(save_cache_snapshot(path, caches, &error)) << error;
  {
    ScopedFaultInjection chaos(config);
    std::map<std::string, std::string> payloads;
    EXPECT_FALSE(load_cache_snapshot(path, &payloads, &error));
    EXPECT_NE(error.find("injected"), std::string::npos);
  }
  // Injection off: the file itself is intact.
  std::map<std::string, std::string> payloads;
  EXPECT_TRUE(load_cache_snapshot(path, &payloads, &error)) << error;
  std::remove(path.c_str());
}

TEST(EvalCache, ConcurrentReadersAndWritersReconcileExactly) {
  // The gtest twin of tests/eval_cache_stress.cpp (which run_tsan.sh runs
  // standalone inside the sanitizer tree): 8 readers on the lock-free path,
  // 2 writers publishing snapshots, and every per-thread hit/miss tally
  // reconciled EXACTLY against the cache's own stats afterwards — a lookup
  // counts once, as a hit or a miss, under any interleaving.
  constexpr int kKeys = 300;
  constexpr int kReaders = 8;
  constexpr int kWriters = 2;
  constexpr int kRounds = 20;
  auto value_of = [](int i) {
    MetricValues v;
    v[MetricKind::kGm] = static_cast<double>(i) * 1.25 + 0.5;
    return v;
  };

  EvalCache cache;
  std::atomic<long> hits{0}, misses{0}, bad_values{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const int lo = w * (kKeys / kWriters);
      for (int i = lo; i < lo + kKeys / kWriters; ++i) {
        cache.insert("k" + std::to_string(i), value_of(i), w);
      }
      // Contended tail: first-writer-wins on identical values.
      for (int i = kKeys - 40; i < kKeys; ++i) {
        cache.insert("k" + std::to_string(i), value_of(i), w);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      long my_hits = 0, my_misses = 0, my_bad = 0;
      MetricValues v;
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kKeys; ++i) {
          if (cache.lookup("k" + std::to_string(i), &v, /*client=*/100)) {
            ++my_hits;
            const double want = static_cast<double>(i) * 1.25 + 0.5;
            const double got = v.at(MetricKind::kGm);
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
  for (std::thread& th : threads) th.join();

  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(hits.load() + misses.load(),
            static_cast<long>(kReaders) * kRounds * kKeys);
  EXPECT_EQ(stats.hits, hits.load());
  EXPECT_EQ(stats.misses, misses.load());
  EXPECT_EQ(bad_values.load(), 0);
  EXPECT_EQ(stats.entries, kKeys);
  // Serial replay: the steady state is a hit on every key, bit-exact.
  for (int i = 0; i < kKeys; ++i) {
    MetricValues v;
    ASSERT_TRUE(cache.lookup("k" + std::to_string(i), &v)) << i;
    const double want = static_cast<double>(i) * 1.25 + 0.5;
    const double got = v.at(MetricKind::kGm);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0) << i;
  }
}

}  // namespace
}  // namespace olp::core
