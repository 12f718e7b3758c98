// Eval-cache tests: the canonical key must distinguish every input an
// evaluation depends on, hits must return bit-identical metrics without new
// simulation, quarantined and budget-cut evaluations must never be memoized
// (so diagnostics re-fire and no job reads another's truncated metrics), the
// cache must be safe to share across TaskPool workers, and a key in flight
// must be simulated once (single flight) with every waiter released however
// its owner ends.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuits/common.hpp"
#include "core/eval_cache.hpp"
#include "core/evaluator.hpp"
#include "pcell/generator.hpp"
#include "util/budget.hpp"
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

// Not "k" + std::to_string(i): GCC 12 at -O3 reports a false -Wrestrict on
// a literal plus a temporary string.
std::string key_of(int i) {
  const std::string key = "k";
  return key + std::to_string(i);
}

pcell::LayoutConfig cfg(int nfin, int nf, int m) {
  pcell::LayoutConfig c;
  c.nfin = nfin;
  c.nf = nf;
  c.m = m;
  return c;
}

/// Spins until some lookup of `cache` waits on a claim; false after 10 s,
/// so a broken claim fails the test instead of hanging it.
bool await_waiter(const EvalCache& cache) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cache.stats().waits == 0) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
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
      std::nextafter(12.5, 13.0);  // shortest to_chars is round-trip exact
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

  // The evaluator serializes its context once; its key must be the full key
  // for every condition.
  const PrimitiveEvaluator eval(t(), nmos, pmos, bias);
  for (const EvalCondition* c : {&cond, &ideal, &tuned, &wired, &mc}) {
    EXPECT_EQ(eval.cache_key(lay, *c),
              EvalCache::make_key(lay, *c, bias, nmos, pmos));
  }

  // A one-ulp change in any model-card field or bias value changes the
  // key, through make_key and through an evaluator built on the change.
  auto ulp = [](double& v) {
    v = std::nextafter(v, std::numeric_limits<double>::infinity());
  };
  auto expect_new_key = [&](const BiasContext& b, const spice::MosModel& n,
                            const spice::MosModel& p, const std::string& what) {
    const std::string key = EvalCache::make_key(lay, cond, b, n, p);
    EXPECT_TRUE(keys.insert(key).second) << what;
    EXPECT_EQ(PrimitiveEvaluator(t(), n, p, b).cache_key(lay, cond), key)
        << what;
  };
  for (const bool pmos_side : {false, true}) {
    int field_index = 0;
    for (double spice::MosModel::*field :
         {&spice::MosModel::vth0, &spice::MosModel::nslope,
          &spice::MosModel::kp, &spice::MosModel::lambda,
          &spice::MosModel::lref, &spice::MosModel::vt_thermal,
          &spice::MosModel::cox, &spice::MosModel::cov, &spice::MosModel::cj,
          &spice::MosModel::cjsw, &spice::MosModel::avt}) {
      spice::MosModel n = nmos;
      spice::MosModel p = pmos;
      ulp((pmos_side ? p : n).*field);
      expect_new_key(bias, n, p,
                     std::string(pmos_side ? "pmos" : "nmos") + " field " +
                         std::to_string(field_index++));
    }
  }
  BiasContext b = bias;
  ulp(b.vdd);
  expect_new_key(b, nmos, pmos, "vdd");
  b = bias;
  ulp(b.bias_current);
  expect_new_key(b, nmos, pmos, "bias_current");
  b = bias;
  ulp(b.port_voltage["ga"]);
  expect_new_key(b, nmos, pmos, "port_voltage");
  b = bias;
  ulp(b.port_load_cap["da"]);
  expect_new_key(b, nmos, pmos, "port_load_cap");
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

TEST(EvalCache, BudgetCutEvaluationsAreNeverCached) {
  // A one-testbench budget trips at the simulator's first check inside the
  // second testbench; every later testbench of the evaluation runs its
  // Newton loops against an exhausted budget. The finite metrics that come
  // back are wrong, so they must not reach the cache, where any job sharing
  // it would read them.
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg(8, 20, 6));
  const EvalCondition cond;

  PrimitiveEvaluator full_eval(t(), circuits::default_nmos(),
                               circuits::default_pmos(), dp_bias());
  EvalCache full_cache;
  full_eval.set_cache(&full_cache);
  const MetricValues full = full_eval.evaluate(lay, cond);
  EXPECT_EQ(full_cache.stats().entries, 1);

  BudgetOptions limits;
  limits.max_testbenches = 1;
  Budget budget(limits);
  PrimitiveEvaluator cut_eval(t(), circuits::default_nmos(),
                              circuits::default_pmos(), dp_bias());
  EvalCache cut_cache;
  cut_eval.set_cache(&cut_cache);
  cut_eval.set_budget(&budget);
  const MetricValues cut = cut_eval.evaluate(lay, cond);

  EXPECT_TRUE(budget.exhausted());
  EXPECT_GT(cut_eval.stats().testbenches, 1);  // the trip came partway
  EXPECT_NE(cut, full);                        // and truncated the metrics
  EXPECT_EQ(cut_cache.stats().entries, 0);
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
    EvalCache::Claim claim;
    ASSERT_TRUE(cache.lookup("key" + std::to_string(i), claim, &v)) << i;
    EXPECT_EQ(v.at(MetricKind::kGm), static_cast<double>(i)) << i;
  }
  MetricValues v;
  EvalCache::Claim claim;
  EXPECT_FALSE(cache.lookup("key200", claim, &v));
}

TEST(EvalCacheBounded, UnboundedDefaultNeverEvicts) {
  // The cache has no capacity bound: every insert stays resident with its
  // own value.
  EvalCache cache(4);
  for (int i = 0; i < 1000; ++i) {
    MetricValues v;
    v[MetricKind::kGain] = static_cast<double>(i);
    cache.insert("key" + std::to_string(i), v);
  }
  EXPECT_EQ(cache.stats().entries, 1000);
  for (int i = 0; i < 1000; ++i) {
    MetricValues v;
    EvalCache::Claim claim;
    ASSERT_TRUE(cache.lookup("key" + std::to_string(i), claim, &v)) << i;
    EXPECT_EQ(v.at(MetricKind::kGain), static_cast<double>(i)) << i;
  }
  EXPECT_EQ(cache.stats().hits, 1000);
  EXPECT_EQ(cache.stats().misses, 0);
}

TEST(EvalCacheSnapshot, LiveEntriesWinOverRestore) {
  // A later write of a key already in the cache neither replaces the live
  // value nor takes over its owner.
  EvalCache cache(2);
  MetricValues live, late;
  live[MetricKind::kGain] = 2.0;
  late[MetricKind::kGain] = 1.0;
  cache.insert("shared", live, /*client=*/7);
  cache.insert("shared", late, /*client=*/3);
  EXPECT_EQ(cache.stats().entries, 1);
  MetricValues got;
  EvalCache::Claim claim;
  ASSERT_TRUE(cache.lookup("shared", claim, &got, /*client=*/3));
  EXPECT_EQ(got.at(MetricKind::kGain), 2.0);  // first writer (live) wins
  EXPECT_EQ(cache.stats().cross_client_hits, 1);  // owner is still 7
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

  // Exactly one entry, simulated once: concurrent misses wait for the one
  // in flight. Every result is bit-identical to the first.
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.hits + stats.misses, static_cast<long>(n));
  EXPECT_EQ(stats.misses, 1);
  PrimitiveEvaluator uncached(t(), circuits::default_nmos(),
                              circuits::default_pmos(), dp_bias());
  (void)uncached.evaluate(lay, EvalCondition{});
  EXPECT_EQ(eval.stats().testbenches, uncached.stats().testbenches);
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

// Single flight: a miss on a key another lookup has claimed waits for the
// claim to end, then reads the entry the owner inserted. Each lookup counts
// once, as the hit or miss it ended as.
TEST(EvalCacheSingleFlight, SecondMissWaitsForTheOwnersInsert) {
  EvalCache cache;
  MetricValues value;
  value[MetricKind::kGm] = 2.5;
  bool hit = false;
  bool owned = true;
  MetricValues got;
  std::thread waiter;
  {
    EvalCache::Claim owner;
    EXPECT_FALSE(cache.lookup("k", owner, nullptr, /*client=*/0));
    EXPECT_TRUE(owner.owned());
    EXPECT_FALSE(owner.waited());
    waiter = std::thread([&] {
      EvalCache::Claim claim;
      hit = cache.lookup("k", claim, &got, /*client=*/1);
      owned = claim.owned();
    });
    EXPECT_TRUE(await_waiter(cache));
    cache.insert("k", value, 0);
  }  // the owner's claim ends here
  waiter.join();

  EXPECT_TRUE(hit);
  EXPECT_FALSE(owned);
  EXPECT_EQ(got, value);
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.waits, 1);
  EXPECT_EQ(stats.cross_client_hits, 1);
}

// An owner that inserts nothing (its evaluation was budget-cut, quarantined
// or threw) still ends its claim; its waiter then evaluates for itself,
// unclaimed, and the key is free for the next lookup to claim.
TEST(EvalCacheSingleFlight, OwnerThatInsertsNothingReleasesItsWaiter) {
  EvalCache cache;
  bool hit = true;
  bool owned = true;
  bool waited = false;
  std::thread waiter;
  {
    EvalCache::Claim owner;
    EXPECT_FALSE(cache.lookup("k", owner, nullptr, 0));
    waiter = std::thread([&] {
      EvalCache::Claim claim;
      hit = cache.lookup("k", claim, nullptr, 1);
      owned = claim.owned();
      waited = claim.waited();
    });
    EXPECT_TRUE(await_waiter(cache));
  }  // the owner's claim ends here, with nothing inserted
  waiter.join();

  EXPECT_FALSE(hit);
  EXPECT_FALSE(owned);
  EXPECT_TRUE(waited);
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.entries, 0);
  EvalCache::Claim next;
  EXPECT_FALSE(cache.lookup("k", next, nullptr, 0));
  EXPECT_TRUE(next.owned());
}

// The same at the evaluator: an evaluation that throws between claiming its
// key and inserting ends the claim on the way out, and the evaluation that
// waited on it simulates for itself and caches the exact uncached values.
TEST(EvalCacheSingleFlight, OwnerThatThrowsReleasesItsWaiters) {
  const pcell::PrimitiveGenerator gen(t());
  const pcell::PrimitiveLayout lay =
      gen.generate(pcell::make_diff_pair(), cfg(8, 20, 6));
  const EvalCondition cond;
  PrimitiveEvaluator uncached(t(), circuits::default_nmos(),
                              circuits::default_pmos(), dp_bias());
  const MetricValues want = uncached.evaluate(lay, cond);

  EvalCache cache;
  PrimitiveEvaluator owner(t(), circuits::default_nmos(),
                           circuits::default_pmos(), dp_bias());
  PrimitiveEvaluator sibling(t(), circuits::default_nmos(),
                             circuits::default_pmos(), dp_bias());
  owner.set_cache(&cache, 0);
  sibling.set_cache(&cache, 1);
  MetricValues got;
  std::thread waiter;
  const pcell::PrimitiveLayout footprint =
      gen.footprint(pcell::make_diff_pair(), cfg(8, 20, 6));
  // The owner's materializer runs while it holds the claim: let the
  // sibling arrive and wait, then fail.
  EXPECT_THROW(
      owner.evaluate(footprint, cond,
                     [&]() -> const pcell::PrimitiveLayout& {
                       waiter = std::thread(
                           [&] { got = sibling.evaluate(lay, cond); });
                       EXPECT_TRUE(await_waiter(cache));
                       throw std::runtime_error("materialization failed");
                     }),
      std::runtime_error);
  waiter.join();

  ASSERT_EQ(got.size(), want.size());
  for (const auto& [kind, value] : want) {
    const double g = got.at(kind);
    EXPECT_EQ(std::memcmp(&g, &value, sizeof(double)), 0) << metric_name(kind);
  }
  EXPECT_EQ(owner.stats().testbenches, 0);
  EXPECT_EQ(sibling.stats().testbenches, uncached.stats().testbenches);
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.waits, 1);
}

TEST(EvalCache, ConcurrentReadersAndWritersReconcileExactly) {
  // The gtest twin of tests/eval_cache_stress.cpp (which run_tsan.sh runs
  // standalone inside the sanitizer tree): 8 readers and 2 writers racing
  // on the same shard mutexes, and every per-thread hit/miss tally
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
        cache.insert(key_of(i), value_of(i), w);
      }
      // Contended tail: first-writer-wins on identical values.
      for (int i = kKeys - 40; i < kKeys; ++i) {
        cache.insert(key_of(i), value_of(i), w);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      long my_hits = 0, my_misses = 0, my_bad = 0;
      MetricValues v;
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kKeys; ++i) {
          EvalCache::Claim claim;
          if (cache.lookup(key_of(i), claim, &v,
                           /*client=*/100)) {
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
    EvalCache::Claim claim;
    ASSERT_TRUE(cache.lookup(key_of(i), claim, &v)) << i;
    const double want = static_cast<double>(i) * 1.25 + 0.5;
    const double got = v.at(MetricKind::kGm);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0) << i;
  }
}

}  // namespace
}  // namespace olp::core
