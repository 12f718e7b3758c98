#pragma once
// Memoizing cache for primitive testbench evaluations.
//
// Algorithm 1 tuning sweeps and Algorithm 2 port sweeps re-evaluate
// near-identical conditions constantly — most expensively, the schematic
// reference of a primitive is recomputed for every tuning sweep and every
// port-sweep point. The cache memoizes MetricValues keyed by a canonical
// text serialization of everything an evaluation depends on, in two parts:
//
//   per call (make_key):
//     netlist identity (type, name, per-device connectivity/ratio/vth_offset)
//     + layout configuration (nfin/nf/m/pattern/dummies)
//     + EvalCondition (ideal flag, tuning map, port wire RCs, extra dvth)
//   per evaluator (context_key), appended verbatim:
//     BiasContext (vdd, port voltages, port loads, bias current)
//     + model cards (every MosModel parameter of both flavors)
//
// The context is constant for the life of a PrimitiveEvaluator, which
// serializes it once at construction; a key then costs only the per-call
// part. Doubles are serialized with std::to_chars in shortest round-trip
// form, so two keys are equal iff the evaluations are bit-identical — which
// is what makes cached flows provably deterministic (see
// tests/test_determinism.cpp). The full key string is the map key; the hash
// only selects a shard, so hash collisions are benign by construction.
//
// Concurrency: 16 shards, each a plain map behind its own mutex.
// lookup() and insert() both take the shard mutex; their waits are
// attributed to "obs.contention.eval_cache_lookup.*" and
// "obs.contention.eval_cache_insert.*". Entries are stored by value, never
// change once inserted and live as long as the cache: nothing is evicted.
//
// Single flight: a lookup that misses claims its key into the Claim it was
// given, so it is the one evaluation of that key in flight. A second lookup
// of a claimed key waits for the claim to end, then reads the map again. A
// claim ends when its holder is destroyed (RAII: every exit path, a throw
// included); the evaluator inserts before that. The time lookups spend
// waiting is the counter "eval.cache_wait_us". When the owner inserted
// nothing (its evaluation was budget-cut, quarantined or threw), its waiters
// evaluate for themselves, unclaimed. Each lookup still counts once, as the
// hit or miss it ended as. Waiting is deadlock-free because an evaluation
// never submits pool work or evaluates another key, so an owner never waits
// on anything while it holds a claim.
//
// Entries are only inserted for evaluations with no quarantined metric and
// no exhausted budget (the evaluator enforces both), so diagnostics and
// quarantine accounting stay identical with the cache on or off, and a
// budget-cut evaluation never reaches a job that shares the cache.
//
// Cross-job sharing (circuits/batch): one cache may serve many concurrent
// flow runs. The key does NOT cover the Technology (layer stack, parasitic
// coefficients, LDE constants), so every run that shares a cache must run
// on one technology; the batch runner keeps one cache per batch, and every
// job of a batch runs on the runner's technology. Each sharing run passes a
// small integer `client` id; a hit on an entry inserted by a different
// client is additionally counted as a cross-client hit, which is how the
// batch report attributes testbenches saved by cross-job sharing. Values are
// bit-identical regardless of which client computed them (same key => same
// bits), so sharing preserves per-job determinism.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/evaluator.hpp"

namespace olp::core {

struct EvalCacheStats {
  long hits = 0;
  long misses = 0;
  long entries = 0;
  /// Hits on entries inserted by a different client id (both ids >= 0):
  /// evaluations one flow run saved because another already computed them.
  long cross_client_hits = 0;
  /// Lookups that waited for another evaluation of their key (counted when
  /// the wait starts; the lookup also counts as the hit or miss it ends as).
  long waits = 0;
};

class EvalCache {
  struct Shard;

 public:
  /// A lookup's hold on a key that missed (single flight, see file comment).
  /// Destroying it ends the claim and wakes the key's waiters; insert() the
  /// values before that.
  class Claim {
   public:
    Claim() = default;
    ~Claim() { release(); }
    Claim(const Claim&) = delete;
    Claim& operator=(const Claim&) = delete;

    /// The lookup missed and holds its key.
    bool owned() const { return shard_ != nullptr; }
    /// The lookup waited for another evaluation of its key.
    bool waited() const { return waited_; }

   private:
    friend class EvalCache;
    void release();

    Shard* shard_ = nullptr;
    std::string key_;
    std::uint64_t serial_ = 0;
    bool waited_ = false;
  };

  EvalCache() = default;

  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// The evaluator-constant section of every key: the bias context and
  /// both model cards (see file comment).
  static std::string context_key(const BiasContext& bias,
                                 const spice::MosModel& nmos,
                                 const spice::MosModel& pmos);

  /// Canonical key of one evaluation: the per-call fields of `layout` and
  /// `condition`, followed by `context` (a context_key() result).
  static std::string make_key(const pcell::PrimitiveLayout& layout,
                              const EvalCondition& condition,
                              std::string_view context);

  /// The same key, serializing the context on the spot.
  static std::string make_key(const pcell::PrimitiveLayout& layout,
                              const EvalCondition& condition,
                              const BiasContext& bias,
                              const spice::MosModel& nmos,
                              const spice::MosModel& pmos);

  /// Copies the cached metrics into *values and returns true on a hit.
  /// Counts a hit/miss either way; a hit on another client's entry also
  /// counts toward cross_client_hits when both ids are >= 0. Single flight
  /// (see file comment): a miss on a key in flight waits for that
  /// evaluation and reads again, and a miss on a key nobody holds claims it
  /// into `claim`, which must be fresh; insert() before it is destroyed.
  bool lookup(const std::string& key, Claim& claim, MetricValues* values,
              int client = -1);

  /// Inserts (first writer wins; a racing duplicate insert is a no-op —
  /// both writers computed bit-identical values from the same key). The
  /// winning writer's `client` id is recorded as the entry's owner.
  void insert(const std::string& key, const MetricValues& values,
              int client = -1);

  EvalCacheStats stats() const;

 private:
  /// One cached evaluation.
  struct Entry {
    MetricValues values;
    int owner = -1;  ///< client id of the inserting run
  };

  struct Shard {
    mutable std::mutex mu;  ///< guards map, in_flight and next_serial
    std::unordered_map<std::string, Entry> map;
    /// Claimed keys, each with its claim's serial number.
    std::unordered_map<std::string, std::uint64_t> in_flight;
    std::uint64_t next_serial = 0;
    std::condition_variable released;  ///< notified when a claim ends
  };
  Shard& shard_for(const std::string& key);

  static constexpr std::size_t kShards = 16;
  std::array<Shard, kShards> shards_;
  std::atomic<long> hits_{0};
  std::atomic<long> misses_{0};
  std::atomic<long> cross_client_hits_{0};
  std::atomic<long> waits_{0};
};

}  // namespace olp::core
