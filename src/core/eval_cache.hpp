#pragma once
// Memoizing cache for primitive testbench evaluations.
//
// Algorithm 1 tuning sweeps and Algorithm 2 port sweeps re-evaluate
// near-identical conditions constantly — most expensively, the schematic
// reference of a primitive is recomputed for every tuning sweep and every
// port-sweep point. The cache memoizes MetricValues keyed by a canonical
// text serialization of everything an evaluation depends on:
//
//   netlist identity (type, name, per-device connectivity/ratio/vth_offset)
//   + layout configuration (nfin/nf/m/pattern/dummies)
//   + EvalCondition (ideal flag, tuning map, port wire RCs, extra dvth)
//   + BiasContext (vdd, port voltages, port loads, bias current)
//   + model cards (every MosModel parameter of both flavors)
//
// Doubles are serialized with %.17g (round-trip exact), so two keys are
// equal iff the evaluations are bit-identical — which is what makes cached
// flows provably deterministic (see tests/test_determinism.cpp). The full
// key string is the map key; the hash only selects a shard, so hash
// collisions are benign by construction.
//
// Concurrency: sharded, with an RCU-style lock-free read path. Each shard
// keeps an authoritative map guarded by its mutex (writers only) and
// publishes an immutable snapshot index through an atomic shared_ptr.
// lookup() loads the published snapshot and searches it — it NEVER takes
// the shard mutex, so cache hits from concurrent TaskPool workers cost no
// lock traffic at all. Writer-side waits on the shard mutex are attributed
// to "obs.contention.eval_cache_insert.*".
// Writers insert into the authoritative map under the mutex, then publish
// a fresh snapshot; a reader holding an older snapshot keeps it alive
// through its shared_ptr, which is the entire retire protocol — a replaced
// snapshot is freed when its last reader drops it. Entries are immutable
// after publication and live as long as the cache: nothing is evicted.
//
// Entries are only inserted for evaluations with no quarantined metric
// (the evaluator enforces this), so diagnostics and quarantine accounting
// stay identical with the cache on or off.
//
// Cross-job sharing (circuits/batch): one cache may serve many concurrent
// flow runs. The key does NOT cover the Technology (layer stack, parasitic
// coefficients, LDE constants), so a shared cache must be scoped to one
// technology + model-card combination — scope_key() fingerprints that
// combination, and the batch runner keeps one cache per distinct scope.
// Each sharing run passes a small integer `client` id; a hit on an entry
// inserted by a different client is additionally counted as a cross-client
// hit, which is how the batch report attributes testbenches saved by
// cross-job sharing. Values are bit-identical regardless of which client
// computed them (same key => same bits), so sharing preserves per-job
// determinism.

#include <atomic>
#include <cstddef>
#include <memory>
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
};

class EvalCache {
 public:
  explicit EvalCache(std::size_t shards = 16);

  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// Canonical key of one evaluation (see file comment for the fields).
  static std::string make_key(const pcell::PrimitiveLayout& layout,
                              const EvalCondition& condition,
                              const BiasContext& bias,
                              const spice::MosModel& nmos,
                              const spice::MosModel& pmos);

  /// Fingerprint of everything an evaluation depends on that make_key does
  /// NOT cover: the technology (name + the physical parameters that shape
  /// layouts and parasitics) and the model cards. Two flow runs may share
  /// one cache iff their scope keys are equal.
  static std::string scope_key(const tech::Technology& technology,
                               const spice::MosModel& nmos,
                               const spice::MosModel& pmos);

  /// Copies the cached metrics into *values and returns true on a hit.
  /// Counts a hit/miss either way; a hit on another client's entry also
  /// counts toward cross_client_hits when both ids are >= 0. Lock-free.
  bool lookup(const std::string& key, MetricValues* values, int client = -1);

  /// Inserts (first writer wins; a racing duplicate insert is a no-op —
  /// both writers computed bit-identical values from the same key). The
  /// winning writer's `client` id is recorded as the entry's owner.
  void insert(const std::string& key, const MetricValues& values,
              int client = -1);

  EvalCacheStats stats() const;

 private:
  /// One cached evaluation. Heap-allocated and immutable once published,
  /// so readers can use it without synchronization.
  struct Entry {
    std::string key;  ///< owns the bytes every index string_view points at
    MetricValues values;
    int owner = -1;  ///< client id of the inserting run
  };
  using EntryPtr = std::shared_ptr<const Entry>;
  /// Snapshot index: keys view into their entry's own key string.
  using Index = std::unordered_map<std::string_view, EntryPtr>;

  struct Shard {
    mutable std::mutex mu;  ///< writers and stats
    Index map;              ///< authoritative state (guarded by mu)
    /// Immutable copy of `map` for lock-free readers; replaced wholesale
    /// after every insert. Null until the first publish (== empty).
    /// NOTE: libstdc++'s std::atomic<shared_ptr> (_Sp_atomic) trips a
    /// ThreadSanitizer false positive — its reader side unlocks the
    /// embedded spinlock bit with a relaxed RMW, which is correct on
    /// hardware but invisible to happens-before analysis (GCC PR 104602).
    /// tests/run_tsan.sh suppresses `race:_Sp_atomic` for exactly this.
    std::atomic<std::shared_ptr<const Index>> published;
  };
  Shard& shard_for(const std::string& key);
  /// Rebuilds and publishes the read snapshot from the authoritative map.
  /// Requires shard.mu held.
  static void republish(Shard& shard);

  std::vector<Shard> shards_;
  std::atomic<long> hits_{0};
  std::atomic<long> misses_{0};
  std::atomic<long> cross_client_hits_{0};
};

}  // namespace olp::core
