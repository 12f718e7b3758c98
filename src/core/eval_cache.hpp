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
// a fresh snapshot; readers holding an older snapshot keep every entry in
// it alive through the shared_ptr refcounts, which is the entire retire
// protocol — an evicted entry is freed when the last snapshot referencing
// it drops. Entries are immutable after publication except for an atomic
// CLOCK reference bit.
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
#include <map>
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
  /// Entries evicted to respect the capacity bound (0 when unbounded).
  long evictions = 0;
  /// Configured capacity; 0 = unbounded.
  long capacity = 0;
  /// Hits on entries that came from a snapshot restore rather than a live
  /// insert — the evidence that a restart actually warm-started.
  long restored_hits = 0;
};

struct EvalCacheOptions {
  std::size_t shards = 16;
  /// Maximum total entries across shards; 0 (the default) keeps the original
  /// unbounded behavior — required for the bit-identity determinism tests,
  /// since eviction makes hit patterns depend on insertion order. The
  /// resident service always sets a bound: an unbounded warm cache is a slow
  /// memory leak under sustained traffic.
  std::size_t max_entries = 0;
};

class EvalCache {
 public:
  explicit EvalCache(std::size_t shards = 16);
  explicit EvalCache(const EvalCacheOptions& options);

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
  void clear();

  /// Serializes every entry into a self-contained binary payload (native
  /// byte order — snapshots are machine-local warm-start state, not an
  /// interchange format). Doubles are stored as raw bits, so a restored
  /// entry is bit-identical to the entry that was saved.
  std::string serialize_entries() const;

  /// Restores entries from a serialize_entries() payload into this cache
  /// (first writer wins against anything already present; restored entries
  /// carry owner -1, so later hits never count as cross-client). A
  /// malformed/truncated payload restores NOTHING — the cache is left
  /// exactly as it was — and returns false with *error set.
  bool restore_entries(const std::string& payload,
                       std::string* error = nullptr);

 private:
  /// One cached evaluation. Heap-allocated and immutable after it is
  /// published (the CLOCK bit is the one atomic exception), so readers can
  /// use it without synchronization; the owning shared_ptr — held by the
  /// authoritative map, every published snapshot index, and any in-flight
  /// reader — is what retires it safely after eviction.
  struct Entry {
    std::string key;  ///< owns the bytes every index string_view points at
    MetricValues values;
    int owner = -1;        ///< client id of the inserting run
    bool restored = false;  ///< entry came from restore_entries()
    mutable std::atomic<bool> referenced{false};  ///< CLOCK bit, set on hit
  };
  using EntryPtr = std::shared_ptr<const Entry>;
  /// Snapshot index: keys view into their entry's own key string.
  using Index = std::unordered_map<std::string_view, EntryPtr>;

  struct Shard {
    mutable std::mutex mu;  ///< writers, stats, snapshot serialization
    Index map;              ///< authoritative state (guarded by mu)
    /// Immutable copy of `map` for lock-free readers; replaced wholesale
    /// after every mutation. Null until the first publish (== empty).
    /// NOTE: libstdc++'s std::atomic<shared_ptr> (_Sp_atomic) trips a
    /// ThreadSanitizer false positive — its reader side unlocks the
    /// embedded spinlock bit with a relaxed RMW, which is correct on
    /// hardware but invisible to happens-before analysis (GCC PR 104602).
    /// tests/run_tsan.sh suppresses `race:_Sp_atomic` for exactly this.
    std::atomic<std::shared_ptr<const Index>> published;
    /// Keys in insertion order; the CLOCK ring evictions sweep. Slots view
    /// into live entries' keys and are reused in place on eviction.
    std::vector<std::string_view> ring;
    std::size_t hand = 0;  ///< next ring slot the sweep examines
  };
  Shard& shard_for(const std::string& key);
  /// Inserts into `shard` (mutex held by caller), evicting via second
  /// chance when the shard is at capacity. Returns false when the key was
  /// already present (first writer wins). Does NOT republish.
  bool insert_locked(Shard& shard, EntryPtr entry);
  /// Rebuilds and publishes the read snapshot from the authoritative map.
  /// Requires shard.mu held.
  static void republish(Shard& shard);

  std::vector<Shard> shards_;
  std::size_t per_shard_cap_ = 0;  ///< 0 = unbounded
  std::size_t max_entries_ = 0;
  std::atomic<long> hits_{0};
  std::atomic<long> misses_{0};
  std::atomic<long> cross_client_hits_{0};
  std::atomic<long> evictions_{0};
  std::atomic<long> restored_hits_{0};
};

/// Versioned, checksummed, crash-safe snapshot of a SET of caches keyed by
/// their scope fingerprint (EvalCache::scope_key) — the on-disk warm-start
/// state of the batch/service cache pool.
///
/// Format: magic+version header, scope count, then per scope the scope key
/// and its serialize_entries() payload, finally an FNV-1a checksum over
/// everything after the header. save writes "<path>.tmp" and renames, so a
/// crash mid-save never clobbers the previous snapshot; load verifies
/// length and checksum before touching any cache, so a truncated or
/// bit-flipped file is reported as a failure (cold start) rather than a
/// crash or a partially-restored cache. Both directions draw at
/// FaultSite::kSnapshotIo, making I/O failure deterministically injectable.
bool save_cache_snapshot(
    const std::string& path,
    const std::map<std::string, const EvalCache*>& caches,
    std::string* error = nullptr);

/// Reads a snapshot into scope -> payload (feed each payload to
/// EvalCache::restore_entries on a cache for that scope). Returns false —
/// with *error and an empty map — when the file is missing, truncated,
/// corrupt, or of an unknown version.
bool load_cache_snapshot(const std::string& path,
                         std::map<std::string, std::string>* scope_payloads,
                         std::string* error = nullptr);

}  // namespace olp::core
