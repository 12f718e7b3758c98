#include "core/eval_cache.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <utility>

#include "tech/technology.hpp"
#include "util/faults.hpp"
#include "util/obs.hpp"

namespace olp::core {

namespace {

/// Contention attribution for the shard mutex (obs::timed_lock): only a
/// failed try-lock reads the clock or records. Only writers (inserts) take
/// the mutex; the read path is lock-free.
constexpr obs::LockSite kCacheWriteLock{
    "obs.contention.eval_cache_insert.contended",
    "obs.contention.eval_cache_insert.wait_us"};

void append_double(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
  out += ';';
}

void append_long(std::string& out, long value) {
  out += std::to_string(value);
  out += ';';
}

void append_str(std::string& out, const std::string& value) {
  out += value;
  out += ';';
}

void append_model(std::string& out, const spice::MosModel& m) {
  append_str(out, m.name);
  append_long(out, static_cast<long>(m.type));
  append_double(out, m.vth0);
  append_double(out, m.nslope);
  append_double(out, m.kp);
  append_double(out, m.lambda);
  append_double(out, m.lref);
  append_double(out, m.vt_thermal);
  append_double(out, m.cox);
  append_double(out, m.cov);
  append_double(out, m.cj);
  append_double(out, m.cjsw);
  append_double(out, m.avt);
}

}  // namespace

EvalCache::EvalCache(std::size_t shards)
    : EvalCache(EvalCacheOptions{shards, 0}) {}

EvalCache::EvalCache(const EvalCacheOptions& options)
    : shards_(options.shards == 0 ? 1 : options.shards),
      max_entries_(options.max_entries) {
  if (max_entries_ > 0) {
    // Ceiling split so the shard caps sum to >= max_entries (never starving
    // a shard to zero); total occupancy may exceed max_entries by at most
    // shards-1 entries, which is the documented contract of a sharded bound.
    per_shard_cap_ = (max_entries_ + shards_.size() - 1) / shards_.size();
    if (per_shard_cap_ == 0) per_shard_cap_ = 1;
  }
}

std::string EvalCache::make_key(const pcell::PrimitiveLayout& layout,
                                const EvalCondition& condition,
                                const BiasContext& bias,
                                const spice::MosModel& nmos,
                                const spice::MosModel& pmos) {
  std::string key;
  key.reserve(256);

  // Netlist identity. Layout generation is deterministic in (netlist,
  // config), so these two sections pin down the realized geometry, the
  // parasitic annotation and the LDE shifts without walking the geometry.
  const pcell::PrimitiveNetlist& nl = layout.netlist;
  key += "n:";
  append_long(key, static_cast<long>(nl.type));
  append_str(key, nl.name);
  for (const pcell::LogicalDevice& dev : nl.devices) {
    append_str(key, dev.name);
    append_long(key, static_cast<long>(dev.mos_type));
    append_str(key, dev.drain_net);
    append_str(key, dev.gate_net);
    append_str(key, dev.source_net);
    append_long(key, dev.unit_ratio);
    append_long(key, dev.match_group);
    append_double(key, dev.vth_offset);
  }

  // Layout configuration (explicit fields; robust against to_string drift).
  const pcell::LayoutConfig& cfg = layout.config;
  key += "c:";
  append_long(key, cfg.nfin);
  append_long(key, cfg.nf);
  append_long(key, cfg.m);
  append_long(key, static_cast<long>(cfg.pattern));
  append_long(key, cfg.dummies ? 1 : 0);

  // Evaluation condition. Maps iterate in key order, so serialization is
  // canonical.
  key += "e:";
  append_long(key, condition.ideal ? 1 : 0);
  for (const auto& [terminal, wires] : condition.tuning) {
    append_str(key, terminal);
    append_long(key, wires);
  }
  key += "w:";
  for (const auto& [port, rc] : condition.port_wires) {
    append_str(key, port);
    append_double(key, rc.resistance);
    append_double(key, rc.capacitance);
  }
  key += "d:";
  for (const auto& [device, dvth] : condition.extra_dvth) {
    append_str(key, device);
    append_double(key, dvth);
  }

  // Bias context.
  key += "b:";
  append_double(key, bias.vdd);
  append_double(key, bias.bias_current);
  for (const auto& [port, v] : bias.port_voltage) {
    append_str(key, port);
    append_double(key, v);
  }
  key += "l:";
  for (const auto& [port, c] : bias.port_load_cap) {
    append_str(key, port);
    append_double(key, c);
  }

  // Model cards.
  key += "m:";
  append_model(key, nmos);
  append_model(key, pmos);
  return key;
}

std::string EvalCache::scope_key(const tech::Technology& technology,
                                 const spice::MosModel& nmos,
                                 const spice::MosModel& pmos) {
  std::string key;
  key.reserve(256);
  // Technology identity: the name plus the physical parameters that shape
  // generated layouts, parasitic annotation and LDE shifts. Two techs that
  // differ in any of these must not share evaluations.
  key += "t:";
  append_str(key, technology.name);
  append_double(key, technology.fin_pitch);
  append_double(key, technology.poly_pitch);
  append_double(key, technology.fin_width_eff);
  append_double(key, technology.gate_length);
  append_double(key, technology.diff_extension);
  append_double(key, technology.row_height);
  append_double(key, technology.diff_cont_res);
  append_double(key, technology.diff_sheet_res);
  append_double(key, technology.poly_res_sheet);
  append_double(key, technology.poly_res_cap);
  append_double(key, technology.via_res);
  append_double(key, technology.via_cap);
  append_double(key, technology.vdd);
  key += "m:";
  append_model(key, nmos);
  append_model(key, pmos);
  return key;
}

EvalCache::Shard& EvalCache::shard_for(const std::string& key) {
  const std::size_t h = std::hash<std::string>{}(key);
  return shards_[h % shards_.size()];
}

void EvalCache::republish(Shard& shard) {
  shard.published.store(std::make_shared<const Index>(shard.map),
                        std::memory_order_release);
}

bool EvalCache::lookup(const std::string& key, MetricValues* values,
                       int client) {
  // RCU read: load the published snapshot and search it. No mutex; the
  // snapshot's shared_ptr keeps every entry it references alive even if a
  // writer concurrently evicts and republishes.
  const std::shared_ptr<const Index> index =
      shard_for(key).published.load(std::memory_order_acquire);
  const Entry* entry = nullptr;
  if (index != nullptr) {
    const auto it = index->find(std::string_view(key));
    if (it != index->end()) entry = it->second.get();
  }
  if (entry == nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  entry->referenced.store(true,
                          std::memory_order_relaxed);  // CLOCK second chance
  if (entry->restored) {
    restored_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  if (client >= 0 && entry->owner >= 0 && entry->owner != client) {
    cross_client_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  if (values != nullptr) *values = entry->values;
  return true;
}

bool EvalCache::insert_locked(Shard& shard, EntryPtr entry) {
  const std::string_view key(entry->key);
  if (shard.map.count(key) != 0) return false;  // first writer wins
  if (per_shard_cap_ == 0) {
    // Unbounded (the deterministic default): no ring bookkeeping.
    shard.map.emplace(key, std::move(entry));
    return true;
  }
  if (shard.map.size() >= per_shard_cap_) {
    // CLOCK second-chance sweep: entries hit since the hand last passed get
    // their bit cleared and survive one more lap; the first cold entry is
    // evicted and its ring slot reused. Terminates within two laps (after
    // one full lap every bit is clear). Erasing from the authoritative map
    // does not free the entry while any published snapshot (or reader)
    // still holds it — the shared_ptr refcount IS the retire protocol.
    while (true) {
      if (shard.hand >= shard.ring.size()) shard.hand = 0;
      const auto victim = shard.map.find(shard.ring[shard.hand]);
      if (victim == shard.map.end()) {
        // Stale slot (shouldn't happen outside clear(), but stay safe).
        shard.ring[shard.hand] = key;
        ++shard.hand;
        break;
      }
      if (victim->second->referenced.load(std::memory_order_relaxed)) {
        victim->second->referenced.store(false, std::memory_order_relaxed);
        ++shard.hand;
        continue;
      }
      shard.map.erase(victim);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      shard.ring[shard.hand] = key;
      ++shard.hand;
      break;
    }
  } else {
    shard.ring.push_back(key);
  }
  shard.map.emplace(key, std::move(entry));
  return true;
}

void EvalCache::insert(const std::string& key, const MetricValues& values,
                       int client) {
  auto entry = std::make_shared<Entry>();
  entry->key = key;
  entry->values = values;
  entry->owner = client;
  Shard& shard = shard_for(key);
  const auto lock = obs::timed_lock(shard.mu, kCacheWriteLock);
  if (insert_locked(shard, std::move(entry))) republish(shard);
}

EvalCacheStats EvalCache::stats() const {
  EvalCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.cross_client_hits = cross_client_hits_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.restored_hits = restored_hits_.load(std::memory_order_relaxed);
  s.capacity = static_cast<long>(max_entries_);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.entries += static_cast<long>(shard.map.size());
  }
  return s;
}

void EvalCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
    shard.ring.clear();
    shard.hand = 0;
    republish(shard);
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  cross_client_hits_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  restored_hits_.store(0, std::memory_order_relaxed);
}

namespace {

// -- Snapshot plumbing: length-prefixed native-endian binary records. ------

void put_u64(std::string& out, std::uint64_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

void put_u32(std::string& out, std::uint32_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

/// Cursor over a read-only byte buffer; every get_* checks bounds so a
/// truncated payload fails cleanly instead of reading past the end.
struct Cursor {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;

  bool get_u64(std::uint64_t* v) {
    if (pos + sizeof *v > size) return false;
    std::memcpy(v, data + pos, sizeof *v);
    pos += sizeof *v;
    return true;
  }
  bool get_u32(std::uint32_t* v) {
    if (pos + sizeof *v > size) return false;
    std::memcpy(v, data + pos, sizeof *v);
    pos += sizeof *v;
    return true;
  }
  bool get_bytes(std::size_t n, std::string* out) {
    if (pos + n > size) return false;
    out->assign(data + pos, n);
    pos += n;
    return true;
  }
};

std::uint64_t fnv1a64(const char* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr char kSnapshotMagic[8] = {'O', 'L', 'P', 'E', 'V', 'C', 1, '\n'};

void snapshot_fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

}  // namespace

std::string EvalCache::serialize_entries() const {
  std::string out;
  std::uint64_t count = 0;
  std::string body;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.map) {
      put_u32(body, static_cast<std::uint32_t>(key.size()));
      body.append(key.data(), key.size());
      put_u32(body, static_cast<std::uint32_t>(entry->values.size()));
      for (const auto& [kind, value] : entry->values) {
        put_u32(body, static_cast<std::uint32_t>(kind));
        std::uint64_t bits;
        static_assert(sizeof bits == sizeof value);
        std::memcpy(&bits, &value, sizeof bits);
        put_u64(body, bits);
      }
      ++count;
    }
  }
  put_u64(out, count);
  out += body;
  return out;
}

bool EvalCache::restore_entries(const std::string& payload,
                                std::string* error) {
  // Decode fully into a staging list first: a payload that turns out to be
  // malformed halfway through must not leave half its entries behind.
  Cursor cur{payload.data(), payload.size()};
  std::uint64_t count = 0;
  if (!cur.get_u64(&count)) {
    snapshot_fail(error, "cache payload truncated (missing entry count)");
    return false;
  }
  std::vector<std::pair<std::string, MetricValues>> staged;
  staged.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint32_t key_len = 0;
    std::string key;
    std::uint32_t n_metrics = 0;
    if (!cur.get_u32(&key_len) || !cur.get_bytes(key_len, &key) ||
        !cur.get_u32(&n_metrics)) {
      snapshot_fail(error, "cache payload truncated in entry " +
                               std::to_string(i));
      return false;
    }
    MetricValues values;
    for (std::uint32_t m = 0; m < n_metrics; ++m) {
      std::uint32_t kind = 0;
      std::uint64_t bits = 0;
      if (!cur.get_u32(&kind) || !cur.get_u64(&bits)) {
        snapshot_fail(error, "cache payload truncated in entry " +
                                 std::to_string(i));
        return false;
      }
      double value;
      std::memcpy(&value, &bits, sizeof value);
      values[static_cast<MetricKind>(kind)] = value;
    }
    staged.emplace_back(std::move(key), std::move(values));
  }
  if (cur.pos != cur.size) {
    snapshot_fail(error, "cache payload has trailing bytes");
    return false;
  }
  // Apply, republishing each shard once at the end rather than per entry (a
  // warm restore of N entries would otherwise rebuild the snapshot N times).
  std::vector<Shard*> dirty;
  for (auto& [key, values] : staged) {
    auto entry = std::make_shared<Entry>();
    entry->key = std::move(key);
    entry->values = std::move(values);
    entry->owner = -1;
    entry->restored = true;
    Shard& shard = shard_for(entry->key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (insert_locked(shard, std::move(entry)) &&
        (dirty.empty() || dirty.back() != &shard)) {
      dirty.push_back(&shard);
    }
  }
  for (Shard* shard : dirty) {
    std::lock_guard<std::mutex> lock(shard->mu);
    republish(*shard);
  }
  return true;
}

bool save_cache_snapshot(const std::string& path,
                         const std::map<std::string, const EvalCache*>& caches,
                         std::string* error) {
  if (FaultInjector::global().should_fail(FaultSite::kSnapshotIo)) {
    snapshot_fail(error, "injected snapshot I/O fault (save)");
    return false;
  }
  std::string body;
  put_u64(body, caches.size());
  for (const auto& [scope, cache] : caches) {
    put_u64(body, scope.size());
    body += scope;
    const std::string payload = cache->serialize_entries();
    put_u64(body, payload.size());
    body += payload;
  }
  std::string doc(kSnapshotMagic, sizeof kSnapshotMagic);
  doc += body;
  put_u64(doc, fnv1a64(body.data(), body.size()));

  // Write-then-rename: a crash (or kill -9) mid-write leaves "<path>.tmp"
  // garbage but never a half-written snapshot under the real name.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out || !out.write(doc.data(), static_cast<std::streamsize>(doc.size()))) {
      snapshot_fail(error, "cannot write " + tmp);
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    snapshot_fail(error, "cannot rename " + tmp + " to " + path);
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool load_cache_snapshot(const std::string& path,
                         std::map<std::string, std::string>* scope_payloads,
                         std::string* error) {
  scope_payloads->clear();
  if (FaultInjector::global().should_fail(FaultSite::kSnapshotIo)) {
    snapshot_fail(error, "injected snapshot I/O fault (load)");
    return false;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    snapshot_fail(error, "cannot open " + path);
    return false;
  }
  in.seekg(0, std::ios::end);
  const std::streamoff len = in.tellg();
  if (len < 0) {
    snapshot_fail(error, "cannot stat " + path);
    return false;
  }
  std::string doc(static_cast<std::size_t>(len), '\0');
  in.seekg(0);
  if (!in.read(doc.data(), len)) {
    snapshot_fail(error, "cannot read " + path);
    return false;
  }
  if (doc.size() < sizeof kSnapshotMagic + sizeof(std::uint64_t)) {
    snapshot_fail(error, "snapshot truncated (shorter than header)");
    return false;
  }
  if (std::memcmp(doc.data(), kSnapshotMagic, sizeof kSnapshotMagic) != 0) {
    snapshot_fail(error, "snapshot magic/version mismatch");
    return false;
  }
  const std::size_t body_size =
      doc.size() - sizeof kSnapshotMagic - sizeof(std::uint64_t);
  const char* body = doc.data() + sizeof kSnapshotMagic;
  std::uint64_t stored_sum = 0;
  std::memcpy(&stored_sum, doc.data() + doc.size() - sizeof stored_sum,
              sizeof stored_sum);
  if (fnv1a64(body, body_size) != stored_sum) {
    snapshot_fail(error, "snapshot checksum mismatch (truncated or corrupt)");
    return false;
  }
  Cursor cur{body, body_size};
  std::uint64_t scopes = 0;
  if (!cur.get_u64(&scopes)) {
    snapshot_fail(error, "snapshot truncated (missing scope count)");
    return false;
  }
  std::map<std::string, std::string> result;
  for (std::uint64_t i = 0; i < scopes; ++i) {
    std::uint64_t scope_len = 0;
    std::string scope;
    std::uint64_t payload_len = 0;
    std::string payload;
    if (!cur.get_u64(&scope_len) ||
        !cur.get_bytes(static_cast<std::size_t>(scope_len), &scope) ||
        !cur.get_u64(&payload_len) ||
        !cur.get_bytes(static_cast<std::size_t>(payload_len), &payload)) {
      snapshot_fail(error, "snapshot truncated in scope " + std::to_string(i));
      return false;
    }
    result[std::move(scope)] = std::move(payload);
  }
  if (cur.pos != cur.size) {
    snapshot_fail(error, "snapshot has trailing bytes");
    return false;
  }
  *scope_payloads = std::move(result);
  return true;
}

}  // namespace olp::core
