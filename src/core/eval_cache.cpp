#include "core/eval_cache.hpp"

#include <charconv>
#include <functional>

#include "util/obs.hpp"

namespace olp::core {

namespace {

/// Contention attribution for the shard mutex (obs::timed_lock): only a
/// failed try-lock reads the clock or records. Reads and writes get separate
/// sites so read waits stay visible next to insert waits.
constexpr obs::LockSite kCacheLookupLock{
    "obs.contention.eval_cache_lookup.contended",
    "obs.contention.eval_cache_lookup.wait_us"};
constexpr obs::LockSite kCacheInsertLock{
    "obs.contention.eval_cache_insert.contended",
    "obs.contention.eval_cache_insert.wait_us"};

/// Shortest round-trip form: distinct doubles never share a string.
void append_double(std::string& out, double value) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
  out += ';';
}

void append_long(std::string& out, long value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
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

std::string EvalCache::context_key(const BiasContext& bias,
                                   const spice::MosModel& nmos,
                                   const spice::MosModel& pmos) {
  std::string key = "b:";
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
  key += "m:";
  append_model(key, nmos);
  append_model(key, pmos);
  return key;
}

std::string EvalCache::make_key(const pcell::PrimitiveLayout& layout,
                                const EvalCondition& condition,
                                std::string_view context) {
  std::string key;
  key.reserve(160 + context.size());

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

  key += context;
  return key;
}

std::string EvalCache::make_key(const pcell::PrimitiveLayout& layout,
                                const EvalCondition& condition,
                                const BiasContext& bias,
                                const spice::MosModel& nmos,
                                const spice::MosModel& pmos) {
  return make_key(layout, condition, context_key(bias, nmos, pmos));
}

EvalCache::Shard& EvalCache::shard_for(const std::string& key) {
  const std::size_t h = std::hash<std::string>{}(key);
  return shards_[h % kShards];
}

bool EvalCache::lookup(const std::string& key, Claim& claim,
                       MetricValues* values, int client) {
  Shard& shard = shard_for(key);
  auto lock = obs::timed_lock(shard.mu, kCacheLookupLock);
  const auto read = [&] {
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) return false;
    hits_.fetch_add(1, std::memory_order_relaxed);
    const Entry& entry = it->second;
    if (client >= 0 && entry.owner >= 0 && entry.owner != client) {
      cross_client_hits_.fetch_add(1, std::memory_order_relaxed);
    }
    if (values != nullptr) *values = entry.values;
    return true;
  };
  if (read()) return true;
  const auto flight = shard.in_flight.find(key);
  if (flight == shard.in_flight.end()) {
    claim.shard_ = &shard;
    claim.key_ = key;
    claim.serial_ = ++shard.next_serial;
    shard.in_flight.emplace(key, claim.serial_);
  } else {
    // Wait for that claim to end, then read again. When its owner inserted
    // nothing, this lookup evaluates for itself, unclaimed.
    const std::uint64_t awaited = flight->second;
    claim.waited_ = true;
    waits_.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t wait_t0 = obs::enabled() ? obs::steady_now_us() : 0;
    shard.released.wait(lock, [&] {
      const auto it = shard.in_flight.find(key);
      return it == shard.in_flight.end() || it->second != awaited;
    });
    if (wait_t0 != 0) {
      obs::counter_add("eval.cache_wait_us", obs::steady_now_us() - wait_t0);
    }
    if (read()) return true;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void EvalCache::Claim::release() {
  if (shard_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(shard_->mu);
    shard_->in_flight.erase(key_);
  }
  shard_->released.notify_all();
  shard_ = nullptr;
}

void EvalCache::insert(const std::string& key, const MetricValues& values,
                       int client) {
  Shard& shard = shard_for(key);
  const auto lock = obs::timed_lock(shard.mu, kCacheInsertLock);
  // First writer wins: try_emplace leaves an existing entry untouched.
  shard.map.try_emplace(key, Entry{values, client});
}

EvalCacheStats EvalCache::stats() const {
  EvalCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.cross_client_hits = cross_client_hits_.load(std::memory_order_relaxed);
  s.waits = waits_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.entries += static_cast<long>(shard.map.size());
  }
  return s;
}

}  // namespace olp::core
