#include "core/eval_cache.hpp"

#include <cstdio>
#include <functional>
#include <utility>

#include "tech/technology.hpp"
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

EvalCache::EvalCache(std::size_t shards) : shards_(shards == 0 ? 1 : shards) {}

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
  // snapshot's shared_ptr keeps it alive even if a writer concurrently
  // republishes.
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
  if (client >= 0 && entry->owner >= 0 && entry->owner != client) {
    cross_client_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  if (values != nullptr) *values = entry->values;
  return true;
}

void EvalCache::insert(const std::string& key, const MetricValues& values,
                       int client) {
  auto entry = std::make_shared<Entry>();
  entry->key = key;
  entry->values = values;
  entry->owner = client;
  const std::string_view view(entry->key);
  Shard& shard = shard_for(key);
  const auto lock = obs::timed_lock(shard.mu, kCacheWriteLock);
  // First writer wins; try_emplace leaves `entry` untouched on a duplicate.
  if (shard.map.try_emplace(view, std::move(entry)).second) republish(shard);
}

EvalCacheStats EvalCache::stats() const {
  EvalCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.cross_client_hits = cross_client_hits_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.entries += static_cast<long>(shard.map.size());
  }
  return s;
}

}  // namespace olp::core
