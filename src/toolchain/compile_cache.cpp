#include "toolchain/compile_cache.h"

#include <cstdio>
#include <utility>

#include "obs/session.h"
#include "toolchain/semantics_rules.h"

namespace flit::toolchain {

namespace {

/// The one fleet-wide eviction counter (every cache instance feeds it, as
/// with cache.hits/cache.misses).  Incremented once *per evicted entry* --
/// historically it only moved on wholesale clear()s, which under-counted
/// any policy that removes entries one group at a time.
obs::Counter& evicted_counter() {
  static obs::Counter& c = obs::metrics().counter("cache.evicted");
  return c;
}

}  // namespace

std::uint64_t approx_object_bytes(const ObjectFile& obj) {
  // Deterministic content-derived footprint: fixed per-record charges plus
  // the variable-length payloads.  The constants approximate the in-memory
  // cost of each record (object + hash-map overhead) without depending on
  // allocator or padding details.
  std::uint64_t b = 64 + obj.source_file.size() + obj.comp.flag.size() +
                    obj.comp.compiler.name.size();
  for (const SymbolDef& s : obj.symbols) b += 48 + s.name.size();
  b += 8 * obj.internal_fns.size();
  b += 96 * obj.bindings.size();
  return b;
}

std::uint64_t CompilationCache::fingerprint(const Compilation& c, bool fpic) {
  const fpsem::FpSemantics s = derive_semantics(c);
  const fpsem::CostFactors k = derive_cost(c);
  // The %a renderings keep the cost doubles exact; every semantics field
  // participates so that fingerprint equality implies binding equality.
  char buf[160];
  std::snprintf(buf, sizeof buf, "%d|%d|%d|%d|%d|%d|%d|%a|%a",
                static_cast<int>(s.contract_fma), s.reassoc_width,
                static_cast<int>(s.extended_precision),
                static_cast<int>(s.unsafe_math),
                static_cast<int>(s.flush_subnormals),
                static_cast<int>(s.fast_libm), static_cast<int>(s.exploits_ub),
                k.time_scale, k.bulk_scale);
  std::string material = buf;
  if (fpic) {
    // inlining_carries_variability() hashes the raw compilation string, so
    // -fPIC bindings are only shareable between textually equal triples.
    material += '|';
    material += c.str();
  }
  return stable_hash(material);
}

std::vector<CompilationCache::ObjectPtr> CompilationCache::intern(
    const SetKey& key, std::uint64_t group, std::size_t first,
    std::size_t count, const Builder& build) {
  // Fleet-wide counters: every cache instance (one per shard in the
  // distributed engine) feeds the same registry, so the global totals are
  // the sum the aggregate report prints.  Handles are stable across
  // MetricsRegistry::reset(), so resolving them once is safe.
  static obs::Counter& obs_hits = obs::metrics().counter("cache.hits");
  static obs::Counter& obs_misses = obs::metrics().counter("cache.misses");

  std::vector<ObjectPtr> out;
  out.reserve(count);
  std::uint64_t hits = 0;
  std::unique_lock lock(mu_);
  auto set = sets_.find(key);
  for (std::size_t file = first; file < first + count; ++file) {
    if (set != sets_.end() && file < set->second.slots.size() &&
        set->second.slots[file].obj != nullptr) {
      ++stats_.hits;
      ++hits;
      // Refreshing the most recent group again is a no-op; skip its
      // lookup (a run of hits refreshes one group once).
      if (lru_.empty() || lru_.back() != group) touch_group_locked(group);
      out.push_back(set->second.slots[file].obj);
      continue;
    }
    // Build outside the lock: compilations are the expensive part and two
    // threads racing to build the same key is rarer than serializing every
    // builder behind one mutex.
    lock.unlock();
    auto built = std::make_shared<const ObjectFile>(build(file));
    lock.lock();
    ++stats_.misses;
    obs_misses.add();
    // The set may be new, and clear() may have run while the lock was
    // released, so look it up again.
    set = sets_.try_emplace(key).first;
    std::vector<Slot>& slots = set->second.slots;
    if (slots.size() <= file) slots.resize(file + 1);
    Slot& slot = slots[file];
    touch_group_locked(group);
    if (slot.obj != nullptr) {
      out.push_back(slot.obj);  // another thread won the race
      continue;
    }
    slot.obj = built;
    slot.bytes = approx_object_bytes(*built);
    ++resident_entries_;
    stats_.inserted_bytes += slot.bytes;
    resident_bytes_ += slot.bytes;
    groups_[group].slots.emplace_back(&set->second, file);
    out.push_back(std::move(built));
    evict_to_budget_locked();
  }
  lock.unlock();
  obs_hits.add(hits);
  return out;
}

CompilationCache::Stats CompilationCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void CompilationCache::clear() {
  std::lock_guard lock(mu_);
  evicted_counter().add(resident_entries_);
  sets_.clear();
  resident_entries_ = 0;
  groups_.clear();
  lru_.clear();
  resident_bytes_ = 0;
  stats_ = Stats{};  // a clear resets the tallies too (a fresh cache)
}

void CompilationCache::set_budget(std::optional<std::uint64_t> bytes) {
  std::lock_guard lock(mu_);
  budget_ = bytes;
  evict_to_budget_locked();
}

std::uint64_t CompilationCache::resident_bytes() const {
  std::lock_guard lock(mu_);
  return resident_bytes_;
}

std::size_t CompilationCache::resident_entries() const {
  std::lock_guard lock(mu_);
  return resident_entries_;
}

void CompilationCache::touch_group_locked(std::uint64_t group) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    lru_.push_back(group);
    GroupInfo info;
    info.lru_pos = std::prev(lru_.end());
    groups_.emplace(group, std::move(info));
    return;
  }
  lru_.splice(lru_.end(), lru_, it->second.lru_pos);
  it->second.lru_pos = std::prev(lru_.end());
}

void CompilationCache::evict_to_budget_locked() {
  if (!budget_.has_value()) return;
  // Whole-group eviction, least recently used first.  The loop also
  // retires the most recent group when it alone exceeds the budget (the
  // zero-budget configuration retains nothing) -- correctness never
  // depends on residency, only hit rates do.
  while (resident_bytes_ > *budget_ && !lru_.empty()) {
    const std::uint64_t victim = lru_.front();
    auto git = groups_.find(victim);
    for (const auto& [set, file] : git->second.slots) {
      Slot& slot = set->slots[file];
      if (slot.obj == nullptr) continue;
      ++stats_.evictions;
      evicted_counter().add();
      stats_.evicted_bytes += slot.bytes;
      resident_bytes_ -= slot.bytes;
      --resident_entries_;
      slot.obj.reset();  // holders of the object keep it alive
    }
    lru_.pop_front();
    groups_.erase(git);
  }
}

std::size_t CompilationCache::SetKeyHash::operator()(const SetKey& k) const {
  // The fingerprint is already a well-mixed 64-bit hash; fold in the
  // model's address and the two mode bits.
  std::uint64_t h = k.fingerprint;
  h ^= static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(k.model)) +
       0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= (static_cast<std::uint64_t>(k.fpic) << 1 |
        static_cast<std::uint64_t>(k.injected)) +
       0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return static_cast<std::size_t>(h);
}

}  // namespace flit::toolchain
