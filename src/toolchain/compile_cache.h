#pragma once

// A shared, thread-safe store of interned per-file compilations.
//
// The derivation rules collapse many (compiler, -O, switches) triples onto
// the same per-file floating-point semantics and cost -- inert flags,
// equivalent fp-models, same-family optimization levels -- so most of the
// 244-point study space recompiles a file into an object whose bindings
// already exist.  The cache therefore keys on the *derived-semantics
// fingerprint* of a compilation, not the raw triple: a fingerprint over
// derive_semantics(c) and derive_cost(c) (plus, for -fPIC objects, the
// canonical compilation string, because the -fPIC inlining-loss predicate
// is seeded by it).  Two compilations with equal fingerprints produce
// byte-for-byte identical bindings, so every compilation of a fingerprint
// can share one object.
//
// Objects are interned: the cache holds one immutable
// `shared_ptr<const ObjectFile>` per (model file, fingerprint, fpic,
// injected), built once on the first miss and handed out by pointer on
// every hit.  The entries of one fingerprint form one set, indexed by the
// model's file index, so a whole-program compile is one fingerprint, one
// set lookup and a pointer per file -- no file-name string is hashed.  An
// interned object's `comp` is the compilation that first built it, which
// may belong to another compiler family than a later requester's (g++
// -O0 and every icpc -O0 triple share a fingerprint); the ABI-hazard
// predicates hash the raw triple, so an interned line is linked with
// Linker::link(line, requested compilation), which never reads the
// stored `comp`.  BuildSystem::compile and compile_all still hand out
// owned copies stamped with the requested triple.
//
// The cache is shared across threads of the parallel study engine and
// across serial Bisect drivers (which relink far more often than they need
// to recompile); all methods are safe for concurrent use.
//
// Bounded memory: set_budget(bytes) caps the cache's resident footprint
// for long-lived deployments (the study service shares one cache across
// every tenant).  Eviction is LRU over *semantics-fingerprint groups*: all
// entries whose compilation collapses onto one non-fPIC fingerprint --
// the affinity placement's co-location unit -- age together, so evicting
// reclaims a whole group's objects at once and a half-resident group never
// lingers (a study that needs one member of a group almost always needs
// them all).  Eviction and clear() drop only the cache's reference: an
// object already handed out stays valid for its holders.  Eviction only
// ever changes wall-clock and hit/miss tallies: a rebuilt entry is
// byte-identical to the evicted one (fingerprint equality implies binding
// equality), so cached -- or evicted -- contents can never alter study
// results.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fpsem/code_model.h"
#include "toolchain/object.h"

namespace flit::toolchain {

/// Deterministic approximation of an object's resident footprint, the
/// unit of the cache budget.  A pure function of the object's contents
/// (never of allocator or padding details), so budget-driven eviction
/// decisions are reproducible across runs and platforms.
[[nodiscard]] std::uint64_t approx_object_bytes(const ObjectFile& obj);

class CompilationCache {
 public:
  /// Hit/miss/eviction tallies.  A value type with additive merge: the
  /// distributed engine runs one cache per shard and sums the per-shard
  /// stats into an aggregate hit-rate report instead of recomputing from
  /// scratch.  The subtractive merge is the complement: the study service
  /// snapshots the shared cache around each tenant's batch and attributes
  /// the delta, so per-tenant stats sum back to the aggregate exactly.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    /// Entries removed by the bounded-memory policy or clear(), counted
    /// per entry (a wholesale clear of N entries is N evictions).
    std::uint64_t evictions = 0;

    /// approx_object_bytes totals of every entry ever inserted / evicted.
    /// Both are monotone counters (so deltas subtract cleanly); the
    /// difference is the cache's current resident footprint.
    std::uint64_t inserted_bytes = 0;
    std::uint64_t evicted_bytes = 0;

    [[nodiscard]] std::uint64_t lookups() const { return hits + misses; }
    [[nodiscard]] double hit_rate() const {
      return lookups() == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(lookups());
    }
    /// Current resident footprint implied by the byte counters.
    [[nodiscard]] std::uint64_t resident_bytes() const {
      return inserted_bytes - evicted_bytes;
    }

    Stats& operator+=(const Stats& other) {
      hits += other.hits;
      misses += other.misses;
      evictions += other.evictions;
      inserted_bytes += other.inserted_bytes;
      evicted_bytes += other.evicted_bytes;
      return *this;
    }
    friend Stats operator+(Stats a, const Stats& b) { return a += b; }

    /// Counter-wise difference of two snapshots of the *same* cache
    /// (every field is monotone between snapshots, so `later - earlier`
    /// is the activity in between -- the per-tenant attribution unit).
    Stats& operator-=(const Stats& other) {
      hits -= other.hits;
      misses -= other.misses;
      evictions -= other.evictions;
      inserted_bytes -= other.inserted_bytes;
      evicted_bytes -= other.evicted_bytes;
      return *this;
    }
    friend Stats operator-(Stats a, const Stats& b) { return a -= b; }
    friend bool operator==(const Stats&, const Stats&) = default;
  };

  /// An interned object: immutable and shared by every holder.
  using ObjectPtr = std::shared_ptr<const ObjectFile>;

  /// One fingerprint's object set: every compilation of `model` whose
  /// fingerprint(c, fpic) is `fingerprint` shares the set's objects, one
  /// per model file.  The model's address is part of the key, so a cache
  /// must not outlive a model it has interned objects of (clear() forgets
  /// them all).
  struct SetKey {
    const fpsem::CodeModel* model = nullptr;
    std::uint64_t fingerprint = 0;
    bool fpic = false;
    bool injected = false;

    friend bool operator==(const SetKey&, const SetKey&) = default;
  };

  /// Builds the object of model file `file` on a miss.
  using Builder = std::function<ObjectFile(std::size_t file)>;

  /// Returns the interned objects of model files [first, first + count)
  /// of `key`'s set, in file order.  One lookup finds the set; each file
  /// is then a hit, or a miss that calls `build(file)` outside the lock
  /// and interns the result.  `group` is the requesting compilation's
  /// semantics_group.  Tallies, group recency and eviction move exactly
  /// as `count` single-file lookups in file order would: every lookup
  /// counts one hit or miss and refreshes `group`, and the budget is
  /// enforced after each insertion.
  [[nodiscard]] std::vector<ObjectPtr> intern(const SetKey& key,
                                              std::uint64_t group,
                                              std::size_t first,
                                              std::size_t count,
                                              const Builder& build);

  [[nodiscard]] Stats stats() const;
  void clear();

  /// Caps the resident footprint at `bytes` of approx_object_bytes,
  /// evicting least-recently-used fingerprint groups immediately and on
  /// every subsequent insertion.  A budget of 0 retains nothing (every
  /// lookup misses -- the cold-cache floor the study service's
  /// `--cache-budget 0` configuration measures against); nullopt (the
  /// default) restores the historical unbounded behavior.
  void set_budget(std::optional<std::uint64_t> bytes);

  /// Current resident footprint / entry count (0 after clear()).
  [[nodiscard]] std::uint64_t resident_bytes() const;
  [[nodiscard]] std::size_t resident_entries() const;

  /// The semantics fingerprint of `c`: equal fingerprints guarantee equal
  /// per-file bindings (for the given fpic mode).  Exposed for tests.
  [[nodiscard]] static std::uint64_t fingerprint(const Compilation& c,
                                                 bool fpic);

  /// The affinity-grouping key of `c`: compilations with equal groups hit
  /// each other in this cache for every non-fPIC object, so a placement
  /// that co-locates a group compiles its fingerprint once per fleet.
  /// (-fPIC objects additionally key on the raw triple, but a study item's
  /// object set is dominated by non-fPIC bindings, so the non-fPIC
  /// fingerprint is the right co-location key.)  The bounded-memory policy
  /// ages and evicts entries by this same group.
  [[nodiscard]] static std::uint64_t semantics_group(const Compilation& c) {
    return fingerprint(c, /*fpic=*/false);
  }

 private:
  struct SetKeyHash {
    std::size_t operator()(const SetKey& k) const;
  };

  struct Slot {
    ObjectPtr obj;            ///< null: not resident
    std::uint64_t bytes = 0;  ///< approx_object_bytes at insertion
  };

  /// One fingerprint's objects, slot i holding model file i.  Sets are
  /// never erased before clear(), so the group index may point at them.
  struct ObjectSet {
    std::vector<Slot> slots;
  };

  /// One LRU unit: the slots of a semantics-fingerprint group, plus its
  /// position in the recency list.
  struct GroupInfo {
    std::list<std::uint64_t>::iterator lru_pos;
    std::vector<std::pair<ObjectSet*, std::size_t>> slots;
  };

  /// Moves `group` to most-recently-used (creating it if new); caller
  /// holds mu_.
  void touch_group_locked(std::uint64_t group);

  /// Evicts least-recently-used groups until the resident footprint fits
  /// the budget; caller holds mu_.
  void evict_to_budget_locked();

  mutable std::mutex mu_;
  std::unordered_map<SetKey, ObjectSet, SetKeyHash> sets_;
  std::size_t resident_entries_ = 0;
  Stats stats_;

  std::optional<std::uint64_t> budget_;
  std::uint64_t resident_bytes_ = 0;
  std::list<std::uint64_t> lru_;  ///< group ids, front = LRU, back = MRU
  std::unordered_map<std::uint64_t, GroupInfo> groups_;
};

/// The mergeable per-cache statistics value (one per shard in the
/// distributed engine; summed with operator+= into the aggregate report,
/// subtracted for the study service's per-tenant attribution).
using CacheStats = CompilationCache::Stats;

}  // namespace flit::toolchain
