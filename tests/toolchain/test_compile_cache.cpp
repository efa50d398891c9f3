// The shared compilation cache: fingerprint collapse of semantically
// equivalent triples, byte-identical bindings on hits, hit/miss
// accounting, and key separation for -fPIC and injected builds.

#include <gtest/gtest.h>

#include "fpsem/code_model.h"
#include "toolchain/build.h"
#include "toolchain/compile_cache.h"
#include "toolchain/compiler.h"
#include "toolchain/semantics_rules.h"

namespace {

using namespace flit::toolchain;
using flit::fpsem::CodeModel;

CodeModel make_model() {
  CodeModel m;
  m.add({.name = "cc::f", .file = "cc/a.cpp"});
  m.add({.name = "cc::g", .file = "cc/a.cpp", .uses_libm = true});
  m.add({.name = "cc::hidden",
         .file = "cc/a.cpp",
         .exported = false,
         .host_symbol = "cc::f"});
  m.add({.name = "cc::h", .file = "cc/b.cpp", .inline_candidate = true});
  return m;
}

/// g++ -O1 with and without the documented-inert -fassociative-math flag:
/// identical derived semantics and cost, different raw triples.
Compilation o1_plain() { return {gcc(), OptLevel::O1, ""}; }
Compilation o1_inert() { return {gcc(), OptLevel::O1, "-fassociative-math"}; }

void expect_same_object(const ObjectFile& a, const ObjectFile& b) {
  EXPECT_EQ(a.source_file, b.source_file);
  EXPECT_EQ(a.fpic, b.fpic);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.bindings, b.bindings);
  EXPECT_EQ(a.internal_fns, b.internal_fns);
  ASSERT_EQ(a.symbols.size(), b.symbols.size());
  for (std::size_t i = 0; i < a.symbols.size(); ++i) {
    EXPECT_EQ(a.symbols[i].name, b.symbols[i].name);
    EXPECT_EQ(a.symbols[i].fn, b.symbols[i].fn);
    EXPECT_EQ(a.symbols[i].strong, b.symbols[i].strong);
  }
}

TEST(CompilationCache, FingerprintCollapsesSemanticallyEquivalentTriples) {
  EXPECT_EQ(CompilationCache::fingerprint(o1_plain(), false),
            CompilationCache::fingerprint(o1_inert(), false));
  EXPECT_NE(CompilationCache::fingerprint(o1_plain(), false),
            CompilationCache::fingerprint({gcc(), OptLevel::O2, ""}, false));
  // Cost differences separate fingerprints even when semantics agree:
  // -mavx changes bulk_scale only.
  EXPECT_NE(
      CompilationCache::fingerprint({gcc(), OptLevel::O2, ""}, false),
      CompilationCache::fingerprint({gcc(), OptLevel::O2, "-mavx"}, false));
}

TEST(CompilationCache, FpicFingerprintsAreKeyedByTheRawTriple) {
  // The -fPIC inlining-loss predicate hashes the raw compilation string,
  // so equivalent triples must NOT share -fPIC objects.
  EXPECT_NE(CompilationCache::fingerprint(o1_plain(), true),
            CompilationCache::fingerprint(o1_inert(), true));
}

TEST(CompilationCache, HitReturnsTheSameObjectWithTheRequestedTriple) {
  CodeModel m = make_model();
  CompilationCache cache;
  BuildSystem cached(&m, &cache);
  BuildSystem uncached(&m);

  const ObjectFile first = cached.compile("cc/a.cpp", o1_plain());
  const ObjectFile hit = cached.compile("cc/a.cpp", o1_inert());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // The hit's bindings are byte-identical to a from-scratch compile of the
  // *requested* triple, and the raw triple is restamped (the ABI-hazard
  // predicates hash it).
  expect_same_object(hit, uncached.compile("cc/a.cpp", o1_inert()));
  EXPECT_EQ(hit.comp, o1_inert());
  EXPECT_EQ(first.comp, o1_plain());
}

TEST(CompilationCache, CompileCountsDropAcrossRepeatedBuilds) {
  CodeModel m = make_model();
  CompilationCache cache;
  BuildSystem build(&m, &cache);

  (void)build.compile_all(o1_plain());
  const auto after_first = cache.stats();
  EXPECT_EQ(after_first.misses, m.files().size());
  EXPECT_EQ(after_first.hits, 0u);

  (void)build.compile_all(o1_plain());
  (void)build.compile_all(o1_inert());  // equivalent triple: all hits too
  const auto after_third = cache.stats();
  EXPECT_EQ(after_third.misses, m.files().size());
  EXPECT_EQ(after_third.hits, 2 * m.files().size());
  EXPECT_GT(after_third.hit_rate(), 0.5);
}

TEST(CompilationCache, FpicAndInjectedAreSeparateEntries) {
  CodeModel m = make_model();
  CompilationCache cache;
  BuildSystem build(&m, &cache);

  const auto plain = build.compile("cc/a.cpp", o1_plain());
  const auto fpic = build.compile("cc/a.cpp", o1_plain(), /*fpic=*/true);
  const auto injected = build.compile("cc/a.cpp", o1_plain(), /*fpic=*/false,
                                      /*injected=*/true);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_FALSE(plain.fpic);
  EXPECT_TRUE(fpic.fpic);
  EXPECT_TRUE(injected.injected);
  EXPECT_FALSE(plain.injected);
}

TEST(CompilationCache, CachedObjectsEqualUncachedAcrossTheStudySpace) {
  CodeModel m = make_model();
  CompilationCache cache;
  BuildSystem cached(&m, &cache);
  BuildSystem uncached(&m);

  for (const Compilation& c : mfem_study_space()) {
    for (const std::string& f : m.files()) {
      expect_same_object(cached.compile(f, c), uncached.compile(f, c));
      expect_same_object(cached.compile(f, c, /*fpic=*/true),
                         uncached.compile(f, c, /*fpic=*/true));
    }
  }
}

TEST(CompilationCache, StudySpaceHitRateExceedsHalf) {
  // The Table 1 space: 244 triples collapse onto far fewer distinct
  // per-file semantics, so most non-fPIC compiles are hits.
  CodeModel m = make_model();
  CompilationCache cache;
  BuildSystem build(&m, &cache);
  for (const Compilation& c : mfem_study_space()) {
    (void)build.compile_all(c);
  }
  EXPECT_GT(cache.stats().hit_rate(), 0.5);
}

TEST(CacheStats, MergeSumsTalliesAndPreservesTheHitRateInvariant) {
  // Per-shard stats are summed into the distributed engine's aggregate
  // report; the merge must be plain addition on both counters.
  CacheStats a{.hits = 7, .misses = 3};
  const CacheStats b{.hits = 1, .misses = 9};

  const CacheStats sum = a + b;
  EXPECT_EQ(sum.hits, 8u);
  EXPECT_EQ(sum.misses, 12u);
  EXPECT_EQ(sum.lookups(), 20u);
  EXPECT_EQ(sum.hit_rate(), 8.0 / 20.0);

  a += b;
  EXPECT_EQ(a, sum);

  // Identity: merging an idle shard's stats changes nothing.
  const CacheStats before = a;
  a += CacheStats{};
  EXPECT_EQ(a, before);
  EXPECT_EQ(CacheStats{}.hit_rate(), 0.0);  // no lookups, no rate
}

TEST(CacheStats, MergingRealShardCachesMatchesOneSharedCache) {
  // Two caches each serving half the study space tally, in sum, the same
  // lookups as one cache serving all of it (hit counts differ -- each
  // shard re-misses its first equivalent triple -- so only the lookup sum
  // is partition-invariant).
  CodeModel m = make_model();
  const auto space = mfem_study_space();
  const std::size_t half = space.size() / 2;

  CompilationCache whole;
  BuildSystem whole_build(&m, &whole);
  for (const Compilation& c : space) (void)whole_build.compile_all(c);

  CacheStats merged;
  for (std::size_t begin : {std::size_t{0}, half}) {
    CompilationCache shard;
    BuildSystem build(&m, &shard);
    const std::size_t end = begin == 0 ? half : space.size();
    for (std::size_t i = begin; i < end; ++i) {
      (void)build.compile_all(space[i]);
    }
    merged += shard.stats();
  }
  EXPECT_EQ(merged.lookups(), whole.stats().lookups());
  EXPECT_GE(merged.misses, whole.stats().misses);
}

TEST(CacheStats, SnapshotDifferenceAttributesTheActivityInBetween) {
  // The study service snapshots the shared cache around each tenant's
  // batch; later - earlier must be exactly the in-between tallies.
  CodeModel m = make_model();
  CompilationCache cache;
  BuildSystem build(&m, &cache);

  (void)build.compile_all(o1_plain());
  const CacheStats before = cache.stats();
  (void)build.compile_all(o1_plain());
  (void)build.compile_all(o1_inert());
  const CacheStats delta = cache.stats() - before;
  EXPECT_EQ(delta.hits, 2 * m.files().size());
  EXPECT_EQ(delta.misses, 0u);
  EXPECT_EQ(delta.inserted_bytes, 0u);
  EXPECT_EQ(before + delta, cache.stats());
}

TEST(CompilationCache, EvictionCountsPerEntryNotPerClear) {
  // Regression: the eviction counter historically only moved on wholesale
  // clear()s, so any policy that removes entries one group at a time was
  // invisible in the stats.  A budget of 0 evicts each inserted entry
  // immediately -- the counter must track every one.
  CodeModel m = make_model();
  CompilationCache cache;
  cache.set_budget(0);
  BuildSystem build(&m, &cache);

  (void)build.compile_all(o1_plain());
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, m.files().size());
  EXPECT_EQ(s.evictions, m.files().size());  // every insert evicted
  EXPECT_EQ(s.evicted_bytes, s.inserted_bytes);
  EXPECT_EQ(s.resident_bytes(), 0u);
  EXPECT_EQ(cache.resident_entries(), 0u);

  // Re-compiling misses again: nothing was retained.
  (void)build.compile_all(o1_plain());
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2 * m.files().size());
}

TEST(CompilationCache, UnboundedCacheNeverEvicts) {
  CodeModel m = make_model();
  CompilationCache cache;
  BuildSystem build(&m, &cache);
  for (const Compilation& c : mfem_study_space()) {
    (void)build.compile_all(c);
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().evicted_bytes, 0u);
  EXPECT_EQ(cache.resident_bytes(), cache.stats().inserted_bytes);
  EXPECT_EQ(cache.stats().resident_bytes(), cache.resident_bytes());
}

TEST(CompilationCache, BudgetCapsTheResidentFootprint) {
  CodeModel m = make_model();
  CompilationCache unbounded;
  {
    BuildSystem build(&m, &unbounded);
    for (const Compilation& c : mfem_study_space()) {
      (void)build.compile_all(c);
    }
  }
  const std::uint64_t full = unbounded.resident_bytes();
  ASSERT_GT(full, 0u);

  // A budget of half the full footprint: the cache must stay under it
  // after every insertion, evicting LRU fingerprint groups, and the byte
  // ledgers must reconcile (inserted - evicted == resident).
  CompilationCache bounded;
  bounded.set_budget(full / 2);
  BuildSystem build(&m, &bounded);
  for (const Compilation& c : mfem_study_space()) {
    (void)build.compile_all(c);
    EXPECT_LE(bounded.resident_bytes(), full / 2);
  }
  const CacheStats s = bounded.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_EQ(s.inserted_bytes - s.evicted_bytes, bounded.resident_bytes());

  // Shrinking the budget evicts immediately; restoring nullopt stops
  // evicting but does not resurrect anything.
  bounded.set_budget(0);
  EXPECT_EQ(bounded.resident_bytes(), 0u);
  EXPECT_EQ(bounded.resident_entries(), 0u);
  bounded.set_budget(std::nullopt);
  EXPECT_EQ(bounded.resident_entries(), 0u);
}

TEST(CompilationCache, EvictedEntriesRebuildByteIdentical) {
  // The determinism half of the bounded-memory contract: an object
  // rebuilt after its group was evicted is byte-identical to the evicted
  // one, so eviction can change hit rates but never study results.
  CodeModel m = make_model();
  CompilationCache tight;
  tight.set_budget(0);  // worst case: every lookup rebuilds
  BuildSystem bounded_build(&m, &tight);
  BuildSystem uncached(&m);
  for (const Compilation& c : mfem_study_space()) {
    for (const std::string& f : m.files()) {
      expect_same_object(bounded_build.compile(f, c), uncached.compile(f, c));
    }
  }
  EXPECT_EQ(tight.stats().hits, 0u);
}

TEST(CompilationCache, ApproxObjectBytesIsContentDerived) {
  CodeModel m = make_model();
  BuildSystem build(&m);
  const ObjectFile a = build.compile("cc/a.cpp", o1_plain());
  EXPECT_GT(approx_object_bytes(a), 0u);
  // Pure function of the contents: equal objects, equal footprint.
  EXPECT_EQ(approx_object_bytes(a),
            approx_object_bytes(build.compile("cc/a.cpp", o1_plain())));
}

TEST(CompilationCache, ClearResetsEntriesAndCounters) {
  CodeModel m = make_model();
  CompilationCache cache;
  BuildSystem build(&m, &cache);
  (void)build.compile_all(o1_plain());
  (void)build.compile_all(o1_plain());
  cache.clear();
  EXPECT_EQ(cache.stats().lookups(), 0u);
  (void)build.compile_all(o1_plain());
  EXPECT_EQ(cache.stats().misses, m.files().size());
}

TEST(CompilationCache, InternedHitsShareTheFirstBuildersObject) {
  // A hit hands out the interned pointer itself: equivalent triples share
  // one object, which keeps the compilation that built it.
  CodeModel m = make_model();
  CompilationCache cache;
  BuildSystem build(&m, &cache);

  const auto first = build.intern_all(o1_plain());
  const auto again = build.intern_all(o1_inert());
  ASSERT_EQ(first.size(), m.files().size());
  ASSERT_EQ(again.size(), m.files().size());
  for (std::size_t f = 0; f < first.size(); ++f) {
    EXPECT_EQ(first[f].get(), again[f].get()) << m.files()[f];
    EXPECT_EQ(again[f]->comp, o1_plain());
    EXPECT_EQ(again[f]->source_file, m.files()[f]);
  }
  EXPECT_EQ(cache.stats().misses, m.files().size());
  EXPECT_EQ(cache.stats().hits, m.files().size());
  EXPECT_EQ(cache.resident_entries(), m.files().size());
}

TEST(CompilationCache, InternedObjectOutlivesItsEviction) {
  // Eviction and clear() drop only the cache's reference: an object the
  // cache handed out stays valid and equal for its holder (the ASan job
  // checks the lifetime).
  CodeModel m = make_model();
  CompilationCache cache;
  BuildSystem build(&m, &cache);
  BuildSystem uncached(&m);

  const auto objs = build.intern_all(o1_plain());
  const auto fpic = build.intern_all(o1_plain(), /*fpic=*/true);
  cache.set_budget(0);
  EXPECT_EQ(cache.resident_entries(), 0u);
  EXPECT_EQ(cache.stats().evictions, 2 * m.files().size());
  cache.clear();
  for (std::size_t f = 0; f < objs.size(); ++f) {
    const std::string& file = m.files()[f];
    expect_same_object(*objs[f], uncached.compile(file, o1_plain()));
    expect_same_object(*fpic[f], uncached.compile(file, o1_plain(), true));
    EXPECT_EQ(objs[f]->comp, o1_plain());
  }

  // A rebuilt object is a new one, equal to the evicted one.
  cache.set_budget(std::nullopt);
  const auto rebuilt = build.intern_all(o1_plain());
  EXPECT_NE(rebuilt.front().get(), objs.front().get());
  expect_same_object(*rebuilt.front(), *objs.front());
}

TEST(CompilationCache, BudgetedStudySpaceSweepKeepsItsTallies) {
  // Every triple of the study space compiled whole, then one file again
  // under -fPIC, through one cache whose budget holds a few semantics
  // groups.  The tallies are pinned to what the cache counted when every
  // hit was a copy, so interning moved no hit, miss, eviction or byte.
  CodeModel m = make_model();
  CompilationCache cache;
  cache.set_budget(3000);
  BuildSystem build(&m, &cache);
  for (const Compilation& c : mfem_study_space()) {
    (void)build.compile_all(c);
    (void)build.compile("cc/b.cpp", c, /*fpic=*/true);
  }
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 282u);
  EXPECT_EQ(s.misses, 450u);
  EXPECT_EQ(s.evictions, 440u);
  EXPECT_EQ(s.inserted_bytes, 133857u);
  EXPECT_EQ(s.evicted_bytes, 130954u);
  EXPECT_EQ(cache.resident_bytes(), s.resident_bytes());
}

}  // namespace
