// Integration: the parallel study engine over mini-MFEM.  Parallel
// explore() and run_workflow() must be bitwise-identical to serial at any
// jobs count, the shared compilation cache must stay invisible in the
// results while absorbing most compiles of the Table 1 space, and the
// workflow's bisect fan-out must preserve every finding.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/explorer.h"
#include "core/probe_memo.h"
#include "core/workflow.h"
#include "mfemini/examples.h"
#include "toolchain/build.h"
#include "toolchain/compile_cache.h"
#include "toolchain/compiler.h"
#include "toolchain/linker.h"
#include "toolchain/semantics_rules.h"

namespace {

using namespace flit;
using toolchain::Compilation;
using toolchain::OptLevel;

std::vector<Compilation> small_space() {
  return {
      {toolchain::gcc(), OptLevel::O0, ""},
      {toolchain::gcc(), OptLevel::O2, ""},
      {toolchain::gcc(), OptLevel::O3, ""},
      {toolchain::gcc(), OptLevel::O2, "-mavx2 -mfma"},
      {toolchain::gcc(), OptLevel::O2, "-funsafe-math-optimizations"},
      {toolchain::clang(), OptLevel::O3, "-ffast-math"},
      {toolchain::icpc(), OptLevel::O2, ""},
      {toolchain::icpc(), OptLevel::O2, "-fp-model precise"},
  };
}

void expect_identical_studies(const core::StudyResult& a,
                              const core::StudyResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  EXPECT_EQ(a.test_name, b.test_name);
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].comp, b.outcomes[i].comp) << i;
    // Bitwise comparisons on purpose: parallel results must be the very
    // same long doubles/doubles, not merely close.
    EXPECT_EQ(a.outcomes[i].variability, b.outcomes[i].variability) << i;
    EXPECT_EQ(a.outcomes[i].cycles, b.outcomes[i].cycles) << i;
    EXPECT_EQ(a.outcomes[i].speedup, b.outcomes[i].speedup) << i;
  }
}

TEST(ParallelStudy, ExploreIsBitwiseIdenticalAcrossJobCounts) {
  const auto space = small_space();
  mfemini::MfemExampleTest test(5);

  core::SpaceExplorer serial(&fpsem::global_code_model(),
                             toolchain::mfem_baseline(),
                             toolchain::mfem_speed_reference(), 1);
  const auto reference = serial.explore(test, space);

  for (unsigned jobs : {2u, 8u}) {
    core::SpaceExplorer parallel(&fpsem::global_code_model(),
                                 toolchain::mfem_baseline(),
                                 toolchain::mfem_speed_reference(), jobs);
    expect_identical_studies(parallel.explore(test, space), reference);
  }
}

TEST(ParallelStudy,
     SharedExplorerIsBitwiseIdenticalAcrossJobCountsOverTheStudySpace) {
  // Several examples through one explorer per jobs count, so its cache and
  // execution memo carry state from one study into the next, over the
  // full space.
  const auto space = toolchain::mfem_study_space();
  core::SpaceExplorer serial(&fpsem::global_code_model(),
                             toolchain::mfem_baseline(),
                             toolchain::mfem_speed_reference(), 1);
  core::SpaceExplorer parallel(&fpsem::global_code_model(),
                               toolchain::mfem_baseline(),
                               toolchain::mfem_speed_reference(), 4);
  for (int ex = 1; ex <= 6; ++ex) {
    mfemini::MfemExampleTest test(ex);
    expect_identical_studies(parallel.explore(test, space),
                             serial.explore(test, space));
  }
}

TEST(ParallelStudy, SharedCacheDoesNotChangeOutcomes) {
  const auto space = small_space();
  mfemini::MfemExampleTest test(1);

  // An explorer whose cache was pre-warmed by a *different* example must
  // still produce the same study (cached objects carry no run state).
  core::SpaceExplorer cold(&fpsem::global_code_model(),
                           toolchain::mfem_baseline(),
                           toolchain::mfem_speed_reference());
  const auto reference = cold.explore(test, space);

  toolchain::CompilationCache shared;
  core::SpaceExplorer warm(&fpsem::global_code_model(),
                           toolchain::mfem_baseline(),
                           toolchain::mfem_speed_reference(), 2, &shared);
  mfemini::MfemExampleTest other(9);
  (void)warm.explore(other, space);
  expect_identical_studies(warm.explore(test, space), reference);
  EXPECT_GT(shared.stats().hits, 0u);
}

TEST(ParallelStudy, FullSpaceCacheHitRateExceedsHalf) {
  mfemini::MfemExampleTest test(5);
  core::SpaceExplorer explorer(&fpsem::global_code_model(),
                               toolchain::mfem_baseline(),
                               toolchain::mfem_speed_reference(), 2);
  const auto space = toolchain::mfem_study_space();
  const auto r = explorer.explore(test, space);
  EXPECT_EQ(r.outcomes.size(), space.size());
  // The acceptance bar for the Table 1 study: more than half of the
  // space's per-file compiles are never compiled.  The execution memo
  // answers repeated executables before compile, so the cache sees one
  // compile_all per distinct build key (the anchors are in the space).
  const std::size_t files = fpsem::global_code_model().files().size();
  const toolchain::CacheStats stats = explorer.cache().stats();
  EXPECT_LT(stats.misses * 2, space.size() * files)
      << "hits=" << stats.hits << " misses=" << stats.misses;
  std::set<std::string> keys;
  for (const Compilation& c : space) {
    keys.insert(core::ProbeMemo::key_of_build(test.name(), c));
  }
  EXPECT_EQ(stats.hits + stats.misses, keys.size() * files);
}

TEST(InternedObjects, SharedObjectsLinkUnderTheRequestedCompilation) {
  // g++ -O0 shares its fingerprint with every icpc -O0 triple, so a g++
  // -O0 build reuses objects an icpc -O0 build interned.  The ABI hazard
  // hashes the raw triple and fires only next to g++ objects, so a linker
  // that read an interned object's stored compilation would crash a g++
  // -O0 binary that a cold cache runs cleanly.
  const fpsem::CodeModel& model = fpsem::global_code_model();
  const Compilation gcc_o0{toolchain::gcc(), OptLevel::O0, ""};
  std::string toxic_file;
  Compilation toxic;
  for (const Compilation& c : toolchain::mfem_study_space()) {
    if (c.compiler.family != toolchain::CompilerFamily::Intel ||
        c.opt != OptLevel::O0) {
      continue;
    }
    for (const std::string& f : model.files()) {
      if (toxic_file.empty() && toolchain::abi_toxic(f, c)) {
        toxic_file = f;
        toxic = c;
      }
    }
  }
  ASSERT_FALSE(toxic_file.empty());
  ASSERT_EQ(toolchain::CompilationCache::fingerprint(toxic, false),
            toolchain::CompilationCache::fingerprint(gcc_o0, false));

  toolchain::CompilationCache cache;
  (void)toolchain::BuildSystem(&model, &cache).compile(toxic_file, toxic);

  // The anchors stay off the shared fingerprint, so the g++ -O0 item is
  // an ordinary item whose crash would be quarantined, not fatal.
  const Compilation base{toolchain::clang(), OptLevel::O0, ""};
  const Compilation ref{toolchain::clang(), OptLevel::O2, ""};
  const std::vector<Compilation> item = {gcc_o0};
  mfemini::MfemExampleTest test(1);
  core::SpaceExplorer warm(&model, base, ref, 1, &cache);
  core::SpaceExplorer cold(&model, base, ref, 1);
  const core::StudyResult got = warm.explore(test, item);
  const core::StudyResult want = cold.explore(test, item);
  EXPECT_GT(cache.stats().hits, 0u);  // the icpc-built object was reused
  ASSERT_EQ(want.outcomes.size(), 1u);
  EXPECT_EQ(want.outcomes[0].status, core::OutcomeStatus::Ok);
  EXPECT_EQ(got.outcomes[0].status, core::OutcomeStatus::Ok)
      << got.outcomes[0].reason;
  expect_identical_studies(got, want);

  // The premise, at the link step: the shared object names the icpc
  // triple, and reading it crashes the line.
  const toolchain::BuildSystem build(&model, &cache);
  const auto objs = build.intern_all(gcc_o0);
  std::vector<const toolchain::ObjectFile*> line;
  for (const auto& o : objs) line.push_back(o.get());
  const std::size_t f = *model.file_index(toxic_file);
  EXPECT_EQ(objs[f]->comp, toxic);
  const toolchain::Linker linker(&model);
  EXPECT_FALSE(linker.link(line, gcc_o0).crashes);
  EXPECT_TRUE(linker.link(line, gcc_o0.compiler).crashes);
}
TEST(InternedObjects, BudgetedFullSpaceSweepKeepsItsCacheTallies) {
  // Two full-space studies through one serial explorer over one cache
  // whose budget holds about 16 of the space's semantics groups; the
  // second walks the space backwards, so it hits the groups the first
  // left resident and then evicts.  The tallies are pinned to what the
  // cache counted when every hit was a copy, so interning moved no hit,
  // miss, eviction or byte.
  toolchain::CompilationCache cache;
  cache.set_budget(200000);
  core::SpaceExplorer explorer(&fpsem::global_code_model(),
                               toolchain::mfem_baseline(),
                               toolchain::mfem_speed_reference(), 1, &cache);
  const auto space = toolchain::mfem_study_space();
  const std::vector<Compilation> backwards(space.rbegin(), space.rend());
  mfemini::MfemExampleTest first(3);
  mfemini::MfemExampleTest second(5);
  (void)explorer.explore(first, space);
  (void)explorer.explore(second, backwards);
  const toolchain::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 169u);
  EXPECT_EQ(s.misses, 1859u);
  EXPECT_EQ(s.evictions, 1651u);
  EXPECT_EQ(s.inserted_bytes, 1711398u);
  EXPECT_EQ(s.evicted_bytes, 1519668u);
}

void expect_identical_workflows(const core::WorkflowReport& a,
                                const core::WorkflowReport& b) {
  expect_identical_studies(a.study, b.study);
  ASSERT_EQ(a.bisects.size(), b.bisects.size());
  for (std::size_t i = 0; i < a.bisects.size(); ++i) {
    const auto& ba = a.bisects[i];
    const auto& bb = b.bisects[i];
    EXPECT_EQ(ba.outcome.comp, bb.outcome.comp) << i;
    EXPECT_EQ(ba.bisect.whole_value, bb.bisect.whole_value) << i;
    EXPECT_EQ(ba.bisect.executions, bb.bisect.executions) << i;
    EXPECT_EQ(ba.bisect.crashed, bb.bisect.crashed) << i;
    ASSERT_EQ(ba.bisect.findings.size(), bb.bisect.findings.size()) << i;
    for (std::size_t j = 0; j < ba.bisect.findings.size(); ++j) {
      const auto& fa = ba.bisect.findings[j];
      const auto& fb = bb.bisect.findings[j];
      EXPECT_EQ(fa.file, fb.file);
      EXPECT_EQ(fa.value, fb.value);
      EXPECT_EQ(fa.status, fb.status);
      ASSERT_EQ(fa.symbols.size(), fb.symbols.size());
      for (std::size_t s = 0; s < fa.symbols.size(); ++s) {
        EXPECT_EQ(fa.symbols[s].symbol, fb.symbols[s].symbol);
        EXPECT_EQ(fa.symbols[s].value, fb.symbols[s].value);
      }
    }
  }
}

TEST(ParallelStudy, WorkflowIsBitwiseIdenticalAcrossJobCounts) {
  mfemini::MfemExampleTest test(13);
  core::WorkflowOptions opts;
  opts.baseline = toolchain::mfem_baseline();
  opts.speed_reference = toolchain::mfem_speed_reference();
  opts.max_bisects = 3;
  opts.k = 1;
  const auto space = small_space();

  opts.jobs = 1;
  const auto reference =
      core::run_workflow(&fpsem::global_code_model(), test, space, opts);
  ASSERT_FALSE(reference.bisects.empty());

  for (unsigned jobs : {2u, 8u}) {
    opts.jobs = jobs;
    const auto parallel =
        core::run_workflow(&fpsem::global_code_model(), test, space, opts);
    expect_identical_workflows(parallel, reference);
  }
}

}  // namespace
