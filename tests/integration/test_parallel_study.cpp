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
#include "toolchain/compile_cache.h"
#include "toolchain/compiler.h"

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
