// StudyResult statistics (median parity for even/odd sample sizes) and the
// SpaceExplorer run dedupe: baseline and speed-reference runs are executed
// once each -- or once total when they coincide -- and reused for space
// entries equal to them, and the execution memo runs each distinct build
// key once.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>

#include "core/explorer.h"
#include "core/faults.h"
#include "core/probe_memo.h"
#include "fpsem/env.h"
#include "toolchain/compiler.h"

namespace {

using namespace flit;

core::StudyResult with_variabilities(std::initializer_list<long double> vs) {
  core::StudyResult r;
  for (long double v : vs) {
    core::CompilationOutcome o;
    o.variability = v;
    r.outcomes.push_back(o);
  }
  return r;
}

TEST(VariabilityStats, OddSampleTakesTheMiddleElement) {
  const auto r = with_variabilities({3.0L, 1.0L, 2.0L});
  const auto s = r.variability_stats();
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->min, 1.0L);
  EXPECT_EQ(s->median, 2.0L);
  EXPECT_EQ(s->max, 3.0L);
}

TEST(VariabilityStats, EvenSampleAveragesTheMiddleTwo) {
  const auto r = with_variabilities({4.0L, 1.0L, 3.0L, 2.0L});
  const auto s = r.variability_stats();
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->min, 1.0L);
  EXPECT_EQ(s->median, 2.5L);  // (2 + 3) / 2, not the upper-middle 3
  EXPECT_EQ(s->max, 4.0L);
}

TEST(VariabilityStats, SingleAndPairSamples) {
  EXPECT_EQ(with_variabilities({7.0L}).variability_stats()->median, 7.0L);
  EXPECT_EQ(with_variabilities({1.0L, 2.0L}).variability_stats()->median,
            1.5L);
  // Bitwise-equal outcomes are excluded; all-equal -> no stats.
  EXPECT_FALSE(with_variabilities({}).variability_stats().has_value());
}

// ---- anchor-run dedupe ----------------------------------------------------

const fpsem::FunctionId kStat = fpsem::register_fn({
    .name = "explorerstats::kernel",
    .file = "explorerstats/kernel.cpp",
});

/// Counts real executions so the dedupe is observable.
class CountingTest final : public core::TestBase {
 public:
  std::string name() const override { return "CountingTest"; }
  std::size_t getInputsPerRun() const override { return 0; }
  std::vector<double> getDefaultInput() const override { return {}; }
  core::TestResult run_impl(const std::vector<double>&,
                            fpsem::EvalContext& ctx) const override {
    ++runs;
    std::vector<double> v(32);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = 1.0 / (static_cast<double>(i) + 3.0);
    }
    fpsem::FpEnv env = ctx.fn(kStat);
    return static_cast<long double>(env.sum(v));
  }

  mutable std::atomic<int> runs{0};
};

TEST(ExploreDedupe, AnchorCompilationsInsideTheSpaceAreNotRerun) {
  const toolchain::Compilation base = toolchain::mfem_baseline();
  const toolchain::Compilation ref = toolchain::mfem_speed_reference();
  const std::vector<toolchain::Compilation> space = {
      base,  // == baseline: reused
      ref,   // == speed reference: reused
      {toolchain::gcc(), toolchain::OptLevel::O3, ""},
      {toolchain::clang(), toolchain::OptLevel::O2, ""},
  };
  CountingTest t;
  core::SpaceExplorer explorer(&fpsem::global_code_model(), base, ref);
  const auto r = explorer.explore(t, space);
  ASSERT_EQ(r.outcomes.size(), 4u);
  // baseline + reference + the two non-anchor compilations.
  EXPECT_EQ(t.runs.load(), 4);
}

TEST(ExploreDedupe, IdenticalBaselineAndReferenceRunOnce) {
  const toolchain::Compilation base = toolchain::mfem_baseline();
  const std::vector<toolchain::Compilation> space = {
      base,
      {toolchain::gcc(), toolchain::OptLevel::O2, ""},
  };
  CountingTest t;
  core::SpaceExplorer explorer(&fpsem::global_code_model(), base, base);
  const auto r = explorer.explore(t, space);
  ASSERT_EQ(r.outcomes.size(), 2u);
  // One shared anchor run + one space compilation.
  EXPECT_EQ(t.runs.load(), 2);
  // The baseline entry is bitwise-equal with speedup 1 by construction.
  EXPECT_TRUE(r.outcomes[0].bitwise_equal());
  EXPECT_DOUBLE_EQ(r.outcomes[0].speedup, 1.0);
}

TEST(ExploreDedupe, EachDistinctBuildKeyRunsOnceAtAnyJobsCount) {
  const toolchain::Compilation base = toolchain::mfem_baseline();
  const toolchain::Compilation ref = toolchain::mfem_speed_reference();
  const std::vector<toolchain::Compilation> space = {
      // One semantics group and link driver: one executable.
      {toolchain::gcc(), toolchain::OptLevel::O3, ""},
      {toolchain::gcc(), toolchain::OptLevel::O3, "-fassociative-math"},
      {toolchain::clang(), toolchain::OptLevel::O2, ""},
      {toolchain::clang(), toolchain::OptLevel::O2, "-ffp-contract=on"},
      // The baseline's executable: answered by the anchor's run.
      {toolchain::gcc(), toolchain::OptLevel::O0, "-mavx"},
      // The baseline's semantics group under the Intel link driver, whose
      // link step swaps in the fast libm: another executable.
      {toolchain::icpc(), toolchain::OptLevel::O0, ""},
  };
  CountingTest probe;
  std::set<std::string> keys = {
      core::ProbeMemo::key_of_build(probe.name(), base),
      core::ProbeMemo::key_of_build(probe.name(), ref)};
  for (const toolchain::Compilation& c : space) {
    keys.insert(core::ProbeMemo::key_of_build(probe.name(), c));
  }
  ASSERT_EQ(keys.size(), 5u);

  std::vector<core::StudyResult> studies;
  for (const unsigned jobs : {1u, 4u}) {
    CountingTest t;
    core::SpaceExplorer explorer(&fpsem::global_code_model(), base, ref,
                                 jobs);
    studies.push_back(explorer.explore(t, space));
    EXPECT_EQ(t.runs.load(), static_cast<int>(keys.size())) << jobs;
    EXPECT_EQ(explorer.memo().stats().entries, keys.size()) << jobs;
  }

  // Armed faults (at rate 0, so none fires) bypass the memo: both anchors
  // and every item run, and the outcomes are the memoized ones.
  core::FaultInjector::global().arm(core::FaultSite::Run, 0.0);
  CountingTest t;
  core::SpaceExplorer explorer(&fpsem::global_code_model(), base, ref, 4);
  studies.push_back(explorer.explore(t, space));
  core::FaultInjector::global().disarm();
  EXPECT_EQ(t.runs.load(), static_cast<int>(2 + space.size()));
  EXPECT_EQ(explorer.memo().stats().probes, 0u);

  for (const core::StudyResult& s : studies) {
    ASSERT_EQ(s.outcomes.size(), space.size());
    for (std::size_t i = 0; i < space.size(); ++i) {
      EXPECT_EQ(s.outcomes[i].variability,
                studies[0].outcomes[i].variability);
      EXPECT_EQ(s.outcomes[i].cycles, studies[0].outcomes[i].cycles);
      EXPECT_EQ(s.outcomes[i].speedup, studies[0].outcomes[i].speedup);
    }
  }
}

TEST(ExploreDedupe, DedupeIsInvisibleInTheOutcomes) {
  const toolchain::Compilation base = toolchain::mfem_baseline();
  const toolchain::Compilation ref = toolchain::mfem_speed_reference();
  const std::vector<toolchain::Compilation> space = {base, ref};
  CountingTest t;
  core::SpaceExplorer explorer(&fpsem::global_code_model(), base, ref);
  const auto r = explorer.explore(t, space);
  // Reused runs must classify exactly as fresh ones would: the baseline
  // compares equal to itself, the reference's speedup is exactly 1.
  EXPECT_TRUE(r.outcomes[0].bitwise_equal());
  EXPECT_TRUE(r.outcomes[1].bitwise_equal());
  EXPECT_DOUBLE_EQ(r.outcomes[1].speedup, 1.0);
}

}  // namespace
