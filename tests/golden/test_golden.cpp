// Golden reproduction gates: the paper shapes EXPERIMENTS.md reports,
// pinned as exact deterministic numbers so a performance or refactoring
// change that moves the reproduction fails loudly.
//
//   * Table 1 -- the full 19-example x 244-compilation mini-MFEM study at
//     one lane: variable runs per compiler, plus an FNV-1a digest over
//     every outcome's compilation, exact variability (%La) and exact
//     modeled cycles (%a), so no result bit or cycle can drift unseen.
//   * Figures 5 and 6 -- read off the same study: which examples' fastest
//     compilation is variable, which have no variable compilation, where
//     the icpc bitwise-equal bar is missing, and the largest relative
//     error (the values bench_fig5_fastest and bench_fig6_variability
//     print).
//   * Table 2 lives in test_golden_table2.cpp: its answers depend on the
//     link set, and this binary also links LULESH.
//   * Table 5 -- the LULESH injection campaign's verdict counts and its
//     precision / recall.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/explorer.h"
#include "core/injection.h"
#include "lulesh/domain.h"
#include "mfemini/examples.h"
#include "toolchain/compiler.h"
#include "toolchain/semantics_rules.h"

namespace {

using namespace flit;

TEST(GoldenTable1, VariableRunsPerCompilerAndOutcomeDigest) {
  const auto space = toolchain::mfem_study_space();
  const core::SpaceExplorer explorer(
      &fpsem::global_code_model(), toolchain::mfem_baseline(),
      toolchain::mfem_speed_reference(), /*jobs=*/1);

  std::map<std::string, std::pair<int, int>> per_compiler;
  std::string bytes;
  char buf[96];
  for (int ex = 1; ex <= mfemini::kNumExamples; ++ex) {
    const mfemini::MfemExampleTest test(ex);
    const core::StudyResult study = explorer.explore(test, space);
    ASSERT_EQ(study.outcomes.size(), space.size()) << test.name();
    bytes += study.test_name + "\n";
    for (const core::CompilationOutcome& o : study.outcomes) {
      auto& [variable, runs] = per_compiler[o.comp.compiler.name];
      variable += o.bitwise_equal() ? 0 : 1;
      runs += 1;
      std::snprintf(buf, sizeof buf, " %La %a\n", o.variability, o.cycles);
      bytes += o.comp.str() + buf;
    }
  }

  const auto counts = [&](const char* compiler) {
    const auto [variable, runs] = per_compiler[compiler];
    return std::to_string(variable) + "/" + std::to_string(runs);
  };
  EXPECT_EQ(counts("g++"), "117/1292");
  EXPECT_EQ(counts("clang++"), "90/1368");
  EXPECT_EQ(counts("icpc"), "1192/1976");

  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(toolchain::stable_hash(bytes)));
  EXPECT_EQ(std::string(buf), "33b4cf5c75d551cd");
}

TEST(GoldenFigures5And6, FastestCompilationAndLargestErrorPerExample) {
  const auto space = toolchain::mfem_study_space();
  const core::SpaceExplorer explorer(
      &fpsem::global_code_model(), toolchain::mfem_baseline(),
      toolchain::mfem_speed_reference(), /*jobs=*/1);

  std::vector<int> variable_wins, no_variable, missing_icpc;
  int max_error_example = 0;
  long double max_error = 0.0L;
  for (int ex = 1; ex <= mfemini::kNumExamples; ++ex) {
    const mfemini::MfemExampleTest test(ex);
    const core::StudyResult study = explorer.explore(test, space);

    // Figure 5: the fastest bitwise-equal compilation of each compiler
    // against the fastest variable one.
    double best_equal = 0.0;
    for (const char* compiler : {"clang++", "g++", "icpc"}) {
      const core::CompilationOutcome* eq = study.fastest_equal(compiler);
      if (eq != nullptr) {
        best_equal = std::max(best_equal, eq->speedup);
      } else if (std::string(compiler) == "icpc") {
        missing_icpc.push_back(ex);
      }
    }
    const core::CompilationOutcome* var = study.fastest_variable();
    if (var == nullptr) {
      no_variable.push_back(ex);
    } else if (var->speedup > best_equal) {
      variable_wins.push_back(ex);
    }

    // Figure 6: the relative errors of the variable compilations.
    const auto stats = study.variability_stats();
    EXPECT_EQ(stats.has_value(), var != nullptr) << test.name();
    if (stats.has_value() && stats->max > max_error) {
      max_error = stats->max;
      max_error_example = ex;
    }
  }

  // The fastest overall compilation is bitwise-equal on 13 of 19.
  EXPECT_EQ(variable_wins, (std::vector<int>{4, 5, 8, 9, 10, 15}));
  EXPECT_EQ(no_variable, (std::vector<int>{12, 18}));
  EXPECT_EQ(missing_icpc, (std::vector<int>{4, 5, 9, 10, 15}));
  EXPECT_EQ(max_error_example, 13);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3Le", max_error);
  EXPECT_EQ(std::string(buf), "1.495e+00");
}

TEST(GoldenTable5, LuleshInjectionVerdicts) {
  lulesh::LuleshOptions opts;
  opts.num_elems = 16;
  opts.stop_cycle = 15;
  const lulesh::LuleshTest test(opts);
  core::InjectionCampaign campaign(
      &fpsem::global_code_model(), &test,
      {toolchain::gcc(), toolchain::OptLevel::O2, ""});
  campaign.set_scope(lulesh::lulesh_source_files());

  const auto s = core::InjectionCampaign::summarize(campaign.run_all());
  EXPECT_EQ(s.exact, 148);
  EXPECT_EQ(s.indirect, 135);
  EXPECT_EQ(s.wrong, 0);
  EXPECT_EQ(s.missed, 0);
  EXPECT_EQ(s.not_measurable, 77);
  EXPECT_EQ(s.total, 360);
  EXPECT_EQ(s.precision(), 1.0);
  EXPECT_EQ(s.recall(), 1.0);
}

}  // namespace
