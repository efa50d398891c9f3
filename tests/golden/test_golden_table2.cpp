// Golden reproduction gate for Table 2: FLiT Bisect over every
// variability-inducing compilation of the 19-example x 244-compilation
// mini-MFEM study, searching the MFEM sources as bench_table2_bisect does.
// Pins File and Symbol Bisect successes per compiler, the logical
// executions (the paper's cost metric) and the link-step-only searches
// (icpc variability no file explains: the Intel link step's libm).
//
// The answers depend on the link set.  File Bisect links out-of-scope
// files from the g++ baseline, so any extra application puts g++ objects
// next to every all-Intel probe and lets the ABI hazard crash it.  This
// binary links what bench_table2_bisect links: the mini-MFEM application
// and the linear algebra beneath it, nothing else.  (With LULESH linked
// too, 52 icpc searches crash instead of finding nothing: 942/1192.)

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/explorer.h"
#include "core/hierarchy.h"
#include "core/parallel.h"
#include "core/probe_memo.h"
#include "mfemini/examples.h"
#include "toolchain/compiler.h"

namespace {

using namespace flit;

TEST(GoldenTable2, BisectSuccessesAndExecutionsPerCompiler) {
  const auto space = toolchain::mfem_study_space();
  const core::SpaceExplorer explorer(
      &fpsem::global_code_model(), toolchain::mfem_baseline(),
      toolchain::mfem_speed_reference(), /*jobs=*/4);

  // Every (example, variable compilation) search, in study order.
  struct Search {
    const core::TestBase* test;
    toolchain::Compilation variable;
  };
  std::vector<std::unique_ptr<mfemini::MfemExampleTest>> tests;
  std::vector<Search> searches;
  for (int ex = 1; ex <= mfemini::kNumExamples; ++ex) {
    tests.push_back(std::make_unique<mfemini::MfemExampleTest>(ex));
    for (const core::CompilationOutcome& o :
         explorer.explore(*tests.back(), space).outcomes) {
      if (!o.bitwise_equal()) searches.push_back({tests.back().get(), o.comp});
    }
  }
  ASSERT_EQ(searches.size(), 117u + 90u + 1192u);

  // The searches share one cache and one memo on four lanes; executions
  // are logical, so the memo and the schedule cannot move them.
  const auto scope = mfemini::mfem_source_files();
  toolchain::CompilationCache cache;
  core::ProbeMemo memo;
  std::vector<core::HierarchicalOutcome> outs(searches.size());
  core::ThreadPool pool(4);
  pool.parallel_for(searches.size(), [&](std::size_t i) {
    core::BisectConfig cfg;
    cfg.baseline = toolchain::mfem_baseline();
    cfg.variable = searches[i].variable;
    cfg.scope = scope;
    cfg.memo = &memo;
    core::BisectDriver driver(&fpsem::global_code_model(), searches[i].test,
                              cfg, &cache);
    outs[i] = driver.run();
  });

  struct Tally {
    int searches = 0, file_ok = 0, symbol_attempts = 0, symbol_ok = 0;
    int nothing_found = 0;
    long executions = 0;
  };
  std::map<std::string, Tally> per_compiler;
  for (std::size_t i = 0; i < searches.size(); ++i) {
    const core::HierarchicalOutcome& out = outs[i];
    Tally& t = per_compiler[searches[i].variable.compiler.name];
    ++t.searches;
    t.executions += out.executions;
    if (out.crashed) continue;  // a File Bisect failure
    ++t.file_ok;
    if (out.nothing_found()) {
      ++t.nothing_found;
      continue;
    }
    for (const core::FileFinding& ff : out.findings) {
      using Status = core::FileFinding::SymbolStatus;
      if (ff.status == Status::NotSearched) continue;
      ++t.symbol_attempts;
      if (ff.status != Status::Crashed) ++t.symbol_ok;
    }
  }

  const auto row = [&](const char* compiler) {
    const Tally& t = per_compiler[compiler];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "file %d/%d symbol %d/%d executions %ld (avg %.0f) "
                  "link-step-only %d",
                  t.file_ok, t.searches, t.symbol_ok, t.symbol_attempts,
                  t.executions, static_cast<double>(t.executions) / t.searches,
                  t.nothing_found);
    return std::string(buf);
  };
  EXPECT_EQ(row("g++"),
            "file 117/117 symbol 179/246 executions 2470 (avg 21) "
            "link-step-only 0");
  EXPECT_EQ(row("clang++"),
            "file 90/90 symbol 279/279 executions 2987 (avg 33) "
            "link-step-only 0");
  EXPECT_EQ(row("icpc"),
            "file 994/1192 symbol 1787/2414 executions 24673 (avg 21) "
            "link-step-only 199");
  long executions = 0;
  for (const auto& [name, t] : per_compiler) executions += t.executions;
  char avg[32];
  std::snprintf(avg, sizeof avg, "%.0f",
                static_cast<double>(executions) /
                    static_cast<double>(searches.size()));
  EXPECT_EQ(std::string(avg), "22");
}

}  // namespace
