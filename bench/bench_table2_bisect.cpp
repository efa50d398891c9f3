// Reproduces Table 2: FLiT Bisect run on every variability-inducing
// compilation found by the MFEM study, characterized per compiler --
// average test executions, File Bisect success rate and Symbol Bisect
// success rate (a failure means the mixed executable crashed) -- plus
// the total executions behind each average.
//
// The searches run on a 4-lane ThreadPool over one shared CompilationCache
// and ProbeMemo.  Executions are logical (memo hits still count), and the
// tallies are sums, so the table is byte-identical to a serial, memo-less
// run.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/hierarchy.h"
#include "core/parallel.h"
#include "core/probe_memo.h"
#include "mfem_study_common.h"

using namespace flit;

int main() {
  const bench::MfemStudy study = bench::run_mfem_study();

  struct PerCompiler {
    long executions = 0;
    int searches = 0;
    int file_attempts = 0;
    int file_successes = 0;
    int symbol_attempts = 0;
    int symbol_successes = 0;
    int nothing_found = 0;  ///< link-step-only variability (Intel libm)
  };
  std::map<std::string, PerCompiler> stats;

  // Every (example, variable compilation) search, in study order.
  struct Search {
    const mfemini::MfemExampleTest* test;
    const core::CompilationOutcome* outcome;
  };
  std::vector<std::unique_ptr<mfemini::MfemExampleTest>> tests;
  std::vector<Search> searches;
  for (int ex = 1; ex <= mfemini::kNumExamples; ++ex) {
    tests.push_back(std::make_unique<mfemini::MfemExampleTest>(ex));
    const core::StudyResult& r = study.results[tests.size() - 1];
    for (const core::CompilationOutcome& o : r.outcomes) {
      if (!o.bitwise_equal()) searches.push_back({tests.back().get(), &o});
    }
  }

  const auto scope = mfemini::mfem_source_files();
  toolchain::CompilationCache cache;
  core::ProbeMemo memo;
  std::vector<core::HierarchicalOutcome> outs(searches.size());
  core::ThreadPool pool(4);
  pool.parallel_for(searches.size(), [&](std::size_t i) {
    core::BisectConfig cfg;
    cfg.baseline = toolchain::mfem_baseline();
    cfg.variable = searches[i].outcome->comp;
    cfg.scope = scope;
    cfg.memo = &memo;
    core::BisectDriver driver(&fpsem::global_code_model(), searches[i].test,
                              cfg, &cache);
    outs[i] = driver.run();
  });
  const core::ProbeMemo::Stats ms = memo.stats();
  std::fprintf(stderr,
               "  [table2] %zu searches bisected: %llu real runs, %llu "
               "memo hits\n",
               searches.size(),
               static_cast<unsigned long long>(ms.entries + ms.escaped),
               static_cast<unsigned long long>(ms.hits));

  for (std::size_t i = 0; i < searches.size(); ++i) {
    const core::HierarchicalOutcome& out = outs[i];
    PerCompiler& s = stats[searches[i].outcome->comp.compiler.name];
    ++s.searches;
    s.executions += out.executions;
    ++s.file_attempts;
    if (out.crashed) continue;  // File Bisect failure
    ++s.file_successes;
    if (out.nothing_found()) {
      ++s.nothing_found;
      continue;
    }
    for (const core::FileFinding& ff : out.findings) {
      using Status = core::FileFinding::SymbolStatus;
      if (ff.status == Status::NotSearched) continue;
      ++s.symbol_attempts;
      if (ff.status == Status::Found ||
          ff.status == Status::VanishedUnderFpic) {
        ++s.symbol_successes;  // only a crash counts as failure (paper)
      }
    }
  }

  std::printf("Table 2: compiler characterization of Bisect with MFEM\n");
  std::printf("%-28s %10s %10s %10s %10s\n", "", "g++", "clang++", "icpc",
              "total");
  const auto row = [&](const char* label, auto getter) {
    std::printf("%-28s", label);
    double total = 0.0;
    for (const char* c : {"g++", "clang++", "icpc"}) {
      const double v = getter(stats[c]);
      total += v;
      std::printf(" %10.0f", v);
    }
    std::printf(" %10.0f\n", total);
  };
  std::printf("%-28s", "average test executions");
  {
    long te = 0;
    int ts = 0;
    for (const char* c : {"g++", "clang++", "icpc"}) {
      const PerCompiler& s = stats[c];
      te += s.executions;
      ts += s.searches;
      std::printf(" %10.0f",
                  s.searches > 0 ? double(s.executions) / s.searches : 0.0);
    }
    std::printf(" %10.0f\n", ts > 0 ? double(te) / ts : 0.0);
  }
  row("total test executions", [](const PerCompiler& s) {
    return double(s.executions);
  });
  row("File Bisect attempts", [](const PerCompiler& s) {
    return double(s.file_attempts);
  });
  row("File Bisect successes", [](const PerCompiler& s) {
    return double(s.file_successes);
  });
  row("Symbol Bisect attempts", [](const PerCompiler& s) {
    return double(s.symbol_attempts);
  });
  row("Symbol Bisect successes", [](const PerCompiler& s) {
    return double(s.symbol_successes);
  });
  row("link-step-only variability", [](const PerCompiler& s) {
    return double(s.nothing_found);
  });
  std::printf(
      "\nPaper reference: avg executions 64/29/27 (30 overall); File "
      "Bisect 78/78, 24/24, 778/984 (880/1086); Symbol Bisect 51/78, "
      "24/24, 585/778 (660/880)\n");
  return 0;
}
