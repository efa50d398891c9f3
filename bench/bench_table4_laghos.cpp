// Reproduces Table 4: Bisect statistics of the Laghos experiment.  The
// compilation under test is xlc++ -O3; each row block uses a different
// trusted baseline (g++ -O2, xlc++ -O2, xlc++ -O3 -qstrict=vectorprecision),
// sweeping the digit restriction of the comparison (2/3/5/all significant
// digits) and the BisectBiggest k (1/2/all).  Reported: number of found
// files, found functions, and program executions.
//
// The 36 searches are independent, so they run on a 4-lane ThreadPool and
// the table prints in grid order.

#include <cstdio>
#include <iterator>
#include <vector>

#include "core/hierarchy.h"
#include "core/parallel.h"
#include "laghos/hydro.h"
#include "toolchain/compiler.h"

using namespace flit;

int main() {
  laghos::LaghosTest test{laghos::HydroOptions{}};

  const struct {
    const char* label;
    toolchain::Compilation comp;
  } baselines[] = {
      {"g++ -O2", toolchain::laghos_trusted_gcc()},
      {"xlc++ -O2", toolchain::laghos_trusted_xlc()},
      {"xlc++ -O3 strict", toolchain::laghos_strict_xlc()},
  };
  const int digit_cases[] = {2, 3, 5, 0};  // 0 = all digits
  const int k_cases[] = {1, 2, 0};         // 0 = all (BisectAll)

  std::printf("Table 4: Bisect statistics of the Laghos experiment "
              "(compilation under test: %s)\n",
              toolchain::laghos_variable_xlc().str().c_str());
  std::printf("%-18s %-7s | %-18s | %-18s | %-18s\n", "baseline", "digits",
              "# files (k=1,2,all)", "# funcs (k=1,2,all)",
              "# runs (k=1,2,all)");

  struct Found {
    int files = 0;
    int funcs = 0;
    int runs = 0;
  };
  const std::size_t kDigits = std::size(digit_cases);
  const std::size_t kKs = std::size(k_cases);
  std::vector<Found> found(std::size(baselines) * kDigits * kKs);
  core::ThreadPool pool(4);
  pool.parallel_for(found.size(), [&](std::size_t i) {
    core::BisectConfig cfg;
    cfg.baseline = baselines[i / (kDigits * kKs)].comp;
    cfg.variable = toolchain::laghos_variable_xlc();
    cfg.scope = laghos::laghos_source_files();
    cfg.k = k_cases[i % kKs];
    cfg.digits = digit_cases[i / kKs % kDigits];
    core::BisectDriver driver(&fpsem::global_code_model(), &test, cfg);
    const auto out = driver.run();
    found[i].files = static_cast<int>(out.findings.size());
    for (const auto& ff : out.findings) {
      found[i].funcs += static_cast<int>(ff.symbols.size());
    }
    found[i].runs = out.executions;
  });

  for (std::size_t b = 0; b < std::size(baselines); ++b) {
    for (std::size_t d = 0; d < kDigits; ++d) {
      const Found* f = &found[(b * kDigits + d) * kKs];
      char dig[8];
      if (digit_cases[d] == 0) {
        std::snprintf(dig, sizeof dig, "all");
      } else {
        std::snprintf(dig, sizeof dig, "%d", digit_cases[d]);
      }
      std::printf("%-18s %-7s | %5d %5d %5d  | %5d %5d %5d  | %5d %5d %5d\n",
                  baselines[b].label, dig, f[0].files, f[1].files,
                  f[2].files, f[0].funcs, f[1].funcs, f[2].funcs, f[0].runs,
                  f[1].runs, f[2].runs);
    }
  }
  std::printf(
      "\nPaper reference: at k=1 every configuration found 1 file / 1 "
      "function in 14-18 runs; k=all used 57-69 runs finding 5-7 "
      "functions over 2-6 files.\n");
  return 0;
}
