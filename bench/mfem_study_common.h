#pragma once

// Shared driver for the MFEM-study benches (Table 1, Figures 4-6,
// Table 2): runs the 19 mini-MFEM examples over the 244-compilation space
// exactly once per binary and exposes the per-example StudyResults.

#include <vector>

#include "core/explorer.h"
#include "mfemini/examples.h"
#include "toolchain/compiler.h"

namespace flit::bench {

struct MfemStudy {
  std::vector<toolchain::Compilation> space;
  std::vector<core::StudyResult> results;  ///< index 0 = example 1
};

/// Runs every example over the full space.
inline MfemStudy run_mfem_study() {
  MfemStudy study;
  study.space = toolchain::mfem_study_space();
  core::SpaceExplorer explorer(&fpsem::global_code_model(),
                               toolchain::mfem_baseline(),
                               toolchain::mfem_speed_reference());
  for (int ex = 1; ex <= mfemini::kNumExamples; ++ex) {
    mfemini::MfemExampleTest test(ex);
    study.results.push_back(explorer.explore(test, study.space));
  }
  return study;
}

}  // namespace flit::bench
