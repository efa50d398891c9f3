// The generated-workload frontier: what the synthetic corpus buys over
// the paper's fixed applications in verdict scoring.
//
// The Table-5 injection methodology runs over a generated corpus sized to
// >= 10x the paper's 4,376 experiments, scored against the generator's
// planted ground truth and pooled per mechanism -- the breakdown LULESH's
// hand-seeded sites cannot offer.  The paper-reproduction harness (the
// LULESH campaign at integration-test scale) runs alongside as the
// baseline, and every mechanism pool's recall must be at least the LULESH
// aggregate recall.
//
// That a generated space studies byte-identically solo, sharded and
// through the study service is a ctest contract
// (GenStudyTest.StudyIsBitwiseIdenticalAcrossShardsJobsAndSteal,
// GenStudyTest.ShardedResumeStitchesTheGeneratedSpaceByteIdentically,
// GenServe.ServedStudiesMatchSoloRunsByteForByte).

#include <cstdio>
#include <vector>

#include "core/injection.h"
#include "gen/generator.h"
#include "gen/harness.h"
#include "lulesh/domain.h"
#include "toolchain/compiler.h"

using namespace flit;

int main() {
  gen::GenSpec score_spec;
  score_spec.seed = 8;
  score_spec.count = 1536;
  const auto score_kernels = gen::generate(score_spec);
  const toolchain::Compilation build{toolchain::gcc(),
                                     toolchain::OptLevel::O2, ""};
  const gen::GenCampaignResult res =
      gen::run_injection_campaign(score_kernels, build);

  constexpr std::size_t kPaperExperiments = 4376;
  if (res.experiments < 10 * kPaperExperiments) {
    std::fprintf(stderr,
                 "FATAL: %zu experiments is below 10x the paper's %zu\n",
                 res.experiments, kPaperExperiments);
    return 1;
  }

  // The paper-reproduction baseline: the LULESH campaign at the
  // integration-test scale, aggregate-only (LULESH cannot pool by
  // mechanism -- that is the point of the generated corpus).
  lulesh::LuleshOptions lopts;
  lopts.num_elems = 16;
  lopts.stop_cycle = 12;
  lulesh::LuleshTest lulesh_test(lopts);
  core::InjectionCampaign lulesh_campaign(&fpsem::global_code_model(),
                                          &lulesh_test, build);
  lulesh_campaign.set_scope(lulesh::lulesh_source_files());
  const auto lulesh_summary =
      core::InjectionCampaign::summarize(lulesh_campaign.run_all());

  std::printf("scored campaign (%zu kernels, %zu sites, %zu experiments"
              " = %.1fx Table 5):\n",
              score_kernels.size(), res.sites, res.experiments,
              static_cast<double>(res.experiments) / kPaperExperiments);
  std::printf("  %-18s %8s %8s %10s %8s\n", "mechanism", "kernels",
              "sites", "precision", "recall");
  for (const gen::MechanismScore& pool : res.per_mechanism) {
    std::printf("  %-18s %8zu %8zu %10.3f %8.3f\n",
                gen::to_string(pool.mechanism), pool.kernels,
                pool.hazard_sites, pool.summary.precision(),
                pool.summary.recall());
  }
  std::printf("  %-18s %8zu %8zu %10.3f %8.3f\n", "total",
              score_kernels.size(), res.sites, res.total.precision(),
              res.total.recall());
  std::printf("  LULESH baseline: precision %.3f recall %.3f "
              "(%d experiments)\n",
              lulesh_summary.precision(), lulesh_summary.recall(),
              lulesh_summary.total);

  // Every mechanism pool must score at least as well as the fixed
  // application's aggregate -- the frontier is only a frontier if the
  // synthetic corpus doesn't trade scale for verdict quality.
  for (const gen::MechanismScore& pool : res.per_mechanism) {
    if (pool.summary.recall() < lulesh_summary.recall()) {
      std::fprintf(stderr,
                   "FATAL: mechanism %s recall %.3f is below the LULESH "
                   "baseline %.3f\n",
                   gen::to_string(pool.mechanism), pool.summary.recall(),
                   lulesh_summary.recall());
      return 1;
    }
  }
  return 0;
}
