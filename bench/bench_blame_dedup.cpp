// The blame-dedup campaign at matrix scale, measured two ways:
//
//  Phase A -- the full Table-1 study (19 mini-MFEM examples x 244
//  compilations): every variability-flagged cell is bisected through one
//  shared probe memo, and the memoized campaign must execute at least 40%
//  fewer *real* programs than independent per-cell bisects would (the sum
//  of the cells' logical execution counts, which is exactly what
//  memo-less bisects run).  That the report does not move under any
//  shards x jobs x steal x memo mix is a ctest
//  (Campaign.ReportIsBitwiseIdenticalAcrossShardsJobsStealAndMemo).
//
//  Phase B -- a 72-kernel generated corpus with planted ground truth:
//  clustering the campaign's blame sites must co-cluster kernels with the
//  same labeled mechanism and separate the rest, at pairwise precision
//  and recall 1.0 (gen/dedup.h).

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "blame/campaign.h"
#include "core/explorer.h"
#include "core/registry.h"
#include "gen/dedup.h"
#include "gen/suite.h"
#include "mfemini/examples.h"
#include "toolchain/compiler.h"
#include "toolchain/semantics_rules.h"

using namespace flit;

namespace {

blame::BlameOptions options_for(int shards, unsigned jobs, bool steal) {
  blame::BlameOptions opts;
  opts.baseline = toolchain::mfem_baseline();
  opts.k = 0;
  opts.shard.shards = shards;
  opts.shard.jobs = jobs;
  opts.shard.steal = steal;
  return opts;
}

}  // namespace

int main() {
  const std::vector<toolchain::Compilation> space =
      toolchain::mfem_study_space();

  // ---------------------------------------- Phase A: the Table-1 matrix
  core::TestRegistry mfem_registry;
  for (int ex = 1; ex <= mfemini::kNumExamples; ++ex) {
    mfem_registry.add("MFEM_ex" + std::to_string(ex), [ex] {
      return std::unique_ptr<core::TestBase>(
          std::make_unique<mfemini::MfemExampleTest>(ex));
    });
  }

  const core::SpaceExplorer explorer(&fpsem::global_code_model(),
                                     toolchain::mfem_baseline(),
                                     toolchain::mfem_speed_reference(), 8);
  blame::CampaignInput input;
  for (int ex = 1; ex <= mfemini::kNumExamples; ++ex) {
    const mfemini::MfemExampleTest test(ex);
    input.merge(blame::input_from_study(explorer.explore(test, space)));
  }

  // The measuring run: four lanes, memo on.  The campaign's logical
  // execution count is memo-invariant, so the independent-bisect baseline
  // is simply the sum of each cell's own logical count -- exactly what
  // per-cell bisects without a shared memo run for the same findings.
  // Real executions are memo misses: distinct executables actually run.
  // The memo is single-flight and the pair phase starts after the last
  // cell, so each phase's real count is the same at any lane count.
  const blame::BlameReport measured = blame::run_campaign(
      &fpsem::global_code_model(), mfem_registry, input, options_for(1, 4, false));

  long long independent = 0;
  long long cell_hits = 0;
  for (const blame::CellOutcome& cell : measured.cells) {
    independent += cell.bisect.executions;
    cell_hits += cell.bisect.memo_hits;
  }
  const long long cells_real = independent - cell_hits;
  const long long total_real = measured.executions - measured.memo_hits;
  const long long pairs_real = total_real - cells_real;
  const double savings =
      independent > 0
          ? 1.0 - static_cast<double>(cells_real) /
                      static_cast<double>(independent)
          : 0.0;

  std::printf("blame-dedup campaign over the Table-1 matrix (%d examples x "
              "%zu compilations):\n",
              mfemini::kNumExamples, space.size());
  std::printf("  cells %zu, clusters %zu, failed searches %zu\n",
              measured.cells.size(), measured.clusters.size(),
              measured.failed_cells.size());
  std::printf("  independent per-cell executions %lld, memoized real "
              "executions %lld (%.1f%% saved)\n",
              independent, cells_real, 100.0 * savings);
  std::printf("  adversarial re-verification: %lld additional real "
              "executions (campaign total %lld, still %.1f%% under the "
              "independent bisects)\n",
              pairs_real, total_real,
              100.0 * (1.0 - static_cast<double>(total_real) /
                                 static_cast<double>(independent)));

  // The dedup claim: the memoized bisect sweep must run >= 40% fewer real
  // programs than independent per-cell bisects for the same findings.
  if (savings < 0.40) {
    std::fprintf(stderr,
                 "FATAL: probe-memo dedup saved only %.1f%% of the "
                 "independent executions (need >= 40%%)\n",
                 100.0 * savings);
    return 1;
  }
  // And the adversarial phase -- work the independent approach does not
  // do at all -- must not eat the whole win: the campaign, pairs
  // included, still runs fewer real programs than the naive sweep.
  if (total_real >= independent) {
    std::fprintf(stderr,
                 "FATAL: campaign real executions %lld exceed the "
                 "independent per-cell bisects %lld\n",
                 total_real, independent);
    return 1;
  }

  // ------------------------------- Phase B: label-scored gen-corpus dedup
  //
  // The ground-truth labels certify response to the *canonical* mechanism
  // toggles (gen/suite.cpp): contraction on, reassociation at width 4,
  // fast transcendentals, subnormal flushing, unsafe rewrites.
  // Compilations that bend other knobs -- x87 extended precision, icpc's
  // width-2 lane split, UB-exploiting vectorizers -- also perturb the
  // kernels, but value-dependently: whether a particular operand stream
  // moves under a width-2 reassociation is luck, not label.  Scoring the
  // clustering against the labels is therefore only meaningful over the
  // mechanism-attributable subspace, and Phase B restricts to it.
  const fpsem::FpSemantics base_sem =
      toolchain::derive_semantics(toolchain::mfem_baseline());
  std::vector<toolchain::Compilation> gen_space;
  for (const toolchain::Compilation& c : space) {
    const fpsem::FpSemantics s = toolchain::derive_semantics(c);
    if (s.extended_precision == base_sem.extended_precision &&
        s.exploits_ub == base_sem.exploits_ub &&
        (s.reassoc_width == base_sem.reassoc_width || s.reassoc_width == 4)) {
      gen_space.push_back(c);
    }
  }

  gen::GenSpec spec;
  spec.seed = 11;
  spec.count = 72;
  fpsem::CodeModel gen_model;
  core::TestRegistry gen_registry;
  const gen::InstalledSuite suite =
      gen::install_suite(spec, gen_model, &gen_registry);

  const core::SpaceExplorer gen_explorer(&gen_model,
                                         toolchain::mfem_baseline(),
                                         toolchain::mfem_speed_reference(), 8);
  const auto gen_test = gen_registry.create(gen::kSuiteTestName);
  const blame::CampaignInput gen_input =
      blame::input_from_study(gen_explorer.explore(*gen_test, gen_space));

  blame::BlameOptions gen_opts = options_for(2, 4, true);
  const blame::BlameReport gen_report = blame::run_campaign(
      &gen_model, gen_registry, gen_input, gen_opts);

  // A kernel's dedup signature is the sorted set of blame sites naming its
  // model file; same-mechanism kernels must share it exactly.
  std::map<std::string, std::vector<std::string>> sites_of_file;
  for (const blame::BlameCluster& cluster : gen_report.clusters) {
    for (const std::string& file : cluster.files) {
      sites_of_file[file].push_back(cluster.id);
    }
  }
  std::vector<gen::GroundTruthLabel> labels;
  labels.reserve(suite.kernels.size());
  for (const gen::InstalledKernel& ik : suite.kernels) {
    labels.push_back(ik.kernel.label());
  }
  const gen::DedupScore score =
      gen::score_dedup(labels, [&](const gen::GroundTruthLabel& l) {
        auto it = sites_of_file.find(l.file);
        if (it == sites_of_file.end()) return std::string("<unclustered>");
        std::vector<std::string> ids = it->second;
        std::sort(ids.begin(), ids.end());
        std::string sig;
        for (const std::string& id : ids) sig += id + ",";
        return sig;
      });

  std::printf("label-scored dedup over a %zu-kernel generated corpus "
              "(%zu mechanism-attributable compilations):\n",
              suite.kernels.size(), gen_space.size());
  std::printf("  cells %zu, clusters %zu, precision %.3f, recall %.3f\n",
              gen_report.cells.size(), gen_report.clusters.size(),
              score.precision(), score.recall());

  if (score.precision() != 1.0 || score.recall() != 1.0) {
    std::fprintf(stderr,
                 "FATAL: gen-corpus dedup scored precision %.3f recall "
                 "%.3f (need 1.0/1.0)\n",
                 score.precision(), score.recall());
    for (const gen::GroundTruthLabel& l : labels) {
      auto it = sites_of_file.find(l.file);
      std::string sig;
      if (it != sites_of_file.end()) {
        std::vector<std::string> ids = it->second;
        std::sort(ids.begin(), ids.end());
        for (const std::string& id : ids) sig += id + ",";
      }
      std::fprintf(stderr, "  %-16s %-32s %s\n", gen::to_string(l.mechanism),
                   l.kernel.c_str(), sig.c_str());
    }
    return 1;
  }
  return 0;
}
