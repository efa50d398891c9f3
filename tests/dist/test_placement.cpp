// The placement pass: every policy must produce a disjoint exact cover
// of the space (property-checked across shard counts and spaces), Static
// must reproduce the contiguous split verbatim, LPT must balance within
// its greedy bound, Affinity must keep every reasonably-sized
// fingerprint group on one rank and split only oversized ones -- and
// none of it may move a single merged byte: the sharded study, report
// CSV and converged database stay bitwise-identical across policies x
// shards x jobs x steal on/off, under injected faults, and through
// kill-then-resume with the placement policy changed mid-flight.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/explorer.h"
#include "core/faults.h"
#include "core/report.h"
#include "core/resultsdb.h"
#include "dist/coordinator.h"
#include "dist/placement.h"
#include "mfemini/examples.h"
#include "toolchain/compile_cache.h"
#include "toolchain/compiler.h"

namespace {

using namespace flit;
using core::FaultInjector;
using core::FaultSite;
using dist::CostModel;
using dist::CostProfile;
using dist::Placement;
using dist::PlacementPolicy;
using toolchain::Compilation;
using toolchain::OptLevel;

namespace fs = std::filesystem;

constexpr PlacementPolicy kPolicies[] = {
    PlacementPolicy::Static, PlacementPolicy::Cost, PlacementPolicy::Affinity};

/// The skewed space of the stealing tests: three slabs of anchor-reused
/// baseline copies plus six fresh compilations in the tail slice.
std::vector<Compilation> skewed_space() {
  std::vector<Compilation> space(18, toolchain::mfem_baseline());
  space.push_back({toolchain::gcc(), OptLevel::O3, ""});
  space.push_back({toolchain::gcc(), OptLevel::O2, "-mavx2 -mfma"});
  space.push_back(
      {toolchain::gcc(), OptLevel::O2, "-funsafe-math-optimizations"});
  space.push_back({toolchain::clang(), OptLevel::O3, "-ffast-math"});
  space.push_back({toolchain::icpc(), OptLevel::O2, ""});
  space.push_back({toolchain::icpc(), OptLevel::O2, "-fp-model precise"});
  return space;
}

CostModel plain_model() {
  return CostModel(toolchain::mfem_baseline(),
                   toolchain::mfem_speed_reference());
}

dist::ShardCoordinator make_coordinator(dist::ShardOptions opts) {
  return dist::ShardCoordinator(&fpsem::global_code_model(),
                                toolchain::mfem_baseline(),
                                toolchain::mfem_speed_reference(),
                                std::move(opts));
}

core::StudyResult reference_study(const core::TestBase& test,
                                  const std::vector<Compilation>& space) {
  core::SpaceExplorer explorer(&fpsem::global_code_model(),
                               toolchain::mfem_baseline(),
                               toolchain::mfem_speed_reference(), 1);
  return explorer.explore(test, space);
}

void expect_identical_studies(const core::StudyResult& a,
                              const core::StudyResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  EXPECT_EQ(a.test_name, b.test_name);
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].comp, b.outcomes[i].comp) << i;
    EXPECT_EQ(a.outcomes[i].variability, b.outcomes[i].variability) << i;
    EXPECT_EQ(a.outcomes[i].cycles, b.outcomes[i].cycles) << i;
    EXPECT_EQ(a.outcomes[i].speedup, b.outcomes[i].speedup) << i;
    EXPECT_EQ(a.outcomes[i].status, b.outcomes[i].status) << i;
    EXPECT_EQ(a.outcomes[i].attempts, b.outcomes[i].attempts) << i;
    EXPECT_EQ(a.outcomes[i].reason, b.outcomes[i].reason) << i;
  }
}

std::string file_bytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Exhaustive partition check: per-rank indices ascending, globally
/// disjoint, covering [0, n) exactly -- the invariant the index-addressed
/// merge leans on.
void expect_exact_cover(const Placement& p, std::size_t n, int shards) {
  ASSERT_EQ(p.shards(), static_cast<std::size_t>(shards));
  std::vector<bool> seen(n, false);
  std::size_t covered = 0;
  for (const auto& idx : p.rank_indices) {
    for (std::size_t k = 0; k < idx.size(); ++k) {
      ASSERT_LT(idx[k], n);
      if (k > 0) {
        EXPECT_LT(idx[k - 1], idx[k]);  // ascending, no repeats
      }
      EXPECT_FALSE(seen[idx[k]]) << "index " << idx[k] << " double-owned";
      seen[idx[k]] = true;
      ++covered;
    }
  }
  EXPECT_EQ(covered, n);
}

TEST(PlaceSpace, RejectsNonPositiveShardCounts) {
  const auto space = skewed_space();
  EXPECT_THROW(
      dist::place_space(space, 0, PlacementPolicy::Static, plain_model()),
      std::invalid_argument);
  EXPECT_THROW(
      dist::place_space(space, -2, PlacementPolicy::Cost, plain_model()),
      std::invalid_argument);
}

TEST(PlaceSpace, EveryPolicyCoversEverySpaceExactlyOnce) {
  const CostModel model = plain_model();
  for (const auto& space :
       {toolchain::mfem_study_space(), skewed_space(),
        std::vector<Compilation>{}}) {
    for (int shards : {1, 2, 3, 4, 5, 7}) {
      for (PlacementPolicy policy : kPolicies) {
        SCOPED_TRACE(std::string(to_string(policy)) + " x " +
                     std::to_string(shards) + " shards x " +
                     std::to_string(space.size()) + " items");
        const Placement p = dist::place_space(space, shards, policy, model);
        expect_exact_cover(p, space.size(), shards);

        // The bin loads must account for exactly the items they own.
        ASSERT_EQ(p.predicted.size(), static_cast<std::size_t>(shards));
        for (int r = 0; r < shards; ++r) {
          double sum = 0.0;
          for (std::size_t i : p.rank_indices[static_cast<std::size_t>(r)]) {
            sum += model.predict(space[i]);
          }
          EXPECT_NEAR(p.predicted[static_cast<std::size_t>(r)], sum,
                      1e-9 * (1.0 + sum))
              << "rank " << r;
        }
      }
    }
  }
}

TEST(PlaceSpace, StaticReproducesTheContiguousSplitVerbatim) {
  const auto space = toolchain::mfem_study_space();
  for (int shards : {1, 3, 4}) {
    const Placement p = dist::place_space(space, shards,
                                          PlacementPolicy::Static,
                                          plain_model());
    EXPECT_TRUE(p.contiguous);
    const dist::ShardComm comm(shards);
    const auto ranges = comm.scatter_ranges(space.size());
    for (int r = 0; r < shards; ++r) {
      const auto& idx = p.rank_indices[static_cast<std::size_t>(r)];
      ASSERT_EQ(idx.size(), ranges[static_cast<std::size_t>(r)].size());
      for (std::size_t k = 0; k < idx.size(); ++k) {
        EXPECT_EQ(idx[k], ranges[static_cast<std::size_t>(r)].begin + k);
      }
    }
  }
}

TEST(PlaceSpace, PlacementIsDeterministic) {
  const auto space = skewed_space();
  const CostModel model = plain_model();
  for (PlacementPolicy policy : kPolicies) {
    const Placement a = dist::place_space(space, 4, policy, model);
    const Placement b = dist::place_space(space, 4, policy, model);
    EXPECT_EQ(a.rank_indices, b.rank_indices) << to_string(policy);
    EXPECT_EQ(a.predicted, b.predicted) << to_string(policy);
    EXPECT_EQ(a.duplicated_groups, b.duplicated_groups) << to_string(policy);
  }
}

TEST(PlaceSpace, CostPlacementHonoursTheGreedyBalanceBound) {
  // List scheduling's invariant: a bin receives a unit only while it is
  // the least loaded, so max load <= min load + the heaviest single item.
  const auto space = toolchain::mfem_study_space();
  const CostModel model = plain_model();
  double max_item = 0.0;
  for (const Compilation& c : space) {
    max_item = std::max(max_item, model.predict(c));
  }
  for (int shards : {2, 4, 8}) {
    const Placement p =
        dist::place_space(space, shards, PlacementPolicy::Cost, model);
    const auto [lo, hi] =
        std::minmax_element(p.predicted.begin(), p.predicted.end());
    EXPECT_LE(*hi, *lo + max_item * (1.0 + 1e-12)) << shards << " shards";
  }
}

TEST(PlaceSpace, AffinityDuplicatesOnlyOversizedGroups) {
  // Affinity's contract: a fingerprint group spans more than one rank
  // only when its predicted cost exceeds the split cap (half the ideal
  // per-shard share); every other group lives on exactly one rank, and
  // the placement still avoids residencies versus the static split.
  const auto space = toolchain::mfem_study_space();
  const CostModel model = plain_model();
  double total = 0.0;
  std::map<std::uint64_t, double> group_cost;
  std::vector<std::uint64_t> group_of(space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    group_of[i] = toolchain::CompilationCache::semantics_group(space[i]);
    const double c = model.predict(space[i]);
    group_cost[group_of[i]] += c;
    total += c;
  }

  for (int shards : {2, 4}) {
    const Placement p =
        dist::place_space(space, shards, PlacementPolicy::Affinity, model);
    const double cap = total / (2.0 * shards);

    std::map<std::uint64_t, std::size_t> residencies;
    for (const auto& idx : p.rank_indices) {
      std::set<std::uint64_t> resident;
      for (std::size_t i : idx) resident.insert(group_of[i]);
      for (std::uint64_t g : resident) ++residencies[g];
    }
    EXPECT_EQ(residencies.size(), p.total_groups);
    for (const auto& [g, n] : residencies) {
      if (group_cost[g] <= cap) {
        EXPECT_EQ(n, 1u) << "group cost " << group_cost[g] << " vs cap "
                         << cap << " at " << shards << " shards";
      }
    }
    // Affinity never duplicates more than the static split; with enough
    // boundaries (4 shards) it strictly beats it.
    EXPECT_GE(p.static_duplicated_groups, p.duplicated_groups)
        << shards << " shards";
    if (shards >= 4) {
      EXPECT_GT(p.avoided_group_compiles(), 0u) << shards << " shards";
    }
  }
}

TEST(PlaceSpace, AffinitySplitsAGroupTooCostlyForOneShard) {
  // Twelve copies of one compilation at profiled cost 100 each dominate
  // four cheap singletons: the group's 1200 exceeds the ideal share, so
  // affinity must split it across ranks instead of pinning the critical
  // path -- and the split group is the *only* duplicated residency.
  // The heavy group must not be anchor-equal (anchor items collapse to
  // the near-zero reuse cost, profile or not), so it is a vectorized
  // variant rather than a baseline slab.
  std::vector<Compilation> space(12, Compilation{toolchain::gcc(),
                                                 OptLevel::O2,
                                                 "-mavx2 -mfma"});
  space.push_back({toolchain::gcc(), OptLevel::O3, ""});
  space.push_back({toolchain::clang(), OptLevel::O2, ""});
  space.push_back({toolchain::clang(), OptLevel::O3, ""});
  space.push_back({toolchain::icpc(), OptLevel::O2, ""});

  CostModel model = plain_model();
  CostProfile profile;
  profile.add(space.front().str(), 100.0);
  for (std::size_t i = 12; i < space.size(); ++i) {
    profile.add(space[i].str(), 1.0);
  }
  model.set_profile(std::move(profile));

  const Placement p =
      dist::place_space(space, 2, PlacementPolicy::Affinity, model);
  expect_exact_cover(p, space.size(), 2);
  EXPECT_GE(p.duplicated_groups, 1u);
  // Both bins carry a share of the heavy group: neither may hold all of
  // its 1200 predicted cost.
  const double total = p.predicted[0] + p.predicted[1];
  EXPECT_LT(*std::max_element(p.predicted.begin(), p.predicted.end()),
            0.75 * total);
}

// --- integration: placement never moves a merged byte --------------------

class PlacementStudyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::global().disarm();
    dir_ = fs::temp_directory_path() /
           ("flit_placement_" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::global().disarm();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

TEST_F(PlacementStudyTest, MergedBytesAreIdenticalAcrossEveryScheduleKnob) {
  const auto space = skewed_space();
  mfemini::MfemExampleTest test(5);
  const auto reference = reference_study(test, space);
  const std::string reference_csv = core::study_csv(reference);

  for (PlacementPolicy policy : kPolicies) {
    for (int shards : {1, 2, 4}) {
      for (unsigned jobs : {1u, 4u}) {
        for (bool steal : {false, true}) {
          SCOPED_TRACE(std::string(to_string(policy)) + " x " +
                       std::to_string(shards) + " shards x " +
                       std::to_string(jobs) + " jobs x steal=" +
                       (steal ? "on" : "off"));
          dist::ShardOptions opts;
          opts.shards = shards;
          opts.jobs = jobs;
          opts.steal = steal;
          opts.steal_grain = 2;
          opts.placement = policy;
          const auto sharded = make_coordinator(opts).run(test, space);
          expect_identical_studies(sharded.study, reference);
          EXPECT_EQ(core::study_csv(sharded.study), reference_csv);
        }
      }
    }
  }
}

TEST_F(PlacementStudyTest, FaultedStudiesAreIdenticalAcrossPolicies) {
  const auto space = skewed_space();
  mfemini::MfemExampleTest test(5);

  std::optional<core::StudyResult> reference;
  std::uint64_t seed = 0;
  for (; seed < 100; ++seed) {
    FaultInjector::global().disarm();
    FaultInjector::global().arm(FaultSite::Run, 0.3, seed);
    try {
      auto r = reference_study(test, space);
      if (r.failed_count() > 0) {
        reference = std::move(r);
        break;
      }
    } catch (const core::StudyAbort&) {
    }
  }
  ASSERT_TRUE(reference.has_value())
      << "no seed in [0,100) quarantined an item with live anchors";

  for (PlacementPolicy policy : kPolicies) {
    FaultInjector::global().disarm();
    FaultInjector::global().arm(FaultSite::Run, 0.3, seed);
    dist::ShardOptions opts;
    opts.shards = 4;
    opts.steal_grain = 2;
    opts.placement = policy;
    const auto sharded = make_coordinator(opts).run(test, space);
    expect_identical_studies(sharded.study, *reference);
    EXPECT_GT(sharded.study.failed_count(), 0u) << to_string(policy);
  }
}

TEST_F(PlacementStudyTest, ProfiledAffinityRunKeepsBytesAndLiftsHitRate) {
  const auto space = skewed_space();
  mfemini::MfemExampleTest test(5);

  // Prior run: static partition, converged database on disk -- both the
  // in-memory profile and the --cost-profile file path below feed off it.
  const fs::path prior_db = dir_ / "prior.tsv";
  dist::ShardedStudy prior;
  {
    core::ResultsDb db(prior_db);
    dist::ShardOptions opts;
    opts.shards = 4;
    opts.db = &db;
    prior = make_coordinator(opts).run(test, space);
  }

  dist::ShardOptions opts;
  opts.shards = 4;
  opts.serial_shards = true;
  opts.placement = PlacementPolicy::Affinity;
  opts.profile = CostProfile::from_study(prior.study);
  const auto affine = make_coordinator(opts).run(test, space);
  expect_identical_studies(affine.study, prior.study);

  // The skewed space scatters the baseline fingerprint across three
  // static slices; affinity re-unites it, so the fleet re-misses fewer
  // objects and the report must say so.
  EXPECT_GT(affine.placement.avoided_group_compiles(), 0u);
  EXPECT_GE(affine.aggregate_cache().hit_rate(),
            prior.aggregate_cache().hit_rate());
  const std::string report = dist::shard_report_text(affine);
  EXPECT_NE(report.find("placement: affinity"), std::string::npos) << report;
  EXPECT_NE(report.find("redundant compiles avoided"), std::string::npos)
      << report;
  EXPECT_NE(report.find("fleet cache"), std::string::npos) << report;

  // The file-backed profile route (the --cost-profile flag) must load
  // the same observations and keep the same bytes.
  dist::ShardOptions file_opts;
  file_opts.shards = 4;
  file_opts.placement = PlacementPolicy::Cost;
  file_opts.cost_profile = prior_db;
  const auto placed = make_coordinator(file_opts).run(test, space);
  expect_identical_studies(placed.study, prior.study);
  EXPECT_TRUE(placed.placement.profiled);
}

TEST_F(PlacementStudyTest, ResumeStitchesAcrossAPolicyChange) {
  // A run killed under the static partition must resume to the same
  // converged bytes under affinity placement: checkpoints are keyed by
  // (test, compilation), not by which rank once owned the row.
  const auto space = skewed_space();
  mfemini::MfemExampleTest test(5);
  const int shards = 4;

  const fs::path ref_conv = dir_ / "ref-converged.tsv";
  {
    core::ResultsDb conv(ref_conv);
    dist::ShardOptions opts;
    opts.shards = shards;
    opts.shard_db_dir = dir_ / "ref-shards";
    opts.db = &conv;
    (void)make_coordinator(opts).run(test, space);
  }

  // "Killed" static-partition run: every shard checkpointed only the
  // first half of its slice.
  const fs::path part_dir = dir_ / "part-shards";
  fs::create_directories(part_dir);
  const dist::ShardComm comm(shards);
  for (int r = 0; r < shards; ++r) {
    const auto rg = comm.range(r, space.size());
    const std::size_t half = rg.size() / 2;
    if (half == 0) continue;
    core::ResultsDb shard_db(
        dist::ShardCoordinator::shard_db_path(part_dir, r, shards));
    core::SpaceExplorer explorer(&fpsem::global_code_model(),
                                 toolchain::mfem_baseline(),
                                 toolchain::mfem_speed_reference(), 1);
    core::ExploreOptions eo;
    eo.db = &shard_db;
    const std::vector<Compilation> prefix(space.begin() + rg.begin,
                                          space.begin() + rg.begin + half);
    (void)explorer.explore(test, prefix, eo);
  }

  for (PlacementPolicy policy :
       {PlacementPolicy::Cost, PlacementPolicy::Affinity}) {
    const fs::path resume_dir =
        dir_ / ("resume-" + std::string(to_string(policy)));
    fs::create_directories(resume_dir);
    for (int r = 0; r < shards; ++r) {
      const auto src =
          dist::ShardCoordinator::shard_db_path(part_dir, r, shards);
      if (fs::exists(src)) {
        fs::copy_file(src, dist::ShardCoordinator::shard_db_path(
                               resume_dir, r, shards));
      }
    }
    const fs::path conv_path =
        dir_ / ("resumed-" + std::string(to_string(policy)) + ".tsv");
    core::ResultsDb conv(conv_path);
    dist::ShardOptions opts;
    opts.shards = shards;
    opts.shard_db_dir = resume_dir;
    opts.db = &conv;
    opts.placement = policy;
    const auto resumed = make_coordinator(opts).resume(test, space);
    std::size_t prefilled = 0;
    for (const auto& rep : resumed.shards) prefilled += rep.prefilled;
    EXPECT_GT(prefilled, 0u) << to_string(policy);
    EXPECT_EQ(file_bytes(conv_path), file_bytes(ref_conv))
        << to_string(policy);
  }
}

/// One schedule of the skewed-fleet workload, summed over its examples.
struct SkewedFleet {
  std::vector<core::StudyResult> studies;
  double max_shard_fresh_cycles = 0.0;
  std::size_t stolen = 0;
  toolchain::CacheStats cache;
};

SkewedFleet run_skewed_fleet(const std::vector<Compilation>& space,
                             bool steal, PlacementPolicy policy,
                             const CostProfile* profile) {
  dist::ShardOptions opts;
  opts.shards = 4;
  opts.serial_shards = true;  // the deterministic modeled-cycle schedule
  opts.steal = steal;
  opts.placement = policy;
  if (profile != nullptr) opts.profile = *profile;
  const auto coord = make_coordinator(opts);
  SkewedFleet fleet;
  for (int ex = 1; ex <= 3; ++ex) {
    mfemini::MfemExampleTest test(ex);
    dist::ShardedStudy s = coord.run(test, space);
    fleet.max_shard_fresh_cycles += s.max_shard_fresh_cycles();
    for (const auto& rep : s.shards) fleet.stolen += rep.stolen;
    fleet.cache += s.aggregate_cache();
    fleet.studies.push_back(std::move(s.study));
  }
  return fleet;
}

// The scheduler's balance bars on a cost-skewed fleet: three slices of
// anchor-reused baseline copies, then the full 244-compilation study
// space, so every fresh run sits in the last of 4 slices.  Under the
// serial driver the fleet is clocked in modeled cycles, which makes every
// figure below a deterministic function of the space and the schedule.
TEST_F(PlacementStudyTest, SkewedFleetStealingBalancesAndAffinityCutsMisses) {
  const auto tail = toolchain::mfem_study_space();
  std::vector<Compilation> space(3 * tail.size(), toolchain::mfem_baseline());
  space.insert(space.end(), tail.begin(), tail.end());

  const SkewedFleet fixed =
      run_skewed_fleet(space, false, PlacementPolicy::Static, nullptr);
  const SkewedFleet stealing =
      run_skewed_fleet(space, true, PlacementPolicy::Static, nullptr);
  // The placed runs refine the cost model from the stealing run's first
  // study: the --cost-profile workflow's "prior run", in-process.
  const CostProfile profile = CostProfile::from_study(stealing.studies[0]);
  const SkewedFleet cost =
      run_skewed_fleet(space, true, PlacementPolicy::Cost, &profile);
  const SkewedFleet affinity =
      run_skewed_fleet(space, true, PlacementPolicy::Affinity, &profile);

  for (const SkewedFleet* run : {&stealing, &cost, &affinity}) {
    ASSERT_EQ(run->studies.size(), fixed.studies.size());
    for (std::size_t i = 0; i < fixed.studies.size(); ++i) {
      expect_identical_studies(run->studies[i], fixed.studies[i]);
      EXPECT_EQ(core::study_csv(run->studies[i]),
                core::study_csv(fixed.studies[i]));
    }
  }

  // Stealing must cut the slowest shard's modeled wall, not just shuffle
  // work.
  EXPECT_EQ(fixed.stolen, 0u);
  EXPECT_GT(stealing.stolen, 0u);
  EXPECT_GE(fixed.max_shard_fresh_cycles,
            1.5 * stealing.max_shard_fresh_cycles);
  // The predicted placements keep that balance (stealing mops up the
  // residue) ...
  EXPECT_LE(cost.max_shard_fresh_cycles,
            1.05 * stealing.max_shard_fresh_cycles);
  EXPECT_LE(affinity.max_shard_fresh_cycles,
            1.05 * stealing.max_shard_fresh_cycles);
  // ... and affinity compiles each fingerprint once per fleet, not once
  // per shard.  Memo hits skip compile, so lookups fall with misses and
  // the hit rate is not the measure; the miss count is.
  EXPECT_LT(affinity.cache.misses, stealing.cache.misses);
}

}  // namespace
