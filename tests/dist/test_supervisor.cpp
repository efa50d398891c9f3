// The fleet supervisor suite (ctest label "supervisor"): rank-level fault
// containment over the sharded engine.
//
// Contracts under test:
//   * StealQueue's orphan protocol: released and dead-rank work is
//     re-claimable by any rank, stealing on or off, and claimable() is an
//     exact introspection of claim().
//   * The supervised virtual-clock loop's unfaulted bytes are identical
//     to the single-process explorer at every placement policy x shards x
//     jobs x steal setting (force_supervised).
//   * With FLIT_FAULTS=shard/stall armed, the supervisor recovers and the
//     merged study / CSV / converged database are byte-identical to an
//     unfaulted run -- and deterministic across repeated faulted runs.
//   * Budget exhaustion throws FleetAbort by default; allow_partial marks
//     the unrecoverable cells Degraded in the study, CSV and database,
//     and a later resume re-runs them, converging to unfaulted bytes.
//   * A supervised checkpointed run resumes from its shard databases to
//     the same converged bytes.
//   * ShardCoordinator rejects an unusable --shard-db-dir at
//     construction, not at the first checkpoint.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "core/faults.h"
#include "core/report.h"
#include "core/resultsdb.h"
#include "dist/comm.h"
#include "dist/coordinator.h"
#include "mfemini/examples.h"
#include "toolchain/compiler.h"

namespace {

using namespace flit;
using core::FaultInjector;
using core::FaultSite;
using core::OutcomeStatus;
using dist::ShardRange;
using dist::StealQueue;
using toolchain::Compilation;
using toolchain::OptLevel;

namespace fs = std::filesystem;

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

dist::ShardCoordinator make_supervisor(dist::ShardOptions opts) {
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

void expect_identical(const core::StudyResult& a, const core::StudyResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  EXPECT_EQ(core::study_csv(a), core::study_csv(b));
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const auto& x = a.outcomes[i];
    const auto& y = b.outcomes[i];
    EXPECT_EQ(x.comp.str(), y.comp.str()) << "index " << i;
    EXPECT_EQ(x.status, y.status) << "index " << i;
    EXPECT_EQ(x.variability, y.variability) << "index " << i;
    EXPECT_EQ(x.speedup, y.speedup) << "index " << i;
  }
}

std::string file_bytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Every test runs with the global injector disarmed on entry and exit.
class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::global().disarm(); }
  void TearDown() override {
    FaultInjector::global().disarm();
    if (!dir_.empty()) fs::remove_all(dir_);
  }

  const fs::path& temp_dir() {
    dir_ = fs::temp_directory_path() /
           ("flit_supervisor_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    return dir_;
  }

  fs::path dir_;
};

// ---- StealQueue orphan protocol -------------------------------------------

TEST_F(SupervisorTest, ReleasedClaimIsReassignedFifo) {
  StealQueue q({{0, 4}, {4, 8}}, 2);
  const auto c0 = q.claim(0);
  ASSERT_TRUE(c0.has_value());
  EXPECT_EQ(c0->range.begin, 0u);
  EXPECT_EQ(c0->range.end, 2u);
  EXPECT_FALSE(c0->reassigned);

  // Rank 0 died mid-claim: the range returns to the orphan pool and rank
  // 1 -- its own slot still full -- drains its own work first, then the
  // orphan, flagged reassigned with the original owner as victim.
  q.release(c0->range, 0);
  q.mark_dead(0);
  std::size_t reassigned_items = 0;
  while (const auto c = q.claim(1)) {
    if (c->reassigned) {
      reassigned_items += c->range.size();
      EXPECT_EQ(c->victim, 0);
      EXPECT_FALSE(c->stolen);
    }
  }
  // The released claim (2 items) plus the dead rank's unclaimed tail
  // (positions 2..4).
  EXPECT_EQ(reassigned_items, 4u);
  EXPECT_EQ(q.stats(1).reassigned, 4u);
  EXPECT_TRUE(q.drained());
}

TEST_F(SupervisorTest, OrphansClaimableWithStealingDisabled) {
  StealQueue q({{0, 4}, {4, 8}}, 4, /*steal_enabled=*/false);
  // With stealing off, rank 1 cannot touch rank 0's live slot...
  ASSERT_TRUE(q.claim(1).has_value());   // own work
  EXPECT_FALSE(q.claim(1).has_value());  // no steal
  EXPECT_FALSE(q.claimable(1));
  // ...but a dead rank's work is recovery, not load balancing.
  q.mark_dead(0);
  EXPECT_TRUE(q.claimable(1));
  const auto c = q.claim(1);
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(c->reassigned);
  EXPECT_EQ(c->range.begin, 0u);
  EXPECT_EQ(c->range.end, 4u);
  EXPECT_TRUE(q.drained());
}

TEST_F(SupervisorTest, DrainedAccountsForOrphans) {
  StealQueue q({{0, 2}}, 2);
  const auto c = q.claim(0);
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(q.drained());
  q.release(c->range, 0);
  EXPECT_FALSE(q.drained());  // orphaned work is still work
  ASSERT_TRUE(q.claim(0).has_value());
  EXPECT_TRUE(q.drained());
}

// ---- supervised loop, unfaulted: byte-identity ----------------------------

TEST_F(SupervisorTest, ForceSupervisedUnfaultedBytesMatchReference) {
  mfemini::MfemExampleTest test(5);
  const auto space = small_space();
  const core::StudyResult ref = reference_study(test, space);
  const std::string ref_csv = core::study_csv(ref);

  for (const auto policy :
       {dist::PlacementPolicy::Static, dist::PlacementPolicy::Cost,
        dist::PlacementPolicy::Affinity}) {
    for (const int shards : {1, 2, 4}) {
      for (const unsigned jobs : {1u, 4u}) {
        for (const bool steal : {true, false}) {
          dist::ShardOptions opts;
          opts.shards = shards;
          opts.jobs = jobs;
          opts.steal = steal;
          opts.steal_grain = 2;
          opts.placement = policy;
          opts.force_supervised = true;
          const auto fleet = make_supervisor(opts);
          const dist::ShardedStudy s = fleet.run(test, space);
          EXPECT_TRUE(s.supervisor.enabled);
          EXPECT_EQ(s.supervisor.rank_faults, 0u);
          EXPECT_EQ(s.supervisor.degraded_cells, 0u);
          EXPECT_EQ(core::study_csv(s.study), ref_csv)
              << "policy " << to_string(policy) << " shards " << shards
              << " jobs " << jobs << " steal " << steal;
        }
      }
    }
  }
}

TEST_F(SupervisorTest, UnarmedRunDelegatesToCoordinator) {
  mfemini::MfemExampleTest test(5);
  const auto space = small_space();
  dist::ShardOptions opts;
  opts.shards = 2;
  const auto fleet = make_supervisor(opts);
  const dist::ShardedStudy s = fleet.run(test, space);
  // No rank-level site armed: the fast path ran and the report carries no
  // supervisor lines (the historical bytes).
  EXPECT_FALSE(s.supervisor.enabled);
  EXPECT_EQ(dist::shard_report_text(s).find("supervisor"), std::string::npos);
  expect_identical(s.study, reference_study(test, space));
}

// ---- shard/stall fault recovery -------------------------------------------

TEST_F(SupervisorTest, ShardFaultRecoveryConvergesToUnfaultedBytes) {
  mfemini::MfemExampleTest test(5);
  const auto space = small_space();
  const std::string ref_csv =
      core::study_csv(reference_study(test, space));

  dist::ShardOptions opts;
  opts.shards = 2;
  opts.steal_grain = 2;
  opts.max_restarts = 8;  // ample budget: recovery must succeed

  FaultInjector::global().configure("shard:0.3:1");
  const auto fleet = make_supervisor(opts);
  const dist::ShardedStudy a = fleet.run(test, space);
  EXPECT_TRUE(a.supervisor.enabled);
  EXPECT_GT(a.supervisor.rank_faults, 0u);
  EXPECT_GT(a.supervisor.restarts, 0u);
  EXPECT_GT(a.supervisor.backoff_cycles, 0.0);
  EXPECT_EQ(a.supervisor.degraded_cells, 0u);
  EXPECT_EQ(core::study_csv(a.study), ref_csv);

  // Deterministic under faults: the same seed replays the same schedule,
  // fault decisions and accounting.
  const dist::ShardedStudy b = fleet.run(test, space);
  EXPECT_EQ(core::study_csv(b.study), ref_csv);
  EXPECT_EQ(b.supervisor.rank_faults, a.supervisor.rank_faults);
  EXPECT_EQ(b.supervisor.restarts, a.supervisor.restarts);
  EXPECT_EQ(b.supervisor.reassigned_claims, a.supervisor.reassigned_claims);
  EXPECT_EQ(b.supervisor.backoff_cycles, a.supervisor.backoff_cycles);
  EXPECT_EQ(b.supervisor.fleet_cycles, a.supervisor.fleet_cycles);
  EXPECT_EQ(dist::shard_report_text(b), dist::shard_report_text(a));
}

TEST_F(SupervisorTest, StallRecoveryChargesDeadlineAndConverges) {
  mfemini::MfemExampleTest test(5);
  const auto space = small_space();
  const std::string ref_csv =
      core::study_csv(reference_study(test, space));

  dist::ShardOptions opts;
  opts.shards = 2;
  opts.steal_grain = 2;
  opts.max_restarts = 8;
  opts.stall_deadline = 4096.0;

  FaultInjector::global().configure("stall:0.3:3");
  const auto fleet = make_supervisor(opts);
  const dist::ShardedStudy s = fleet.run(test, space);
  EXPECT_GT(s.supervisor.stalls, 0u);
  EXPECT_EQ(s.supervisor.rank_faults, 0u);
  EXPECT_EQ(core::study_csv(s.study), ref_csv);

  // The stalled rank paid the detection deadline plus its backoff on the
  // virtual clock, so the fleet clock exceeds an unfaulted supervised
  // run's.
  FaultInjector::global().disarm();
  dist::ShardOptions clean = opts;
  clean.force_supervised = true;
  const dist::ShardedStudy unfaulted = make_supervisor(clean).run(test, space);
  EXPECT_GT(s.supervisor.fleet_cycles, unfaulted.supervisor.fleet_cycles);
}

TEST_F(SupervisorTest, StealDisabledStillRecovers) {
  mfemini::MfemExampleTest test(5);
  const auto space = small_space();
  const std::string ref_csv =
      core::study_csv(reference_study(test, space));

  dist::ShardOptions opts;
  opts.shards = 2;
  opts.steal = false;  // recovery must not depend on load balancing
  opts.steal_grain = 2;
  opts.max_restarts = 8;

  FaultInjector::global().configure("shard:0.3:1");
  const dist::ShardedStudy s = make_supervisor(opts).run(test, space);
  EXPECT_GT(s.supervisor.rank_faults, 0u);
  EXPECT_EQ(core::study_csv(s.study), ref_csv);
}

TEST_F(SupervisorTest, PlainCoordinatorRunSupervisesArmedRankFaults) {
  mfemini::MfemExampleTest test(5);
  const auto space = small_space();
  const fs::path dir = temp_dir();
  fs::create_directories(dir);

  // A plain coordinator, no wrapper: arming a rank-level site is what
  // makes the run supervised.
  const auto run_into = [&](const fs::path& db_path) {
    core::ResultsDb db(db_path);
    dist::ShardOptions opts;
    opts.shards = 2;
    opts.steal_grain = 2;
    opts.db = &db;
    const dist::ShardCoordinator coord(&fpsem::global_code_model(),
                                       toolchain::mfem_baseline(),
                                       toolchain::mfem_speed_reference(),
                                       opts);
    return coord.run(test, space);
  };
  const dist::ShardedStudy clean = run_into(dir / "clean.tsv");
  EXPECT_FALSE(clean.supervisor.enabled);

  FaultInjector::global().configure("shard:0.3:1");
  const dist::ShardedStudy faulted = run_into(dir / "faulted.tsv");
  EXPECT_TRUE(faulted.supervisor.enabled);
  EXPECT_GT(faulted.supervisor.rank_faults, 0u);
  EXPECT_GT(faulted.supervisor.restarts, 0u);
  EXPECT_EQ(faulted.supervisor.degraded_cells, 0u);
  expect_identical(faulted.study, clean.study);
  EXPECT_EQ(file_bytes(dir / "faulted.tsv"), file_bytes(dir / "clean.tsv"));
}

// ---- budget exhaustion: FleetAbort and degraded mode ----------------------

TEST_F(SupervisorTest, BudgetExhaustionThrowsFleetAbortByDefault) {
  mfemini::MfemExampleTest test(5);
  const auto space = small_space();
  dist::ShardOptions opts;
  opts.shards = 2;
  opts.max_restarts = 0;
  FaultInjector::global().configure("shard:1.0:1");
  const auto fleet = make_supervisor(opts);
  EXPECT_THROW((void)fleet.run(test, space), dist::FleetAbort);
}

TEST_F(SupervisorTest, AllowPartialMarksDegradedEverywhere) {
  mfemini::MfemExampleTest test(5);
  const auto space = small_space();
  const fs::path db_path = temp_dir() / "converged.tsv";
  fs::create_directories(db_path.parent_path());
  core::ResultsDb db(db_path);

  dist::ShardOptions opts;
  opts.shards = 2;
  opts.max_restarts = 0;
  opts.allow_partial = true;
  opts.db = &db;
  FaultInjector::global().configure("shard:1.0:1");
  const dist::ShardedStudy s = make_supervisor(opts).run(test, space);

  // Every cell degraded: rate 1.0 kills each rank on its first claim.
  EXPECT_EQ(s.supervisor.degraded_cells, space.size());
  EXPECT_EQ(s.supervisor.dead_ranks, 2u);
  EXPECT_EQ(s.study.degraded_count(), space.size());
  EXPECT_EQ(s.study.failed_count(), space.size());

  // The degraded marking shows up in every artifact: CSV status column,
  // failure report, summary, merge report, and the converged database.
  EXPECT_NE(core::study_csv(s.study).find(",degraded,"), std::string::npos);
  EXPECT_NE(core::failure_report(s.study).find("DEGRADED"),
            std::string::npos);
  EXPECT_NE(core::study_summary(s.study).find("degraded"),
            std::string::npos);
  EXPECT_NE(dist::shard_report_text(s).find("cell(s) degraded"),
            std::string::npos);
  db.reload();
  ASSERT_EQ(db.size(), space.size());
  for (const core::ResultRow& row : db.rows()) {
    EXPECT_EQ(row.status, OutcomeStatus::Degraded);
  }
}

TEST_F(SupervisorTest, ResumeRerunsDegradedRowsAndConverges) {
  mfemini::MfemExampleTest test(5);
  const auto space = small_space();
  const fs::path dir = temp_dir();
  fs::create_directories(dir);

  // A partially degraded database: rate 1.0, budget 0, no checkpoints.
  {
    core::ResultsDb db(dir / "study.tsv");
    dist::ShardOptions opts;
    opts.shards = 2;
    opts.max_restarts = 0;
    opts.allow_partial = true;
    opts.db = &db;
    FaultInjector::global().configure("shard:1.0:1");
    (void)make_supervisor(opts).run(test, space);
  }
  FaultInjector::global().disarm();

  // Degraded rows are infrastructure failures: unlike quarantined rows, a
  // resume re-runs them, converging to the bytes an unfaulted run writes.
  core::ResultsDb db(dir / "study.tsv");
  core::SpaceExplorer explorer(&fpsem::global_code_model(),
                               toolchain::mfem_baseline(),
                               toolchain::mfem_speed_reference(), 1);
  core::ExploreOptions eo;
  eo.db = &db;
  eo.resume = true;
  const core::StudyResult resumed = explorer.explore(test, space, eo);
  EXPECT_EQ(resumed.degraded_count(), 0u);
  expect_identical(resumed, reference_study(test, space));

  core::ResultsDb ref_db(dir / "ref.tsv");
  ref_db.record(reference_study(test, space));
  EXPECT_EQ(file_bytes(dir / "study.tsv"), file_bytes(dir / "ref.tsv"));
}

// ---- supervised checkpoint/resume stitching -------------------------------

TEST_F(SupervisorTest, SupervisedCheckpointsResumeToConvergedBytes) {
  mfemini::MfemExampleTest test(5);
  const auto space = small_space();
  const fs::path dir = temp_dir();

  dist::ShardOptions opts;
  opts.shards = 2;
  opts.steal_grain = 2;
  opts.checkpoint_batch = 2;
  opts.shard_db_dir = dir / "shards";
  opts.max_restarts = 8;

  // Faulted, supervised, checkpointed run writes the converged database.
  core::ResultsDb db_a(dir / "a.tsv");
  {
    dist::ShardOptions o = opts;
    o.db = &db_a;
    FaultInjector::global().configure("shard:0.3:1");
    const dist::ShardedStudy s = make_supervisor(o).run(test, space);
    EXPECT_GT(s.supervisor.rank_faults, 0u);
  }
  FaultInjector::global().disarm();

  // A resume over the shard checkpoints (faults disarmed: fast path)
  // prefills everything and converges to the same bytes.
  core::ResultsDb db_b(dir / "b.tsv");
  {
    dist::ShardOptions o = opts;
    o.db = &db_b;
    const dist::ShardedStudy s = make_supervisor(o).resume(test, space);
    EXPECT_FALSE(s.supervisor.enabled);
    std::size_t prefilled = 0;
    for (const auto& rep : s.shards) prefilled += rep.prefilled;
    EXPECT_EQ(prefilled, space.size());
  }
  EXPECT_EQ(file_bytes(dir / "a.tsv"), file_bytes(dir / "b.tsv"));
}

// ---- recovery cost on the full study space --------------------------------

/// Supervised runs of examples 1-3 over the full study space at 2
/// shards, with the injector in whatever state the caller armed; the
/// supervisor counters are summed across the examples.
struct FaultedFleet {
  std::vector<core::StudyResult> studies;
  dist::SupervisorSummary totals;
};

FaultedFleet run_faulted_fleet(int max_restarts, bool allow_partial) {
  const auto space = toolchain::mfem_study_space();
  dist::ShardOptions opts;
  opts.shards = 2;
  opts.max_restarts = max_restarts;
  opts.allow_partial = allow_partial;
  opts.force_supervised = true;  // the unfaulted baseline takes the same path
  const auto fleet = make_supervisor(opts);
  FaultedFleet run;
  for (int ex = 1; ex <= 3; ++ex) {
    mfemini::MfemExampleTest test(ex);
    dist::ShardedStudy s = fleet.run(test, space);
    run.totals.rank_faults += s.supervisor.rank_faults;
    run.totals.reassigned_claims += s.supervisor.reassigned_claims;
    run.totals.degraded_cells += s.supervisor.degraded_cells;
    run.totals.fleet_cycles += s.supervisor.fleet_cycles;
    run.studies.push_back(std::move(s.study));
  }
  return run;
}

TEST_F(SupervisorTest, RecoveryKeepsTheFleetClockWithinAQuarterOfUnfaulted) {
  const FaultedFleet baseline = run_faulted_fleet(2, false);

  // shard:0.05:3 is seed-picked to fire on this workload (the injector
  // hashes site x seed x rank context x claim key); a generous restart
  // budget keeps every fault recoverable.
  FaultInjector::global().configure("shard:0.05:3");
  const FaultedFleet recovered = run_faulted_fleet(8, false);
  FaultInjector::global().disarm();
  EXPECT_GT(recovered.totals.rank_faults, 0u);
  EXPECT_GT(recovered.totals.reassigned_claims, 0u);
  ASSERT_EQ(recovered.studies.size(), baseline.studies.size());
  for (std::size_t i = 0; i < baseline.studies.size(); ++i) {
    expect_identical(recovered.studies[i], baseline.studies[i]);
  }
  // Restart backoff and claim reassignment stay cheap in modeled cycles.
  EXPECT_GT(baseline.totals.fleet_cycles, 0.0);
  EXPECT_LE(recovered.totals.fleet_cycles,
            1.25 * baseline.totals.fleet_cycles);

  // Every claim roll faults and no restart is allowed: the whole fleet
  // dies and allow_partial degrades every cell instead of aborting.
  FaultInjector::global().configure("shard:1.0:1");
  const FaultedFleet degraded = run_faulted_fleet(0, true);
  EXPECT_EQ(degraded.totals.degraded_cells,
            3 * toolchain::mfem_study_space().size());
}

// ---- option and directory validation --------------------------------------

TEST_F(SupervisorTest, RejectsInvalidPolicyOptions) {
  dist::ShardOptions opts;
  opts.max_restarts = -1;
  EXPECT_THROW((void)make_supervisor(opts), std::invalid_argument);
  opts.max_restarts = 2;
  opts.backoff_base = 0.0;
  EXPECT_THROW((void)make_supervisor(opts), std::invalid_argument);
  opts.backoff_base = 1024.0;
  opts.stall_deadline = -1.0;
  EXPECT_THROW((void)make_supervisor(opts), std::invalid_argument);
}

TEST_F(SupervisorTest, ShardDbDirValidatedAtConstruction) {
  const fs::path dir = temp_dir();
  fs::create_directories(dir);
  // A plain file where the directory should be: create_directories cannot
  // succeed, and the coordinator must say so up front with an actionable
  // message -- not a raw stream exception at the first checkpoint.
  const fs::path clash = dir / "not-a-directory";
  { std::ofstream(clash) << "occupied\n"; }
  dist::ShardOptions opts;
  opts.shards = 2;
  opts.shard_db_dir = clash;
  try {
    (void)make_supervisor(opts);
    FAIL() << "unusable shard-db-dir accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shard-db directory"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
