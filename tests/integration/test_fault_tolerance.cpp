// Integration: the fault-isolating study engine.  With the deterministic
// injector armed, a study must complete with crashes recorded in their
// outcome slots, retries must recover transient faults to the exact
// unfaulted values, quarantined compilations must never reach the bisect
// phase, a resumed study must skip recorded rows and converge to a
// byte-identical database, and everything must stay bitwise-identical at
// any jobs count -- faults included.
//
// Faults are seeded: where a test needs "some items fail but the anchors
// survive", it searches a small seed range for a configuration with that
// shape (the search itself is deterministic, so the chosen seed is stable
// across runs and platforms).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "core/explorer.h"
#include "core/faults.h"
#include "core/report.h"
#include "core/resultsdb.h"
#include "core/runner.h"
#include "core/workflow.h"
#include "fpsem/env.h"
#include "mfemini/examples.h"
#include "toolchain/compiler.h"

namespace {

using namespace flit;
using core::FaultInjector;
using core::FaultSite;
using core::OutcomeStatus;
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

core::SpaceExplorer make_explorer(unsigned jobs = 1) {
  return core::SpaceExplorer(&fpsem::global_code_model(),
                             toolchain::mfem_baseline(),
                             toolchain::mfem_speed_reference(), jobs);
}

/// Every test runs with the global injector disarmed on entry and exit;
/// tests arm it explicitly.
class FaultToleranceTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::global().disarm(); }
  void TearDown() override {
    FaultInjector::global().disarm();
    if (!db_path_.empty()) fs::remove(db_path_);
  }

  const fs::path& temp_db() {
    db_path_ = fs::temp_directory_path() /
               ("flit_faults_" + std::string(::testing::UnitTest::GetInstance()
                                                 ->current_test_info()
                                                 ->name()) +
                ".tsv");
    fs::remove(db_path_);
    return db_path_;
  }

  fs::path db_path_;
};

// ---- injector unit behavior -----------------------------------------------

TEST_F(FaultToleranceTest, ConfigureRejectsMalformedSpecs) {
  auto& inj = FaultInjector::global();
  EXPECT_THROW(inj.configure("bogus:0.5"), std::invalid_argument);
  EXPECT_THROW(inj.configure("run"), std::invalid_argument);
  EXPECT_THROW(inj.configure("run:frog"), std::invalid_argument);
  EXPECT_THROW(inj.configure("run:0.5:frog"), std::invalid_argument);
  // Probabilities above 1 are configuration mistakes for the failure
  // sites (strtod happily parses them); only kill's batch ordinal may
  // exceed 1.
  EXPECT_THROW(inj.configure("run:1.5"), std::invalid_argument);
  EXPECT_THROW(inj.configure("compile:2"), std::invalid_argument);
  // strtoull silently wraps "-1" to ULLONG_MAX; a signed seed is rejected.
  EXPECT_THROW(inj.configure("run:0.5:-1"), std::invalid_argument);
  EXPECT_THROW(inj.configure("run:0.5:+3"), std::invalid_argument);
  // A site may appear at most once: a duplicate is a configuration
  // mistake (which spec wins?), rejected with the offending token named.
  EXPECT_THROW(inj.configure("run:0.5,run:0.1"), std::invalid_argument);
  EXPECT_THROW(inj.configure("shard:0.2:1,compile:0.1,shard:0.3"),
               std::invalid_argument);
  try {
    inj.configure("run:0.5,run:0.1");
    FAIL() << "duplicate site accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate site 'run'"),
              std::string::npos)
        << e.what();
  }
  try {
    inj.configure("run:0.5,frobnicate:0.1");
    FAIL() << "unknown site accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("frobnicate"), std::string::npos)
        << e.what();
  }
  // A rejected spec must not half-arm the injector.
  EXPECT_FALSE(inj.any_armed());

  inj.configure("run:0.5:42,link:0.1");
  EXPECT_TRUE(inj.armed(FaultSite::Run));
  EXPECT_TRUE(inj.armed(FaultSite::Link));
  EXPECT_FALSE(inj.armed(FaultSite::Compile));

  // The rank-level sites the fleet supervisor consumes parse like the
  // item-level ones.
  inj.configure("shard:0.25:7,stall:0.1:3");
  EXPECT_TRUE(inj.armed(FaultSite::Shard));
  EXPECT_TRUE(inj.armed(FaultSite::Stall));
  EXPECT_FALSE(inj.armed(FaultSite::Run));

  // The kill "rate" is a checkpoint-batch ordinal, not a probability.
  inj.configure("kill:3:0");
  EXPECT_TRUE(inj.armed(FaultSite::Kill));
}

TEST_F(FaultToleranceTest, ConfigureRejectsValuesItCannotMean) {
  auto& inj = FaultInjector::global();
  // Each of these used to arm a site: a NaN rate that never fires yet
  // bypasses every memo, kill counts that overflow size_t or silently
  // truncate, a seed that overflows 64 bits, and values strtod or
  // strtoull read past a space, a sign or a hex prefix.
  for (const char* spec :
       {"run:nan", "run:-nan", "run:inf", "kill:inf", "kill:1e300",
        "kill:2.5", "kill:18446744073709551616", "kill:-1",
        "run:0.5:99999999999999999999", "run:0.5:18446744073709551616",
        "run: 0.5", "run:0.5: 7", "run:0.5 ", "run:0x1p-1", "run:1e-1",
        "run:.5", "run:1.", "run:-0", "run:0.5:", "run:0.5:1:2"}) {
    try {
      inj.configure(spec);
      ADD_FAILURE() << "accepted '" << spec << "'";
    } catch (const std::invalid_argument& e) {
      // The error names the offending entry (each spec is one entry).
      EXPECT_NE(std::string(e.what()).find(std::string("'") + spec + "'"),
                std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(inj.any_armed()) << spec;
  }

  // Every spelling the tools, smokes and docs use still parses.
  for (const char* spec :
       {"run:0.5:42", "run:0.05:7", "kill:2:0", "kill:3:0", "shard:0.05:3",
        "stall:0.3:3", "compile:0.1", "link:0.02", "shard:1.0:1", "run:0",
        "run:1", "kill:0", "run:0.5:18446744073709551615",
        "shard:0.05:3,kill:2:0"}) {
    EXPECT_NO_THROW(inj.configure(spec)) << spec;
    EXPECT_TRUE(inj.any_armed()) << spec;
  }
  // The largest count fits and never fires early.
  inj.configure("kill:18446744073709551615");
  EXPECT_FALSE(inj.should_kill(1'000'000));
  inj.configure("kill:2");
  EXPECT_FALSE(inj.should_kill(1));
  EXPECT_TRUE(inj.should_kill(2));
}

TEST_F(FaultToleranceTest, DecisionsArePureFunctionsOfTrialScope) {
  auto& inj = FaultInjector::global();
  inj.arm(FaultSite::Run, 0.5, 7);

  std::vector<bool> first, second, retried;
  {
    FaultInjector::ScopedTrial trial("T|g++ -O2", 0);
    for (int k = 0; k < 64; ++k) {
      first.push_back(inj.should_fail(FaultSite::Run, std::to_string(k)));
    }
  }
  {
    FaultInjector::ScopedTrial trial("T|g++ -O2", 0);
    for (int k = 0; k < 64; ++k) {
      second.push_back(inj.should_fail(FaultSite::Run, std::to_string(k)));
    }
  }
  {
    FaultInjector::ScopedTrial trial("T|g++ -O2", 1);  // a retry re-rolls
    for (int k = 0; k < 64; ++k) {
      retried.push_back(inj.should_fail(FaultSite::Run, std::to_string(k)));
    }
  }
  EXPECT_EQ(first, second);
  EXPECT_NE(first, retried);
  // At rate 0.5 over 64 keys, both outcomes must occur.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST_F(FaultToleranceTest, ScopedTrialsNestAndRestore) {
  EXPECT_EQ(FaultInjector::current_context(), "");
  {
    FaultInjector::ScopedTrial outer("outer", 1);
    EXPECT_EQ(FaultInjector::current_context(), "outer");
    EXPECT_EQ(FaultInjector::current_attempt(), 1);
    {
      FaultInjector::ScopedTrial inner("inner", 2);
      EXPECT_EQ(FaultInjector::current_context(), "inner");
      EXPECT_EQ(FaultInjector::current_attempt(), 2);
    }
    EXPECT_EQ(FaultInjector::current_context(), "outer");
    EXPECT_EQ(FaultInjector::current_attempt(), 1);
  }
  EXPECT_EQ(FaultInjector::current_context(), "");
  EXPECT_EQ(FaultInjector::current_attempt(), 0);
}

TEST_F(FaultToleranceTest, KillSwitchFiresAtItsBatchOrdinal) {
  auto& inj = FaultInjector::global();
  EXPECT_FALSE(inj.should_kill(1));
  inj.configure("kill:2:0");
  EXPECT_FALSE(inj.should_kill(1));
  EXPECT_TRUE(inj.should_kill(2));
  EXPECT_TRUE(inj.should_kill(3));  // already past the threshold
}

// ---- crash containment ----------------------------------------------------

/// Arms Run faults at `rate` under successive seeds until the study over
/// `space` completes (anchors survive) and satisfies `pred`; returns the
/// study.  The search is deterministic, so this never flakes.
template <typename Pred>
std::optional<core::StudyResult> explore_with_seed(
    const core::TestBase& test, const std::vector<Compilation>& space,
    double rate, int retries, Pred pred, std::uint64_t* seed_out = nullptr) {
  auto explorer = make_explorer();
  core::ExploreOptions opts;
  opts.retry.max_attempts = retries;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    FaultInjector::global().disarm();
    FaultInjector::global().arm(FaultSite::Run, rate, seed);
    try {
      core::StudyResult r = explorer.explore(test, space, opts);
      if (pred(r)) {
        if (seed_out != nullptr) *seed_out = seed;
        return r;
      }
    } catch (const core::StudyAbort&) {
      // This seed faulted an anchor; try the next one.
    }
  }
  return std::nullopt;
}

TEST_F(FaultToleranceTest, StudyCompletesWithCrashesRecorded) {
  const auto space = small_space();
  mfemini::MfemExampleTest test(5);
  const auto reference = make_explorer().explore(test, space);

  const auto faulted = explore_with_seed(
      test, space, 0.3, 1,
      [](const core::StudyResult& r) { return r.failed_count() > 0; });
  ASSERT_TRUE(faulted.has_value()) << "no seed in [0,100) crashed an item";

  ASSERT_EQ(faulted->outcomes.size(), space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    const auto& o = faulted->outcomes[i];
    if (o.failed()) {
      EXPECT_EQ(o.status, OutcomeStatus::Crashed);
      EXPECT_NE(o.reason.find("injected fault"), std::string::npos);
      EXPECT_EQ(o.attempts, 1);
      EXPECT_EQ(o.speedup, 0.0);
      EXPECT_FALSE(o.bitwise_equal()) << "a quarantined row must never "
                                         "count as reproducible";
    } else {
      // Contained failures are invisible to the surviving outcomes.
      EXPECT_EQ(o.variability, reference.outcomes[i].variability) << i;
      EXPECT_EQ(o.cycles, reference.outcomes[i].cycles) << i;
      EXPECT_EQ(o.speedup, reference.outcomes[i].speedup) << i;
    }
  }

  const std::string accounting = core::failure_report(*faulted);
  EXPECT_NE(accounting.find("failure accounting:"), std::string::npos);
  EXPECT_NE(accounting.find("QUARANTINED"), std::string::npos);
}

TEST_F(FaultToleranceTest, RetriesRecoverTransientFaults) {
  const auto space = small_space();
  mfemini::MfemExampleTest test(5);
  const auto reference = make_explorer().explore(test, space);

  const auto recovered = explore_with_seed(
      test, space, 0.3, 4, [](const core::StudyResult& r) {
        return r.failed_count() == 0 && r.retried_count() > 0;
      });
  ASSERT_TRUE(recovered.has_value())
      << "no seed in [0,100) was fully recovered by 4 attempts";

  // A recovered study carries the exact unfaulted numbers.
  for (std::size_t i = 0; i < space.size(); ++i) {
    const auto& o = recovered->outcomes[i];
    EXPECT_EQ(o.variability, reference.outcomes[i].variability) << i;
    EXPECT_EQ(o.cycles, reference.outcomes[i].cycles) << i;
    EXPECT_EQ(o.speedup, reference.outcomes[i].speedup) << i;
    if (o.status == OutcomeStatus::Retried) {
      EXPECT_GT(o.attempts, 1);
      EXPECT_NE(o.reason.find("recovered from:"), std::string::npos);
    }
  }
}

TEST_F(FaultToleranceTest, NoKeepGoingRethrowsTheLowestIndexFailure) {
  const auto space = small_space();
  mfemini::MfemExampleTest test(5);
  std::uint64_t seed = 0;
  ASSERT_TRUE(explore_with_seed(
                  test, space, 0.3, 1,
                  [](const core::StudyResult& r) {
                    return r.failed_count() > 0;
                  },
                  &seed)
                  .has_value());

  FaultInjector::global().disarm();
  FaultInjector::global().arm(FaultSite::Run, 0.3, seed);
  core::ExploreOptions opts;
  opts.keep_going = false;
  auto explorer = make_explorer();
  EXPECT_THROW((void)explorer.explore(test, space, opts),
               core::ExecutionCrash);
}

TEST_F(FaultToleranceTest, AnchorCrashAbortsWithDiagnostic) {
  const auto space = small_space();
  mfemini::MfemExampleTest test(5);
  FaultInjector::global().arm(FaultSite::Run, 1.0);  // everything dies
  auto explorer = make_explorer();
  try {
    (void)explorer.explore(test, space);
    FAIL() << "an unrunnable baseline must abort the study";
  } catch (const core::StudyAbort& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("baseline"), std::string::npos);
    EXPECT_NE(what.find(toolchain::mfem_baseline().str()),
              std::string::npos);
  }
}

TEST_F(FaultToleranceTest, FaultedStudiesAreBitwiseIdenticalAcrossJobs) {
  const auto space = small_space();
  mfemini::MfemExampleTest test(5);
  std::uint64_t seed = 0;
  ASSERT_TRUE(explore_with_seed(
                  test, space, 0.25, 2,
                  [](const core::StudyResult& r) {
                    return r.failed_count() > 0 || r.retried_count() > 0;
                  },
                  &seed)
                  .has_value());

  FaultInjector::global().disarm();
  FaultInjector::global().arm(FaultSite::Run, 0.25, seed);
  core::ExploreOptions opts;
  opts.retry.max_attempts = 2;

  const auto reference = make_explorer(1).explore(test, space, opts);
  for (unsigned jobs : {2u, 8u}) {
    const auto parallel = make_explorer(jobs).explore(test, space, opts);
    ASSERT_EQ(parallel.outcomes.size(), reference.outcomes.size());
    for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
      const auto& a = reference.outcomes[i];
      const auto& b = parallel.outcomes[i];
      EXPECT_EQ(a.comp, b.comp) << i;
      EXPECT_EQ(a.variability, b.variability) << i;
      EXPECT_EQ(a.cycles, b.cycles) << i;
      EXPECT_EQ(a.speedup, b.speedup) << i;
      // Fault bookkeeping must be schedule-independent too.
      EXPECT_EQ(a.status, b.status) << i;
      EXPECT_EQ(a.attempts, b.attempts) << i;
      EXPECT_EQ(a.reason, b.reason) << i;
    }
  }
}

// ---- workflow containment -------------------------------------------------

TEST_F(FaultToleranceTest, QuarantinedCompilationsAreExcludedFromBisects) {
  const auto space = small_space();
  mfemini::MfemExampleTest test(13);
  core::WorkflowOptions opts;
  opts.baseline = toolchain::mfem_baseline();
  opts.speed_reference = toolchain::mfem_speed_reference();
  opts.k = 1;

  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    FaultInjector::global().disarm();
    FaultInjector::global().arm(FaultSite::Run, 0.3, seed);
    core::WorkflowReport report;
    try {
      report = core::run_workflow(&fpsem::global_code_model(), test, space,
                                  opts);
    } catch (const core::StudyAbort&) {
      continue;
    }
    if (report.study.failed_count() == 0) continue;

    // Quarantined outcomes have no measurable variability to root-cause.
    for (const auto& vb : report.bisects) {
      EXPECT_TRUE(vb.outcome.ok());
      EXPECT_GT(vb.outcome.variability, 0.0L);
    }
    // The recommendation never points at a quarantined row either.
    if (report.fastest_reproducible != nullptr) {
      EXPECT_TRUE(report.fastest_reproducible->ok());
    }
    return;
  }
  FAIL() << "no seed in [0,100) quarantined an item with live anchors";
}

TEST_F(FaultToleranceTest, WorkflowRecordsFailedBisectsInsteadOfAborting) {
  const auto space = small_space();
  mfemini::MfemExampleTest test(13);
  core::WorkflowOptions opts;
  opts.baseline = toolchain::mfem_baseline();
  opts.speed_reference = toolchain::mfem_speed_reference();
  opts.k = 1;

  // Link faults: rare enough that the 8 whole-program links of the study
  // usually survive, but the hundreds of per-probe links inside a bisect
  // make at least one search die.
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    FaultInjector::global().disarm();
    FaultInjector::global().arm(FaultSite::Link, 0.02, seed);
    core::WorkflowReport report;
    try {
      report = core::run_workflow(&fpsem::global_code_model(), test, space,
                                  opts);
    } catch (const core::StudyAbort&) {
      continue;
    }
    if (report.failed_bisect_count() == 0) continue;

    bool saw_aborted = false;
    for (const auto& vb : report.bisects) {
      if (!vb.bisect.crashed) continue;
      saw_aborted = true;
      EXPECT_FALSE(vb.bisect.crash_reason.empty());
    }
    EXPECT_TRUE(saw_aborted);
    // The failed search shows up in the Table-2-style accounting.
    const std::string text = core::workflow_report_text(report);
    EXPECT_NE(text.find("failed searches:"), std::string::npos);
    return;
  }
  FAIL() << "no seed in [0,100) produced a failed bisect";
}

// ---- checkpoint / resume --------------------------------------------------

const fpsem::FunctionId kFault = fpsem::register_fn({
    .name = "faulttest::kernel",
    .file = "faulttest/kernel.cpp",
});

/// Counts real executions so resume's skipping is observable.
class CountingTest final : public core::TestBase {
 public:
  std::string name() const override { return "FaultCountingTest"; }
  std::size_t getInputsPerRun() const override { return 0; }
  std::vector<double> getDefaultInput() const override { return {}; }
  core::TestResult run_impl(const std::vector<double>&,
                            fpsem::EvalContext& ctx) const override {
    ++runs;
    std::vector<double> v(32);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = 1.0 / (static_cast<double>(i) + 3.0);
    }
    fpsem::FpEnv env = ctx.fn(kFault);
    return static_cast<long double>(env.sum(v));
  }

  mutable std::atomic<int> runs{0};
};

TEST_F(FaultToleranceTest, ResumeSkipsRecordedRows) {
  const auto space = small_space();
  const fs::path& path = temp_db();

  core::ResultsDb db(path);
  core::ExploreOptions opts;
  opts.db = &db;
  opts.checkpoint_batch = 2;

  CountingTest first;
  const auto full = make_explorer(2).explore(first, space, opts);
  EXPECT_EQ(db.size(), space.size());
  // Anchors (2) + the 6 space entries that are not an anchor compilation.
  EXPECT_EQ(first.runs.load(), 8);

  // A second study over the same database re-runs only the anchors.
  CountingTest second;
  opts.resume = true;
  const auto resumed = make_explorer(2).explore(second, space, opts);
  EXPECT_EQ(second.runs.load(), 2);

  ASSERT_EQ(resumed.outcomes.size(), full.outcomes.size());
  for (std::size_t i = 0; i < full.outcomes.size(); ++i) {
    EXPECT_EQ(resumed.outcomes[i].comp, full.outcomes[i].comp) << i;
    EXPECT_EQ(resumed.outcomes[i].variability,
              full.outcomes[i].variability)
        << i;
    EXPECT_EQ(resumed.outcomes[i].speedup, full.outcomes[i].speedup) << i;
    EXPECT_EQ(resumed.outcomes[i].status, full.outcomes[i].status) << i;
  }
}

TEST_F(FaultToleranceTest, ResumeDoesNotRerunQuarantinedRows) {
  const auto space = small_space();
  mfemini::MfemExampleTest test(5);
  std::uint64_t seed = 0;
  ASSERT_TRUE(explore_with_seed(
                  test, space, 0.3, 1,
                  [](const core::StudyResult& r) {
                    return r.failed_count() > 0;
                  },
                  &seed)
                  .has_value());

  const fs::path& path = temp_db();
  core::ResultsDb db(path);
  core::ExploreOptions opts;
  opts.db = &db;

  FaultInjector::global().disarm();
  FaultInjector::global().arm(FaultSite::Run, 0.3, seed);
  const auto faulted = make_explorer().explore(test, space, opts);
  ASSERT_GT(faulted.failed_count(), 0u);

  // Resume with the injector disarmed: if the quarantined rows were
  // re-executed they would now succeed, so their surviving Crashed status
  // proves the resume skipped them.
  FaultInjector::global().disarm();
  opts.resume = true;
  const auto resumed = make_explorer().explore(test, space, opts);
  EXPECT_EQ(resumed.failed_count(), faulted.failed_count());
  for (std::size_t i = 0; i < faulted.outcomes.size(); ++i) {
    EXPECT_EQ(resumed.outcomes[i].status, faulted.outcomes[i].status) << i;
    EXPECT_EQ(resumed.outcomes[i].reason, faulted.outcomes[i].reason) << i;
  }
}

TEST_F(FaultToleranceTest, InterruptedStudyConvergesToByteIdenticalDb) {
  const auto space = small_space();
  mfemini::MfemExampleTest test(5);

  // Uninterrupted reference database.
  const fs::path ref_path = fs::temp_directory_path() / "flit_faults_ref.tsv";
  fs::remove(ref_path);
  {
    core::ResultsDb ref_db(ref_path);
    core::ExploreOptions opts;
    opts.db = &ref_db;
    opts.checkpoint_batch = 3;
    (void)make_explorer(4).explore(test, space, opts);
  }

  // "Killed" run: only the first half of the space completes, then a
  // fresh process resumes over the full space at a different jobs count.
  const fs::path& path = temp_db();
  {
    core::ResultsDb db(path);
    core::ExploreOptions opts;
    opts.db = &db;
    opts.checkpoint_batch = 3;
    const std::vector<Compilation> half(space.begin(),
                                        space.begin() + 4);
    (void)make_explorer(2).explore(test, half, opts);
  }
  {
    core::ResultsDb db(path);
    core::ExploreOptions opts;
    opts.db = &db;
    opts.resume = true;
    opts.checkpoint_batch = 3;
    (void)make_explorer(8).explore(test, space, opts);
  }

  std::ifstream a(ref_path), b(path);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  fs::remove(ref_path);
}

TEST_F(FaultToleranceTest, ResumedFaultedStudyPrintsTheUninterruptedReport) {
  const auto space = small_space();
  mfemini::MfemExampleTest test(5);
  constexpr int kRetries = 3;
  constexpr std::size_t kHead = 4;  // rows the "killed" run recorded
  std::uint64_t seed = 0;
  const auto full = explore_with_seed(
      test, space, 0.3, kRetries,
      [](const core::StudyResult& r) {
        return std::any_of(r.outcomes.begin(), r.outcomes.begin() + kHead,
                           [](const core::CompilationOutcome& o) {
                             return o.status == OutcomeStatus::Retried;
                           });
      },
      &seed);
  ASSERT_TRUE(full.has_value()) << "no seed in [0,100) retried a head item";

  // The same faults: the head recorded, then a resume over the whole space
  // restores the head (retried rows included) and runs the rest.
  FaultInjector::global().disarm();
  FaultInjector::global().arm(FaultSite::Run, 0.3, seed);
  core::ResultsDb db(temp_db());
  core::ExploreOptions opts;
  opts.retry.max_attempts = kRetries;
  opts.db = &db;
  const std::vector<Compilation> head(space.begin(), space.begin() + kHead);
  (void)make_explorer(2).explore(test, head, opts);
  opts.resume = true;
  const auto resumed = make_explorer(2).explore(test, space, opts);

  EXPECT_EQ(core::study_summary(resumed), core::study_summary(*full));
  EXPECT_EQ(core::failure_report(resumed), core::failure_report(*full));
}

}  // namespace
