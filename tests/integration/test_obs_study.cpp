// Integration: the observability subsystem against the real engines.
// Telemetry must be strictly off the result path -- studies, databases and
// reports are bitwise-identical with tracing on or off, at any
// (jobs, shards) combination, with or without injected faults -- while the
// telemetry itself must be valid (Chrome JSON with monotone per-lane
// timestamps) and reconcile with the study's own accounting.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "../obs/json_check.h"
#include "core/explorer.h"
#include "core/faults.h"
#include "core/probe_memo.h"
#include "core/report.h"
#include "core/resultsdb.h"
#include "core/workflow.h"
#include "dist/coordinator.h"
#include "mfemini/examples.h"
#include "obs/export.h"
#include "obs/session.h"
#include "toolchain/compiler.h"

namespace {

using namespace flit;
using core::FaultInjector;
using core::FaultSite;
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

core::StudyResult run_study(const core::TestBase& test,
                            const std::vector<Compilation>& space,
                            int shards, unsigned jobs) {
  if (shards <= 1) {
    core::SpaceExplorer explorer(&fpsem::global_code_model(),
                                 toolchain::mfem_baseline(),
                                 toolchain::mfem_speed_reference(), jobs);
    return explorer.explore(test, space);
  }
  dist::ShardOptions opts;
  opts.shards = shards;
  opts.jobs = jobs;
  dist::ShardCoordinator coord(&fpsem::global_code_model(),
                               toolchain::mfem_baseline(),
                               toolchain::mfem_speed_reference(), opts);
  return coord.run(test, space).study;
}

void expect_identical_studies(const core::StudyResult& a,
                              const core::StudyResult& b,
                              const std::string& what) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << what;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].comp, b.outcomes[i].comp) << what << " #" << i;
    EXPECT_EQ(a.outcomes[i].variability, b.outcomes[i].variability)
        << what << " #" << i;
    EXPECT_EQ(a.outcomes[i].cycles, b.outcomes[i].cycles) << what << " #" << i;
    EXPECT_EQ(a.outcomes[i].speedup, b.outcomes[i].speedup)
        << what << " #" << i;
    EXPECT_EQ(a.outcomes[i].status, b.outcomes[i].status) << what << " #" << i;
    EXPECT_EQ(a.outcomes[i].attempts, b.outcomes[i].attempts)
        << what << " #" << i;
    EXPECT_EQ(a.outcomes[i].reason, b.outcomes[i].reason) << what << " #" << i;
  }
}

std::string file_bytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Quiesces the global observability session between cases: zeroes the
/// metrics, drains the tracer, and disables tracing.
class ObsStudyTest : public ::testing::Test {
 protected:
  void SetUp() override { quiesce(); }
  void TearDown() override { quiesce(); }

  static void quiesce() {
    FaultInjector::global().disarm();
    obs::metrics().reset();
    obs::tracer().set_enabled(false);
    (void)obs::tracer().drain_sorted();
  }
};

TEST_F(ObsStudyTest, TracingDoesNotPerturbResultsAcrossJobsAndShards) {
  const auto space = small_space();
  mfemini::MfemExampleTest test(5);

  obs::tracer().set_enabled(false);
  const auto reference = run_study(test, space, 1, 1);
  const std::string reference_csv = core::study_csv(reference);

  for (int shards : {1, 2}) {
    for (unsigned jobs : {1u, 4u}) {
      obs::tracer().set_enabled(true);
      const auto traced = run_study(test, space, shards, jobs);
      (void)obs::tracer().drain_sorted();
      obs::tracer().set_enabled(false);
      const std::string what = std::to_string(shards) + " shards, " +
                               std::to_string(jobs) + " jobs";
      expect_identical_studies(traced, reference, what);
      EXPECT_EQ(core::study_csv(traced), reference_csv) << what;
    }
  }
}

TEST_F(ObsStudyTest, TracedEventContentIsIdenticalAcrossJobsCounts) {
  const auto space = small_space();
  mfemini::MfemExampleTest test(3);

  std::optional<std::vector<obs::TraceEvent>> reference;
  for (unsigned jobs : {1u, 2u, 4u}) {
    obs::tracer().set_enabled(true);
    {
      // Fresh root context per run: the caller thread's logical clock
      // starts at zero, as it does in a fresh process (one CLI run).
      obs::ScopedItem root(0, obs::kNoIndex, 0);
      (void)run_study(test, space, 1, jobs);
    }
    auto events = obs::tracer().drain_sorted();
    obs::tracer().set_enabled(false);
    ASSERT_FALSE(events.empty());
    if (!reference.has_value()) {
      reference = std::move(events);
    } else {
      EXPECT_EQ(events, *reference) << jobs << " jobs";
    }
  }
}

TEST_F(ObsStudyTest,
       TracedEventContentIsIdenticalAcrossJobsCountsOverTheStudySpace) {
  // The full space repeats most executables, so the execution memo
  // answers most items, and which item of a key runs first depends on the
  // schedule: the trace must show neither.  The reference is a memo-less
  // trace -- an armed injector (rate 0, so nothing fires) bypasses the
  // memo and every item really compiles, links and runs.
  const auto space = toolchain::mfem_study_space();
  mfemini::MfemExampleTest test(7);
  const auto trace = [&](unsigned jobs) {
    obs::tracer().set_enabled(true);
    {
      obs::ScopedItem root(0, obs::kNoIndex, 0);
      (void)run_study(test, space, 1, jobs);
    }
    auto events = obs::tracer().drain_sorted();
    obs::tracer().set_enabled(false);
    return events;
  };

  FaultInjector::global().arm(FaultSite::Run, 0.0);
  const std::vector<obs::TraceEvent> reference = trace(1);
  FaultInjector::global().disarm();
  ASSERT_FALSE(reference.empty());
  for (unsigned jobs : {1u, 2u, 4u}) {
    EXPECT_EQ(trace(jobs), reference) << jobs << " jobs";
  }
}

TEST_F(ObsStudyTest, FullSpaceStudiesAreIdenticalWithTracingOnAndOff) {
  // Several examples over the full space, a fresh explorer each, untraced
  // and then traced twice: tracing leaves every outcome as it was, and the
  // two traced runs record the same events.
  const auto space = toolchain::mfem_study_space();
  const auto run_all = [&](bool traced) {
    obs::tracer().set_enabled(traced);
    std::vector<core::StudyResult> studies;
    {
      obs::ScopedItem root(0, obs::kNoIndex, 0);
      for (int ex = 1; ex <= 4; ++ex) {
        const mfemini::MfemExampleTest test(ex);
        studies.push_back(run_study(test, space, 1, 1));
      }
    }
    auto events = obs::tracer().drain_sorted();
    obs::tracer().set_enabled(false);
    return std::make_pair(std::move(studies), std::move(events));
  };

  const auto [plain, no_events] = run_all(false);
  EXPECT_TRUE(no_events.empty());
  const auto [first, first_events] = run_all(true);
  const auto [second, second_events] = run_all(true);
  ASSERT_FALSE(first_events.empty());
  EXPECT_EQ(second_events, first_events);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const std::string what = "MFEM_ex" + std::to_string(i + 1);
    expect_identical_studies(first[i], plain[i], what);
    expect_identical_studies(second[i], plain[i], what);
  }
}

TEST_F(ObsStudyTest, MemoHitsEmitTheSpansOfTheirMiss) {
  const auto space = toolchain::mfem_study_space();
  mfemini::MfemExampleTest test(7);

  obs::tracer().set_enabled(true);
  core::SpaceExplorer explorer(&fpsem::global_code_model(),
                               toolchain::mfem_baseline(),
                               toolchain::mfem_speed_reference(), 1);
  {
    obs::ScopedItem root(0, obs::kNoIndex, 0);
    (void)explorer.explore(test, space);
  }
  const auto events = obs::tracer().drain_sorted();
  obs::tracer().set_enabled(false);
  ASSERT_GT(explorer.memo().stats().hits, 0u);

  // Each item's build/link/run events without its identity: what a hit
  // must reproduce from its key's miss.
  struct Phase {
    std::string name;
    std::uint32_t begin_tick = 0;
    std::uint32_t end_tick = 0;
    double cost = 0.0;
    bool operator==(const Phase&) const = default;
  };
  std::map<std::uint64_t, std::vector<Phase>> phases;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "build" || e.name == "link" || e.name == "run") {
      phases[e.index].push_back({e.name, e.begin_tick, e.end_tick, e.cost});
    }
  }

  std::map<std::string, std::size_t> first_of_key;
  std::size_t compared = 0;
  for (std::size_t i = 0; i < space.size(); ++i) {
    // Items equal to an anchor reuse its run and open no build span.
    if (space[i] == toolchain::mfem_baseline() ||
        space[i] == toolchain::mfem_speed_reference()) {
      continue;
    }
    ASSERT_EQ(phases[i].size(), 3u) << space[i].str();
    EXPECT_GT(phases[i][2].cost, 0.0) << space[i].str();
    const auto [it, first] = first_of_key.emplace(
        core::ProbeMemo::key_of_build(test.name(), space[i]), i);
    if (first) continue;
    EXPECT_EQ(phases[i], phases[it->second])
        << space[i].str() << " vs " << space[it->second].str();
    ++compared;
  }
  EXPECT_GT(compared, space.size() / 2);
}

TEST_F(ObsStudyTest, FaultedStudiesAreIdenticalWithTracingOnAndOff) {
  const auto space = small_space();
  mfemini::MfemExampleTest test(5);

  // Deterministic seed search (the test_fault_tolerance idiom): a run
  // fault that quarantines at least one item while the anchors survive.
  std::optional<core::StudyResult> reference;
  std::uint64_t seed = 0;
  for (; seed < 100; ++seed) {
    FaultInjector::global().disarm();
    FaultInjector::global().arm(FaultSite::Run, 0.3, seed);
    try {
      auto r = run_study(test, space, 1, 1);
      if (r.failed_count() > 0) {
        reference = std::move(r);
        break;
      }
    } catch (const core::StudyAbort&) {
    }
  }
  ASSERT_TRUE(reference.has_value())
      << "no seed in [0,100) quarantined an item with live anchors";

  for (int shards : {1, 2}) {
    for (unsigned jobs : {1u, 4u}) {
      FaultInjector::global().disarm();
      FaultInjector::global().arm(FaultSite::Run, 0.3, seed);
      obs::tracer().set_enabled(true);
      const auto traced = run_study(test, space, shards, jobs);
      const auto events = obs::tracer().drain_sorted();
      obs::tracer().set_enabled(false);
      expect_identical_studies(traced, *reference,
                               std::to_string(shards) + " shards");
      EXPECT_GT(traced.failed_count(), 0u);
      EXPECT_FALSE(events.empty());
    }
  }
}

TEST_F(ObsStudyTest, DatabaseBytesAreIdenticalWithTracingOn) {
  const auto space = small_space();
  mfemini::MfemExampleTest test(5);
  const fs::path dir =
      fs::temp_directory_path() / "flit_obs_db_identity";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto record = [&](const fs::path& p, bool traced) {
    obs::tracer().set_enabled(traced);
    core::ResultsDb db(p);
    core::SpaceExplorer explorer(&fpsem::global_code_model(),
                                 toolchain::mfem_baseline(),
                                 toolchain::mfem_speed_reference(), 2);
    core::ExploreOptions eo;
    eo.db = &db;
    eo.checkpoint_batch = 3;
    (void)explorer.explore(test, space, eo);
    (void)obs::tracer().drain_sorted();
    obs::tracer().set_enabled(false);
  };

  record(dir / "plain.tsv", false);
  record(dir / "traced.tsv", true);
  const std::string plain = file_bytes(dir / "plain.tsv");
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(file_bytes(dir / "traced.tsv"), plain);
  fs::remove_all(dir);
}

TEST_F(ObsStudyTest, ChromeExportIsValidJsonWithMonotonePerLaneTimestamps) {
  const auto space = small_space();
  mfemini::MfemExampleTest test(2);

  obs::tracer().set_enabled(true);
  (void)run_study(test, space, 2, 2);
  const auto events = obs::tracer().drain_sorted();
  obs::tracer().set_enabled(false);
  ASSERT_FALSE(events.empty());

  const std::string json = obs::chrome_trace_json(events);
  ASSERT_TRUE(flit::test::is_valid_json(json));

  // Walk every event's (tid, ts) in stream order: within a lane the
  // synthetic timeline must never step backwards.
  std::map<int, long long> last_ts;
  std::size_t pos = 0, checked = 0;
  while ((pos = json.find("\"tid\":", pos)) != std::string::npos) {
    pos += 6;
    const int tid = std::stoi(json.substr(pos));
    const std::size_t ts_pos = json.find("\"ts\":", pos);
    ASSERT_NE(ts_pos, std::string::npos);
    const long long ts = std::stoll(json.substr(ts_pos + 5));
    if (auto it = last_ts.find(tid); it != last_ts.end()) {
      ASSERT_GE(ts, it->second) << "tid " << tid;
    }
    last_ts[tid] = ts;
    pos = ts_pos;
    ++checked;
  }
  EXPECT_EQ(checked, events.size());
  EXPECT_EQ(last_ts.size(), 2u);  // one lane per shard

  // Every study item appears in the trace: one compilation span per
  // space entry.
  std::size_t compilation_spans = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "compilation") ++compilation_spans;
  }
  EXPECT_EQ(compilation_spans, space.size());
}

TEST_F(ObsStudyTest, MetricsReconcileWithStudyAccounting) {
  const auto space = small_space();
  mfemini::MfemExampleTest test(5);

  // Arm a quarantining configuration so every counter is exercised.
  std::uint64_t seed = 0;
  std::optional<core::StudyResult> study;
  for (; seed < 100; ++seed) {
    FaultInjector::global().disarm();
    FaultInjector::global().arm(FaultSite::Run, 0.25, seed);
    obs::metrics().reset();
    try {
      auto r = run_study(test, space, 1, 2);
      if (r.failed_count() > 0 && r.retried_count() == 0) {
        study = std::move(r);
        break;
      }
    } catch (const core::StudyAbort&) {
    }
  }
  ASSERT_TRUE(study.has_value());

  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  EXPECT_EQ(snap.counters.at("explore.executed"), space.size());
  EXPECT_EQ(snap.counters.at("explore.quarantined"), study->failed_count());
  EXPECT_EQ(snap.counters.at("explore.retried"), study->retried_count());
  EXPECT_GT(snap.counters.at("faults.injected"), 0u);
  EXPECT_EQ(snap.counters.at("faults.injected.run"),
            snap.counters.at("faults.injected"));

  // Attempts: one per successful item, the full retry budget (1 here) per
  // quarantined item -- so with retries=1 attempts == executed.
  EXPECT_EQ(snap.counters.at("explore.attempts"), space.size());

  // The cycles histogram saw exactly the executed ok items.
  std::size_t ok_items = 0;
  for (const auto& o : study->outcomes) {
    if (o.ok()) ++ok_items;
  }
  EXPECT_EQ(snap.histograms.at("explore.cycles").count, ok_items);

  // The cache split can race, but lookups = hits + misses is exact and
  // nonzero.
  EXPECT_GT(snap.counters.at("cache.hits") + snap.counters.at("cache.misses"),
            0u);
}

TEST_F(ObsStudyTest, RetriedItemsCountIntoRetriesAndAttempts) {
  const auto space = small_space();
  mfemini::MfemExampleTest test(5);

  std::optional<core::StudyResult> study;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    FaultInjector::global().disarm();
    FaultInjector::global().arm(FaultSite::Run, 0.25, seed);
    obs::metrics().reset();
    core::SpaceExplorer explorer(&fpsem::global_code_model(),
                                 toolchain::mfem_baseline(),
                                 toolchain::mfem_speed_reference(), 2);
    core::ExploreOptions eo;
    eo.retry.max_attempts = 3;
    try {
      auto r = explorer.explore(test, space, eo);
      if (r.retried_count() > 0) {
        study = std::move(r);
        break;
      }
    } catch (const core::StudyAbort&) {
    }
  }
  ASSERT_TRUE(study.has_value()) << "no seed produced a retried item";

  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  EXPECT_EQ(snap.counters.at("explore.retried"), study->retried_count());
  // Attempts exceed items exactly by the extra attempts the outcomes record.
  std::uint64_t expected_attempts = 0;
  for (const auto& o : study->outcomes) {
    expected_attempts += static_cast<std::uint64_t>(o.attempts);
  }
  EXPECT_EQ(snap.counters.at("explore.attempts"), expected_attempts);
}

TEST_F(ObsStudyTest, ShardCyclesHistogramsMergeIntoTheAggregate) {
  const auto space = small_space();
  mfemini::MfemExampleTest test(2);

  dist::ShardOptions opts;
  opts.shards = 3;
  dist::ShardCoordinator coord(&fpsem::global_code_model(),
                               toolchain::mfem_baseline(),
                               toolchain::mfem_speed_reference(), opts);
  const auto sharded = coord.run(test, space);

  obs::HistogramData manual{obs::cycle_buckets()};
  std::uint64_t items = 0;
  for (const auto& rep : sharded.shards) {
    manual += rep.cycles;
    items += rep.cycles.count;
  }
  EXPECT_EQ(sharded.aggregate_cycles(), manual);
  EXPECT_EQ(items, space.size());  // every ok item observed exactly once

  // The merged extremes bound every shard's extremes.
  for (const auto& rep : sharded.shards) {
    if (rep.cycles.count == 0) continue;
    EXPECT_LE(manual.min, rep.cycles.min);
    EXPECT_GE(manual.max, rep.cycles.max);
  }

  const std::string report = dist::shard_report_text(sharded);
  EXPECT_NE(report.find("cycles min"), std::string::npos) << report;
}

TEST_F(ObsStudyTest, WorkflowBisectCountersMatchTheReport) {
  const auto space = small_space();
  mfemini::MfemExampleTest test(13);

  core::WorkflowOptions opts;
  opts.baseline = toolchain::mfem_baseline();
  opts.speed_reference = toolchain::mfem_speed_reference();
  opts.max_bisects = 3;
  opts.k = 1;
  opts.jobs = 2;

  obs::metrics().reset();
  const auto report = core::run_workflow(&fpsem::global_code_model(), test,
                                         space, opts);
  ASSERT_FALSE(report.bisects.empty());

  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  EXPECT_EQ(snap.counters.at("workflow.bisects"), report.bisects.size());
  EXPECT_EQ(snap.counters.at("workflow.failed_bisects"),
            report.failed_bisect_count());
  EXPECT_EQ(snap.counters.at("bisect.searches"), report.bisects.size());

  // bisect.executions sums the per-search execution counts the report
  // carries -- the headline cost metric reconciles.
  std::uint64_t expected = 0;
  for (const auto& b : report.bisects) {
    expected += static_cast<std::uint64_t>(
        b.bisect.executions > 0 ? b.bisect.executions : 0);
  }
  EXPECT_EQ(snap.counters.at("bisect.executions"), expected);
}

}  // namespace
