// The blame-dedup campaign suite (ctest label "blame"):
//   * ProbeMemo keying and sharing semantics -- the key covers exactly
//     the linked executable's behavioural content, concurrent misses on
//     one key run it once, a run that throws leaves the key to the next
//     prober, and probes answered from the memo still count as logical
//     executions,
//   * concurrent BisectDrivers over one CompilationCache + ProbeMemo
//     produce findings and `executions` counts identical to a serial
//     memo-less run (the satellite contract),
//   * the single-flight memo runs each distinct executable once, so real
//     executions match the memo's entries at any concurrency,
//   * the campaign report and its trace are bitwise-identical across
//     shards x jobs x steal x memo,
//   * mechanism signatures, compilation distance, study/db enumeration,
//     adversarial pairs, and the workflow's --max-bisects skip line.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "blame/campaign.h"
#include "core/explorer.h"
#include "core/hierarchy.h"
#include "core/parallel.h"
#include "core/probe_memo.h"
#include "core/registry.h"
#include "core/report.h"
#include "core/resultsdb.h"
#include "core/workflow.h"
#include "fpsem/code_model.h"
#include "gen/dedup.h"
#include "gen/suite.h"
#include "obs/export.h"
#include "obs/session.h"
#include "toolchain/compile_cache.h"
#include "toolchain/compiler.h"
#include "toolchain/linker.h"

namespace flit {
namespace {

// ------------------------------------------------------------ probe memo

toolchain::Executable make_exe(std::size_t n, fpsem::FnBinding b) {
  toolchain::Executable exe;
  exe.map = fpsem::SemanticsMap::uniform(n, b);
  exe.from_injected.assign(n, false);
  return exe;
}

TEST(ProbeMemo, KeyCoversTestNameSemanticsCostAndCrashState) {
  fpsem::FnBinding base;
  const toolchain::Executable exe = make_exe(3, base);

  const std::string k = core::ProbeMemo::key_of("T", exe);
  EXPECT_EQ(k, core::ProbeMemo::key_of("T", exe));
  EXPECT_NE(k, core::ProbeMemo::key_of("U", exe));

  fpsem::FnBinding fma = base;
  fma.sem.contract_fma = true;
  EXPECT_NE(k, core::ProbeMemo::key_of("T", make_exe(3, fma)));

  fpsem::FnBinding wide = base;
  wide.sem.reassoc_width = 4;
  EXPECT_NE(k, core::ProbeMemo::key_of("T", make_exe(3, wide)));

  fpsem::FnBinding cost = base;
  cost.cost.time_scale *= 2.0;
  EXPECT_NE(k, core::ProbeMemo::key_of("T", make_exe(3, cost)));

  toolchain::Executable crashing = make_exe(3, base);
  crashing.crashes = true;
  crashing.crash_reason = "abi";
  EXPECT_NE(k, core::ProbeMemo::key_of("T", crashing));

  toolchain::Executable injected = make_exe(3, base);
  injected.from_injected[1] = true;
  EXPECT_NE(k, core::ProbeMemo::key_of("T", injected));
}

core::ProbeMemo::Entry answer_with_cycles(double cycles) {
  core::RunOutput out;
  out.cycles = cycles;
  return core::ProbeMemo::Entry{false, "", out};
}

TEST(ProbeMemo, ConcurrentProbesOfOneKeyRunItOnce) {
  core::ProbeMemo memo;
  std::atomic<int> runs{0};
  constexpr std::size_t kProbers = 8;
  std::vector<core::ProbeMemo::Answer> answers(kProbers);
  core::ThreadPool pool(4);
  pool.parallel_for(kProbers, [&](std::size_t i) {
    answers[i] = memo.probe("k", [&] {
      ++runs;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return answer_with_cycles(5.0);
    });
  });
  EXPECT_EQ(runs.load(), 1);
  std::size_t hits = 0;
  for (const core::ProbeMemo::Answer& a : answers) {
    EXPECT_EQ(a.entry.output.cycles, 5.0);
    hits += a.hit ? 1 : 0;
  }
  EXPECT_EQ(hits, kProbers - 1);
  const core::ProbeMemo::Stats s = memo.stats();
  EXPECT_EQ(s.probes, kProbers);
  EXPECT_EQ(s.hits, kProbers - 1);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ProbeMemo, AThrowingRunReleasesItsClaim) {
  core::ProbeMemo memo;
  EXPECT_THROW((void)memo.probe("k",
                                []() -> core::ProbeMemo::Entry {
                                  throw std::runtime_error("lost runner");
                                }),
               std::runtime_error);
  // Nothing was stored and the key is free: the next probe runs it.
  const core::ProbeMemo::Answer first =
      memo.probe("k", [] { return answer_with_cycles(3.0); });
  EXPECT_FALSE(first.hit);
  const core::ProbeMemo::Answer second =
      memo.probe("k", [] { return answer_with_cycles(9.0); });
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(second.entry.output.cycles, 3.0);
  EXPECT_EQ(memo.stats().entries, 1u);
}

// ------------------------------------------- signatures and distance

TEST(MechanismSignature, IdenticalCompilationsAreNone) {
  const toolchain::Compilation b = toolchain::mfem_baseline();
  EXPECT_EQ(blame::mechanism_signature(b, b), "none");
}

TEST(MechanismSignature, FmaFlagsNameContraction) {
  const toolchain::Compilation b = toolchain::mfem_baseline();
  toolchain::Compilation v = b;
  v.opt = toolchain::OptLevel::O3;
  v.flag = "-mavx2 -mfma";
  const std::string sig = blame::mechanism_signature(b, v);
  EXPECT_NE(sig.find("contract_fma"), std::string::npos) << sig;
}

TEST(MechanismSignature, IntelLinkDriverNamesLinkFastLibm) {
  const toolchain::Compilation b = toolchain::mfem_baseline();
  toolchain::Compilation v;
  v.compiler = toolchain::icpc();
  v.opt = toolchain::OptLevel::O0;
  const std::string sig = blame::mechanism_signature(b, v);
  EXPECT_NE(sig.find("link_fast_libm"), std::string::npos) << sig;
}

TEST(CompilationDistance, CountsCompilerOptAndFlagSplits) {
  toolchain::Compilation a = toolchain::mfem_baseline();  // g++ -O0
  EXPECT_EQ(blame::compilation_distance(a, a), 0);

  toolchain::Compilation flags = a;
  flags.flag = "-mavx2 -mfma";
  EXPECT_EQ(blame::compilation_distance(a, flags), 2);

  toolchain::Compilation opt = a;
  opt.opt = toolchain::OptLevel::O3;
  EXPECT_EQ(blame::compilation_distance(a, opt), 30);

  toolchain::Compilation other = a;
  other.compiler = toolchain::clang();
  EXPECT_EQ(blame::compilation_distance(a, other), 100);

  // Shared tokens do not count: only the symmetric difference does.
  toolchain::Compilation x = a, y = a;
  x.flag = "-funsafe-math-optimizations -mfma";
  y.flag = "-funsafe-math-optimizations -mavx2";
  EXPECT_EQ(blame::compilation_distance(x, y), 2);
  EXPECT_EQ(blame::compilation_distance(y, x), 2);
}

// -------------------------------------------------------- shared corpus

/// One generated corpus explored over a deterministic 31-point slice of
/// the MFEM study space, built once and shared by every campaign test.
struct Corpus {
  fpsem::CodeModel model;
  core::TestRegistry registry;
  gen::InstalledSuite suite;
  std::vector<toolchain::Compilation> space;
  core::StudyResult study;
  blame::CampaignInput input;
};

Corpus& corpus() {
  static Corpus* c = [] {
    auto* cc = new Corpus;
    gen::GenSpec spec;
    spec.seed = 5;
    spec.count = 6;
    cc->suite = gen::install_suite(spec, cc->model, &cc->registry);
    const std::vector<toolchain::Compilation> full =
        toolchain::mfem_study_space();
    for (std::size_t i = 0; i < full.size(); i += 8) {
      cc->space.push_back(full[i]);
    }
    const core::SpaceExplorer explorer(&cc->model, toolchain::mfem_baseline(),
                                       toolchain::mfem_speed_reference(), 4);
    const auto test = cc->registry.create(gen::kSuiteTestName);
    cc->study = explorer.explore(*test, cc->space);
    cc->input = blame::input_from_study(cc->study);
    return cc;
  }();
  return *c;
}

blame::BlameOptions base_options() {
  blame::BlameOptions opts;
  opts.baseline = toolchain::mfem_baseline();
  opts.k = 0;
  return opts;
}

// ------------------------------------------------------ cell enumeration

TEST(CellEnumeration, StudyCellsAreTheVariableOutcomes) {
  Corpus& c = corpus();
  ASSERT_GT(c.input.cells.size(), 3u)
      << "corpus slice produced too little variability to test against";
  EXPECT_EQ(c.input.cells.size(), c.study.variable_count());

  std::size_t equal = 0;
  for (const core::CompilationOutcome& o : c.study.outcomes) {
    if (o.bitwise_equal()) ++equal;
  }
  ASSERT_EQ(c.input.equal_comps.count(gen::kSuiteTestName), 1u);
  EXPECT_EQ(c.input.equal_comps.at(gen::kSuiteTestName).size(), equal);
  for (const blame::Cell& cell : c.input.cells) {
    EXPECT_EQ(cell.test, gen::kSuiteTestName);
    EXPECT_GT(cell.variability, 0.0L);
  }
}

TEST(CellEnumeration, DbRoundTripMatchesTheLiveStudy) {
  Corpus& c = corpus();
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "blame_roundtrip.tsv";
  std::filesystem::remove(path);
  core::ResultsDb db(path);
  db.record(c.study);

  const blame::CampaignInput from_db = blame::input_from_db(db, c.space);
  EXPECT_EQ(from_db.dropped_rows, 0u);
  ASSERT_EQ(from_db.cells.size(), c.input.cells.size());
  for (std::size_t i = 0; i < from_db.cells.size(); ++i) {
    EXPECT_EQ(from_db.cells[i].test, c.input.cells[i].test);
    EXPECT_EQ(from_db.cells[i].variable, c.input.cells[i].variable);
    EXPECT_EQ(from_db.cells[i].variability, c.input.cells[i].variability);
  }
  EXPECT_EQ(from_db.equal_comps, c.input.equal_comps);

  // Rows naming compilations outside the space are dropped, not bisected.
  const std::vector<toolchain::Compilation> half(
      c.space.begin(), c.space.begin() + c.space.size() / 2);
  const blame::CampaignInput partial = blame::input_from_db(db, half);
  EXPECT_GT(partial.dropped_rows, 0u);
  EXPECT_LT(partial.cells.size(), from_db.cells.size());
  std::filesystem::remove(path);
}

// ------------------------- satellite: concurrent drivers share one memo

/// The comparable part of a bisect outcome: everything except the
/// scheduling-dependent memo-hit split.
std::string outcome_fingerprint(const core::HierarchicalOutcome& out) {
  std::string s;
  s += out.crashed ? "crash:" + out.crash_reason : "ok";
  s += "|exec=" + std::to_string(out.executions);
  for (const core::FileFinding& f : out.findings) {
    s += "|" + f.file + "=" + std::to_string(f.value);
    for (const core::SymbolFinding& sf : f.symbols) {
      s += "," + sf.symbol + "=" + std::to_string(sf.value);
    }
  }
  return s;
}

std::vector<std::string> bisect_cells(unsigned jobs, bool memo) {
  Corpus& c = corpus();
  const std::size_t n = std::min<std::size_t>(c.input.cells.size(), 8);
  std::vector<std::string> prints(n);

  toolchain::CompilationCache cache;
  core::ProbeMemo shared;
  core::ThreadPool pool(jobs);
  pool.parallel_for(n, [&](std::size_t i) {
    const auto test = c.registry.create(c.input.cells[i].test);
    core::BisectConfig cfg;
    cfg.baseline = toolchain::mfem_baseline();
    cfg.variable = c.input.cells[i].variable;
    cfg.k = 0;
    cfg.memo = memo ? &shared : nullptr;
    core::BisectDriver driver(&c.model, test.get(), cfg, &cache);
    core::HierarchicalOutcome out = driver.run();
    if (memo) {
      EXPECT_EQ(out.memo_hits <= out.executions, true);
    } else {
      EXPECT_EQ(out.memo_hits, 0);
    }
    prints[i] = outcome_fingerprint(out);
  });
  return prints;
}

TEST(ConcurrentDrivers, FindingsAndExecutionsMatchSerialAtAnyJobsAndMemo) {
  const std::vector<std::string> reference = bisect_cells(1, false);
  EXPECT_EQ(bisect_cells(1, true), reference);
  EXPECT_EQ(bisect_cells(4, false), reference);
  EXPECT_EQ(bisect_cells(4, true), reference);
}

// ---------------------------------------------------- campaign identity

std::string campaign_text(int shards, unsigned jobs, bool steal, bool memo) {
  Corpus& c = corpus();
  blame::BlameOptions opts = base_options();
  opts.memo = memo;
  opts.shard.shards = shards;
  opts.shard.jobs = jobs;
  opts.shard.steal = steal;
  return blame::run_campaign(&c.model, c.registry, c.input, opts).text();
}

TEST(Campaign, ReportIsBitwiseIdenticalAcrossShardsJobsStealAndMemo) {
  const std::string reference = campaign_text(1, 1, false, true);
  EXPECT_EQ(campaign_text(2, 1, true, true), reference);
  EXPECT_EQ(campaign_text(2, 4, true, true), reference);
  EXPECT_EQ(campaign_text(4, 4, false, true), reference);
  EXPECT_EQ(campaign_text(2, 2, true, false), reference);
}

TEST(Campaign, MemoDedupesRealExecutionsWithoutChangingLogicalCounts) {
  Corpus& c = corpus();
  blame::BlameOptions with = base_options();
  blame::BlameOptions without = base_options();
  without.memo = false;

  const blame::BlameReport memo_on =
      blame::run_campaign(&c.model, c.registry, c.input, with);
  const blame::BlameReport memo_off =
      blame::run_campaign(&c.model, c.registry, c.input, without);

  EXPECT_EQ(memo_on.executions, memo_off.executions);
  EXPECT_EQ(memo_off.memo_hits, 0);
  EXPECT_GT(memo_on.memo_hits, 0) << "shared-prefix probes never re-hit";
  EXPECT_LT(memo_on.executions - memo_on.memo_hits, memo_off.executions);
}

// ------------------------------------------ single-flight probe memo

/// Real executions of the corpus' first cells, each bisected twice over
/// one shared memo.  The two copies are adjacent items, so the pool runs
/// them at once and they race on every key.  Fills `entries` with the
/// distinct executables the memo stored.
long long racing_real_executions(unsigned jobs, std::uint64_t& entries) {
  Corpus& c = corpus();
  const std::size_t n = std::min<std::size_t>(c.input.cells.size(), 6);
  std::vector<long long> real(2 * n);
  toolchain::CompilationCache cache;
  core::ProbeMemo memo;
  core::ThreadPool pool(jobs);
  pool.parallel_for(2 * n, [&](std::size_t i) {
    const blame::Cell& cell = c.input.cells[i / 2];
    const auto test = c.registry.create(cell.test);
    core::BisectConfig cfg;
    cfg.baseline = toolchain::mfem_baseline();
    cfg.variable = cell.variable;
    cfg.memo = &memo;
    core::BisectDriver driver(&c.model, test.get(), cfg, &cache);
    const core::HierarchicalOutcome out = driver.run();
    real[i] = out.executions - out.memo_hits;
  });
  entries = memo.stats().entries;
  long long total = 0;
  for (const long long r : real) total += r;
  return total;
}

TEST(ConcurrentDrivers, SingleFlightMemoRunsEachExecutableOnce) {
  std::uint64_t serial_entries = 0, parallel_entries = 0;
  const long long serial = racing_real_executions(1, serial_entries);
  const long long parallel = racing_real_executions(4, parallel_entries);
  EXPECT_EQ(serial, static_cast<long long>(serial_entries));
  EXPECT_EQ(parallel, static_cast<long long>(parallel_entries));
  EXPECT_EQ(parallel, serial);
}

TEST(Campaign, RealExecutionsDoNotDependOnTheSchedule) {
  Corpus& c = corpus();
  const auto real_executions = [&](int shards, unsigned jobs, bool steal) {
    blame::BlameOptions opts = base_options();
    opts.shard.shards = shards;
    opts.shard.jobs = jobs;
    opts.shard.steal = steal;
    const blame::BlameReport r =
        blame::run_campaign(&c.model, c.registry, c.input, opts);
    return r.executions - r.memo_hits;
  };
  const long long reference = real_executions(1, 1, false);
  EXPECT_EQ(real_executions(1, 4, true), reference);
  EXPECT_EQ(real_executions(2, 4, true), reference);
  EXPECT_EQ(real_executions(4, 2, false), reference);
}

// ------------------------------------------------ trace determinism

/// The campaign's drained trace, as `flit blame --trace-out t.jsonl`
/// writes it.  The root stamp gives the calling thread the fresh tick
/// clock a new process would have.
std::string campaign_trace(int shards, unsigned jobs, bool steal,
                           bool memo) {
  (void)corpus();  // its study's spans are not the campaign's
  obs::Tracer& tracer = obs::tracer();
  (void)tracer.drain_sorted();
  const obs::ScopedItem root(0, obs::kNoIndex, 0);
  tracer.set_enabled(true);
  (void)campaign_text(shards, jobs, steal, memo);
  tracer.set_enabled(false);
  return obs::events_jsonl(tracer.drain_sorted());
}

TEST(Campaign, TraceIsBitwiseIdenticalAcrossShardsJobsStealAndMemo) {
  const std::string reference = campaign_trace(1, 1, false, true);
  EXPECT_NE(reference.find("\"bisect\""), std::string::npos);
  EXPECT_EQ(campaign_trace(2, 1, true, true), reference);
  EXPECT_EQ(campaign_trace(2, 4, true, true), reference);
  EXPECT_EQ(campaign_trace(4, 4, false, true), reference);
  EXPECT_EQ(campaign_trace(2, 2, true, false), reference);
}

TEST(Campaign, ClustersPartitionTheBisectedCells) {
  Corpus& c = corpus();
  const blame::BlameReport report =
      blame::run_campaign(&c.model, c.registry, c.input, base_options());

  std::set<std::size_t> seen;
  std::set<std::string> ids;
  for (const blame::BlameCluster& cluster : report.clusters) {
    EXPECT_EQ(cluster.id.rfind("site-", 0), 0u);
    EXPECT_EQ(cluster.id.size(), 5u + 16u);
    EXPECT_TRUE(ids.insert(cluster.id).second) << "duplicate " << cluster.id;
    ASSERT_FALSE(cluster.members.empty());
    EXPECT_TRUE(std::is_sorted(cluster.members.begin(),
                               cluster.members.end()));
    for (const std::size_t m : cluster.members) {
      EXPECT_TRUE(seen.insert(m).second) << "cell in two clusters";
    }
  }
  for (const std::size_t f : report.failed_cells) {
    EXPECT_TRUE(seen.insert(f).second) << "failed cell also clustered";
  }
  EXPECT_EQ(seen.size(), report.cells.size());
}

TEST(Campaign, AdversarialPairsAreConfirmedAndMinimalAgainstTheirMember) {
  Corpus& c = corpus();
  const blame::BlameReport report =
      blame::run_campaign(&c.model, c.registry, c.input, base_options());
  ASSERT_FALSE(report.clusters.empty());

  const toolchain::Compilation baseline = toolchain::mfem_baseline();
  for (const blame::BlameCluster& cluster : report.clusters) {
    EXPECT_TRUE(cluster.pair.confirmed) << cluster.id;
    const blame::Cell& rep = report.cells[cluster.members.front()].cell;
    // The selected pair is never farther apart than the default
    // (campaign baseline, representative variable) pair it replaces.
    EXPECT_LE(cluster.pair.distance,
              blame::compilation_distance(baseline, rep.variable))
        << cluster.id;
    EXPECT_EQ(blame::mechanism_signature(cluster.pair.baseline,
                                         cluster.pair.variable)
                  .empty(),
              false);
  }
}

TEST(Campaign, UnknownTestsAndMaxCellsAreCountedNotBisected) {
  Corpus& c = corpus();
  blame::CampaignInput input = c.input;
  blame::Cell bogus;
  bogus.test = "NoSuchTest";
  bogus.variable = toolchain::mfem_speed_reference();
  bogus.variability = 1.0L;
  input.cells.push_back(bogus);

  blame::BlameOptions opts = base_options();
  opts.max_cells = 2;
  const blame::BlameReport report =
      blame::run_campaign(&c.model, c.registry, input, opts);

  EXPECT_EQ(report.unknown_tests, 1u);
  EXPECT_EQ(report.cells.size(), 2u);
  EXPECT_EQ(report.cells_skipped, c.input.cells.size() - 2u);
  const std::string text = report.text();
  EXPECT_NE(text.find("--max-cells"), std::string::npos) << text;
}

// --------------------------------- satellite: workflow --max-bisects cap

TEST(WorkflowCap, SkippedBisectsAreReportedAndAbsentWhenNothingSkipped) {
  Corpus& c = corpus();
  const auto test = c.registry.create(gen::kSuiteTestName);

  core::WorkflowOptions opts;
  opts.baseline = toolchain::mfem_baseline();
  opts.speed_reference = toolchain::mfem_speed_reference();
  opts.k = 1;
  opts.jobs = 4;

  opts.max_bisects = 1;
  const core::WorkflowReport capped =
      core::run_workflow(&c.model, *test, c.space, opts);
  ASSERT_GT(c.study.variable_count(), 1u);
  EXPECT_EQ(capped.bisects.size(), 1u);
  EXPECT_EQ(capped.bisects_skipped, c.study.variable_count() - 1u);
  const std::string capped_text = core::workflow_report_text(capped);
  EXPECT_NE(
      capped_text.find(" variable compilation(s) not bisected "
                       "(--max-bisects 1)"),
      std::string::npos)
      << capped_text;

  opts.max_bisects = 0;
  const core::WorkflowReport full =
      core::run_workflow(&c.model, *test, c.space, opts);
  EXPECT_EQ(full.bisects_skipped, 0u);
  EXPECT_EQ(full.bisects.size(), c.study.variable_count());
  EXPECT_EQ(core::workflow_report_text(full).find("not bisected"),
            std::string::npos);
}

// ------------------------------------------------------- dedup scoring

TEST(DedupScore, PairwisePrecisionAndRecallOverSignatures) {
  std::vector<gen::GroundTruthLabel> labels(4);
  labels[0].kernel = "a";
  labels[0].mechanism = gen::Mechanism::FmaContraction;
  labels[1].kernel = "b";
  labels[1].mechanism = gen::Mechanism::FmaContraction;
  labels[2].kernel = "c";
  labels[2].mechanism = gen::Mechanism::UnsafeMath;
  labels[3].kernel = "d";
  labels[3].mechanism = gen::Mechanism::UnsafeMath;

  // Perfect clustering: signature == mechanism.
  const auto by_mechanism = [](const gen::GroundTruthLabel& l) {
    return std::string(gen::to_string(l.mechanism));
  };
  gen::DedupScore perfect = gen::score_dedup(labels, by_mechanism);
  EXPECT_EQ(perfect.kernels, 4u);
  EXPECT_EQ(perfect.same_mechanism_pairs, 2u);
  EXPECT_EQ(perfect.co_clustered_pairs, 2u);
  EXPECT_EQ(perfect.true_pairs, 2u);
  EXPECT_DOUBLE_EQ(perfect.precision(), 1.0);
  EXPECT_DOUBLE_EQ(perfect.recall(), 1.0);

  // Everything merged: recall stays 1, precision drops to 2/6.
  gen::DedupScore merged =
      gen::score_dedup(labels, [](const gen::GroundTruthLabel&) {
        return std::string("one-bucket");
      });
  EXPECT_DOUBLE_EQ(merged.recall(), 1.0);
  EXPECT_DOUBLE_EQ(merged.precision(), 2.0 / 6.0);

  // Everything split: precision stays 1 (vacuously), recall drops to 0.
  gen::DedupScore split =
      gen::score_dedup(labels, [](const gen::GroundTruthLabel& l) {
        return l.kernel;
      });
  EXPECT_DOUBLE_EQ(split.precision(), 1.0);
  EXPECT_DOUBLE_EQ(split.recall(), 0.0);

  // No labels at all: both denominators empty, both scores 1.
  gen::DedupScore empty = gen::score_dedup({}, by_mechanism);
  EXPECT_DOUBLE_EQ(empty.precision(), 1.0);
  EXPECT_DOUBLE_EQ(empty.recall(), 1.0);
}

}  // namespace
}  // namespace flit
