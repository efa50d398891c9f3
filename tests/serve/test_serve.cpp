// The study service: strict request admission, deduplication, the
// multi-tenant bitwise-identity matrix (a request's merged study, CSV,
// and converged database are byte-identical to a solo one-shot run under
// every tested mix of concurrent tenants, lanes, steal policy, and cache
// budget), eviction-under-pressure identity, per-tenant CacheStats
// reconciliation against the aggregate, checkpoint-resume convergence,
// and the workflow mode's report identity.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "core/faults.h"
#include "core/registry.h"
#include "core/report.h"
#include "core/resultsdb.h"
#include "core/workflow.h"
#include "mfemini/examples.h"
#include "serve/request.h"
#include "serve/service.h"
#include "toolchain/compiler.h"

namespace {

using namespace flit;
using core::FaultInjector;
using serve::RequestMode;
using serve::ServeOptions;
using serve::ServeReport;
using serve::StudyRequest;
using serve::StudyService;
using toolchain::CacheStats;
using toolchain::Compilation;

namespace fs = std::filesystem;

// ---------------------------------------------------------------- units

TEST(StudyRequestParse, ParsesEveryKeyOfAFullRequestLine) {
  const StudyRequest r = serve::parse_request_line(
      R"({"id":"r1","tenant":"alice","test":"MFEM_ex1","mode":"workflow",)"
      R"("compilers":["g++","clang++"],"limit":12})");
  EXPECT_EQ(r.id, "r1");
  EXPECT_EQ(r.tenant, "alice");
  EXPECT_EQ(r.test, "MFEM_ex1");
  EXPECT_EQ(r.mode, RequestMode::Workflow);
  EXPECT_EQ(r.compilers, (std::vector<std::string>{"g++", "clang++"}));
  EXPECT_EQ(r.limit, 12u);
}

TEST(StudyRequestParse, AppliesTheDocumentedDefaults) {
  const StudyRequest r =
      serve::parse_request_line(R"({"id":"solo","test":"MFEM_ex2"})");
  EXPECT_EQ(r.tenant, "solo");  // tenant defaults to id
  EXPECT_EQ(r.mode, RequestMode::Explore);
  EXPECT_TRUE(r.compilers.empty());
  EXPECT_EQ(r.limit, 0u);
}

TEST(StudyRequestParse, RejectsMalformedLinesWithTheOffendingDetail) {
  const auto rejects = [](const std::string& line, const std::string& hint) {
    try {
      (void)serve::parse_request_line(line);
      FAIL() << "accepted: " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(hint), std::string::npos)
          << line << " -> " << e.what();
    }
  };
  rejects(R"({"test":"MFEM_ex1"})", "missing required 'id'");
  rejects(R"({"id":"a"})", "missing required 'test'");
  rejects(R"({"id":"a","test":"T","mode":"bisect"})", "mode");
  rejects(R"({"id":"a","test":"T","unknown":"x"})", "unknown key");
  rejects(R"({"id":"a","test":"T"} trailing)", "trailing");
  rejects(R"({"id":"a/b","test":"T"})", "A-Za-z0-9");
  rejects(R"({"id":"a","id":"b","test":"T"})", "duplicate key");
  rejects(R"({"id":"a","test":"T","limit":-1})", "non-negative");
  rejects(R"(["id"])", "expected '{'");
  rejects(R"({"id":"a","test":"T\u0041"})", "unsupported escape");
}

TEST(StudyRequestParse, StreamReaderSkipsCommentsAndNamesDuplicateIds) {
  std::istringstream ok(
      "# a comment\n"
      "\n"
      "{\"id\":\"a\",\"test\":\"T\"}\r\n"
      "{\"id\":\"b\",\"test\":\"T\"}\n");
  EXPECT_EQ(serve::read_requests(ok).size(), 2u);

  std::istringstream dup(
      "{\"id\":\"a\",\"test\":\"T\"}\n"
      "{\"id\":\"a\",\"test\":\"U\"}\n");
  try {
    (void)serve::read_requests(dup);
    FAIL() << "accepted duplicate id";
  } catch (const std::invalid_argument& e) {
    // Names the offending id and the line it appeared on.
    EXPECT_NE(std::string(e.what()).find("duplicate request id 'a'"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(StudyRequestSubspace, FiltersByCompilerAndTruncatesInSpaceOrder) {
  const auto space = toolchain::mfem_study_space();
  StudyRequest r;
  r.compilers = {"clang++"};
  const auto sub = serve::request_subspace(r, space);
  ASSERT_FALSE(sub.empty());
  for (const Compilation& c : sub) EXPECT_EQ(c.compiler.name, "clang++");

  r.limit = 5;
  const auto capped = serve::request_subspace(r, space);
  ASSERT_EQ(capped.size(), 5u);
  for (std::size_t i = 0; i < capped.size(); ++i) {
    EXPECT_EQ(capped[i], sub[i]);  // truncation preserves order
  }
}

TEST(StudyRequestSubspace, PayloadKeyIgnoresIdentityButNotTheStudyInput) {
  StudyRequest a, b;
  a.id = "a";
  a.tenant = "alice";
  b.id = "b";
  b.tenant = "bob";
  a.test = b.test = "MFEM_ex1";
  a.compilers = b.compilers = {"g++"};
  a.limit = b.limit = 8;
  EXPECT_EQ(a.payload_key(), b.payload_key());
  b.limit = 9;
  EXPECT_NE(a.payload_key(), b.payload_key());
  b.limit = 8;
  b.mode = RequestMode::Workflow;
  EXPECT_NE(a.payload_key(), b.payload_key());
}

// ---------------------------------------------------------- integration

void register_examples() {
  auto& reg = core::global_test_registry();
  for (int ex = 1; ex <= 8; ++ex) {
    const std::string name = "MFEM_ex" + std::to_string(ex);
    if (reg.contains(name)) continue;
    reg.add(name, [ex] {
      return std::unique_ptr<core::TestBase>(
          std::make_unique<mfemini::MfemExampleTest>(ex));
    });
  }
}

std::string file_bytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
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

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::global().disarm();
    register_examples();
    dir_ = fs::temp_directory_path() /
           ("flit_serve_" + std::string(::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    space_ = toolchain::mfem_study_space();
  }
  void TearDown() override {
    FaultInjector::global().disarm();
    fs::remove_all(dir_);
  }

  /// The concurrent-tenant mix of the identity matrix: three studies over
  /// distinct tests and subspaces, small enough to cross with every
  /// scheduling and budget configuration.
  [[nodiscard]] std::vector<StudyRequest> tenant_mix() const {
    StudyRequest a;
    a.id = "a";
    a.tenant = "alice";
    a.test = "MFEM_ex1";
    a.compilers = {"g++"};
    a.limit = 10;
    StudyRequest b;
    b.id = "b";
    b.tenant = "bob";
    b.test = "MFEM_ex2";
    b.compilers = {"clang++"};
    b.limit = 10;
    StudyRequest c;
    c.id = "c";
    c.tenant = "carol";
    c.test = "MFEM_ex3";
    c.compilers = {"g++", "icpc"};
    c.limit = 12;
    return {a, b, c};
  }

  /// Solo one-shot reference for one request: its own explorer, its own
  /// cold cache, its own database -- the bytes the service must match.
  struct SoloRun {
    core::StudyResult study;
    std::string csv;
    std::string db;
  };
  [[nodiscard]] SoloRun solo_run(const StudyRequest& req) const {
    const auto sub = serve::request_subspace(req, space_);
    core::SpaceExplorer explorer(&fpsem::global_code_model(),
                                 toolchain::mfem_baseline(),
                                 toolchain::mfem_speed_reference(), 1);
    const fs::path db_path = dir_ / ("solo-" + req.id + ".tsv");
    fs::remove(db_path);
    core::ResultsDb db(db_path);
    core::ExploreOptions eo;
    eo.db = &db;
    SoloRun out;
    out.study = explorer.explore(*core::global_test_registry().create(
                                     req.test),
                                 sub, eo);
    out.csv = core::study_csv(out.study);
    out.db = file_bytes(db_path);
    return out;
  }

  /// Constructs a service over the canonical space and runs the requests
  /// (the service holds the shared cache, so it is deliberately
  /// unmovable; a helper that runs in place keeps the tests terse).
  [[nodiscard]] ServeReport run_service(
      ServeOptions opts, const std::vector<StudyRequest>& requests) const {
    StudyService service(&fpsem::global_code_model(),
                         toolchain::mfem_baseline(),
                         toolchain::mfem_speed_reference(), space_,
                         std::move(opts));
    return service.run(requests);
  }

  fs::path dir_;
  std::vector<Compilation> space_;
};

TEST_F(ServeTest, IdentityMatrixAcrossLanesStealAndCacheBudget) {
  const auto requests = tenant_mix();
  std::vector<SoloRun> solo;
  for (const StudyRequest& r : requests) solo.push_back(solo_run(r));

  // The tight budget: half of what the mix needs resident, measured on an
  // unbounded rehearsal -- enough to force evictions, not enough to pin
  // everything.
  std::uint64_t full_bytes = 0;
  {
    ServeOptions opts;
    opts.state_dir = dir_ / "rehearsal";
    const ServeReport rep = run_service(opts, requests);
    full_bytes = rep.cache_resident_bytes;
  }
  ASSERT_GT(full_bytes, 0u);

  const std::optional<std::uint64_t> budgets[] = {
      std::nullopt, full_bytes / 2, std::uint64_t{0}};
  for (const int shards : {1, 2, 4}) {
    for (const bool steal : {true, false}) {
      for (const auto& budget : budgets) {
        ServeOptions opts;
        opts.shards = shards;
        opts.jobs = 2;
        opts.steal = steal;
        opts.cache_budget = budget;
        opts.checkpoint_batch = 4;  // several claims per study
        opts.max_inflight = 2;      // exercises admission turnover
        opts.state_dir =
            dir_ / ("s" + std::to_string(shards) + (steal ? "t" : "f") +
                    (budget.has_value() ? std::to_string(*budget) : "u"));
        const ServeReport rep = run_service(opts, requests);

        ASSERT_EQ(rep.requests.size(), requests.size());
        CacheStats attributed;
        for (std::size_t i = 0; i < requests.size(); ++i) {
          const serve::RequestReport& rr = rep.requests[i];
          expect_identical_studies(rr.study, solo[i].study);
          EXPECT_EQ(rr.csv, solo[i].csv);
          EXPECT_EQ(file_bytes(rr.db_path), solo[i].db)
              << shards << (steal ? " steal " : " pinned ") << rr.id;
          attributed += rr.cache;
        }
        // Per-tenant attribution reconciles against the aggregate
        // exactly: the scheduler is serial, so snapshot deltas are the
        // whole story.
        EXPECT_EQ(attributed, rep.cache);
        if (budget.has_value()) {
          EXPECT_LE(rep.cache_resident_bytes, *budget);
          EXPECT_GT(rep.cache.evictions, 0u);
        } else {
          EXPECT_EQ(rep.cache.evictions, 0u);
        }
      }
    }
  }
}

TEST_F(ServeTest, DeduplicatedRequestsShareByteIdenticalResults) {
  auto requests = tenant_mix();
  StudyRequest dup = requests[0];  // same payload as "a", new identity
  dup.id = "dup";
  dup.tenant = "dave";
  requests.push_back(dup);

  ServeOptions opts;
  opts.shards = 2;
  opts.state_dir = dir_ / "state";
  const ServeReport rep = run_service(opts, requests);

  ASSERT_EQ(rep.requests.size(), 4u);
  EXPECT_EQ(rep.deduplicated, 1u);
  const serve::RequestReport& primary = rep.requests[0];
  const serve::RequestReport& follower = rep.requests[3];
  EXPECT_FALSE(primary.deduplicated);
  EXPECT_TRUE(follower.deduplicated);
  EXPECT_EQ(follower.primary, "a");
  expect_identical_studies(follower.study, primary.study);
  EXPECT_EQ(follower.csv, primary.csv);
  EXPECT_EQ(file_bytes(follower.db_path), file_bytes(primary.db_path));
  // The shared-cache activity lands on the primary; the follower ran
  // nothing.
  EXPECT_EQ(follower.cache, CacheStats{});
  EXPECT_EQ(follower.batches, 0u);
  // And the follower's bytes are what a solo run of its request produces.
  const SoloRun solo = solo_run(dup);
  EXPECT_EQ(file_bytes(follower.db_path), solo.db);
}

TEST_F(ServeTest, SharedCacheBeatsColdSoloStudiesWithTheirBytes) {
  // Eight tenants' full-space studies on four lanes of one job each,
  // against the same studies run one after another on a fresh explorer
  // (and so a cold cache) each -- what eight one-shot CLI runs pay.  One
  // shared cache must save compilations over per-study caches (1,001 vs
  // 8,008 misses when written), and every tenant's CSV must equal its
  // solo run's.
  std::vector<StudyRequest> requests;
  for (int ex = 1; ex <= 8; ++ex) {
    StudyRequest req;
    req.id = "r" + std::to_string(ex);
    req.tenant = "tenant" + std::to_string(ex);
    req.test = "MFEM_ex" + std::to_string(ex);
    requests.push_back(req);
  }
  ServeOptions opts;
  opts.shards = 4;
  opts.jobs = 1;
  const ServeReport rep = run_service(opts, requests);
  ASSERT_EQ(rep.requests.size(), requests.size());

  CacheStats solo_cache;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    core::SpaceExplorer explorer(&fpsem::global_code_model(),
                                 toolchain::mfem_baseline(),
                                 toolchain::mfem_speed_reference(), 1);
    const core::StudyResult study = explorer.explore(
        *core::global_test_registry().create(requests[i].test), space_);
    EXPECT_EQ(rep.requests[i].csv, core::study_csv(study)) << requests[i].id;
    solo_cache += explorer.cache().stats();
  }
  EXPECT_LT(rep.cache.misses, solo_cache.misses);
  EXPECT_GT(rep.cache.hit_rate(), solo_cache.hit_rate());
}

TEST_F(ServeTest, ZeroBudgetEvictsEverythingYetStaysByteIdentical) {
  // Eviction under maximal pressure: nothing is ever retained, every
  // lookup misses, and the results still match the solo run -- cache
  // contents affect cycles, never bytes.
  const auto requests = tenant_mix();
  ServeOptions opts;
  opts.shards = 2;
  opts.cache_budget = 0;
  opts.state_dir = dir_ / "state";
  const ServeReport rep = run_service(opts, requests);
  EXPECT_EQ(rep.cache.hits, 0u);
  EXPECT_EQ(rep.cache.evictions, rep.cache.misses);
  EXPECT_EQ(rep.cache_resident_bytes, 0u);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const SoloRun solo = solo_run(requests[i]);
    expect_identical_studies(rep.requests[i].study, solo.study);
    EXPECT_EQ(file_bytes(rep.requests[i].db_path), solo.db);
  }
}

TEST_F(ServeTest, ResumePrefillsCheckpointsAndConvergesToSoloBytes) {
  // Simulate the restart half of a killed daemon: one request's database
  // already holds its first checkpoints (written by a partial run), the
  // other requests have nothing.  --resume must re-run only the missing
  // rows and converge every database to the solo-run bytes.
  const auto requests = tenant_mix();
  const fs::path state = dir_ / "state";
  fs::create_directories(state);
  {
    const auto sub = serve::request_subspace(requests[0], space_);
    const std::vector<Compilation> head(sub.begin(), sub.begin() + 4);
    core::SpaceExplorer explorer(&fpsem::global_code_model(),
                                 toolchain::mfem_baseline(),
                                 toolchain::mfem_speed_reference(), 1);
    core::ResultsDb db(state / "a.tsv");
    core::ExploreOptions eo;
    eo.db = &db;
    (void)explorer.explore(
        *core::global_test_registry().create(requests[0].test), head, eo);
  }

  ServeOptions opts;
  opts.shards = 2;
  opts.state_dir = state;
  opts.resume = true;
  opts.checkpoint_batch = 4;
  const ServeReport rep = run_service(opts, requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const SoloRun solo = solo_run(requests[i]);
    EXPECT_EQ(file_bytes(rep.requests[i].db_path), solo.db)
        << requests[i].id;
  }
}

TEST_F(ServeTest, WorkflowModeReportMatchesTheSoloWorkflow) {
  StudyRequest req;
  req.id = "wf";
  req.tenant = "alice";
  req.test = "MFEM_ex1";
  req.compilers = {"g++"};
  req.limit = 12;
  req.mode = RequestMode::Workflow;
  StudyRequest noise = tenant_mix()[1];

  ServeOptions opts;
  opts.shards = 2;
  opts.jobs = 2;
  opts.state_dir = dir_ / "state";
  const ServeReport rep =
      run_service(opts, std::vector<StudyRequest>{req, noise});

  // The solo reference: the same workflow over the same subspace with the
  // service's Level 3 knobs, explored serially from a cold cache.
  core::WorkflowOptions wopts;
  wopts.baseline = toolchain::mfem_baseline();
  wopts.speed_reference = toolchain::mfem_speed_reference();
  wopts.max_bisects = 1;
  wopts.k = 1;
  wopts.jobs = opts.jobs;
  const auto sub = serve::request_subspace(req, space_);
  const core::WorkflowReport solo = core::run_workflow(
      &fpsem::global_code_model(),
      *core::global_test_registry().create(req.test), sub, wopts);
  EXPECT_EQ(rep.requests[0].workflow_text,
            core::workflow_report_text(solo));
  EXPECT_TRUE(
      fs::exists(rep.requests[0].db_path.parent_path() / "wf.workflow.txt"));
}

TEST_F(ServeTest, EventStreamsNarrateAdmissionBatchesAndCompletion) {
  const auto requests = tenant_mix();
  std::map<std::string, std::vector<std::string>> events;
  ServeOptions opts;
  opts.checkpoint_batch = 4;
  opts.event_sink = [&events](const std::string& tenant,
                              const std::string& line) {
    events[tenant].push_back(line);
  };
  const ServeReport rep = run_service(opts, requests);

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& lines = events[requests[i].tenant];
    const std::size_t items = rep.requests[i].items;
    const std::size_t batches = (items + 3) / 4;
    ASSERT_EQ(lines.size(), 2 + batches) << requests[i].tenant;
    EXPECT_NE(lines.front().find("\"event\":\"admitted\""),
              std::string::npos);
    for (std::size_t b = 0; b < batches; ++b) {
      EXPECT_NE(lines[1 + b].find("\"event\":\"batch\""), std::string::npos);
    }
    EXPECT_NE(lines.back().find("\"event\":\"done\""), std::string::npos);
    EXPECT_NE(lines.back().find("\"items\":" + std::to_string(items)),
              std::string::npos);
  }
}

TEST_F(ServeTest, ValidationRejectsUnknownTestsCompilersAndBadOptions) {
  StudyRequest bad_test;
  bad_test.id = "x";
  bad_test.tenant = "x";
  bad_test.test = "NoSuchTest";
  EXPECT_THROW((void)run_service(ServeOptions{},
                            std::vector<StudyRequest>{bad_test}),
               std::invalid_argument);

  StudyRequest bad_compiler;
  bad_compiler.id = "y";
  bad_compiler.tenant = "y";
  bad_compiler.test = "MFEM_ex1";
  bad_compiler.compilers = {"tcc"};
  try {
    (void)run_service(ServeOptions{},
                      std::vector<StudyRequest>{bad_compiler});
    FAIL() << "accepted unknown compiler";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'y'"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("tcc"), std::string::npos);
  }

  ServeOptions bad;
  bad.shards = 0;
  EXPECT_THROW((void)run_service(bad, {}), std::invalid_argument);
  ServeOptions no_state;
  no_state.resume = true;
  EXPECT_THROW((void)run_service(no_state, {}), std::invalid_argument);
  ServeOptions zero_inflight;
  zero_inflight.max_inflight = 0;
  EXPECT_THROW((void)run_service(zero_inflight, {}), std::invalid_argument);
}

}  // namespace
