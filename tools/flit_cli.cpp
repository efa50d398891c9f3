// flit — command-line front end over the library, mirroring the upstream
// tool's UX on the simulated toolchain:
//
//   flit list                      registered FLiT tests
//   flit explore <test> [--csv]    run the 244-compilation study
//   flit bisect <test> <compilation...> [--k N] [--digits D]
//                                  root-cause one compilation
//   flit workflow <test>           the full Fig. 1 pipeline
//
// <compilation...> is e.g.:  g++ -O2 -funsafe-math-optimizations
//
// All registered applications (mini-MFEM, Laghos, LULESH, geometry, the
// parallel study) are linked in, so their tests are available by name.
//
// Error handling: main catches every escaping exception and exits 1 with
// the message on stderr (a malformed database or a study abort must never
// reach std::terminate); numeric options are parsed strictly and
// value-taking options consume their argument.

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "blame/campaign.h"
#include "core/explorer.h"
#include "core/hierarchy.h"
#include "core/mixer.h"
#include "core/parallel.h"
#include "core/probe_memo.h"
#include "core/registry.h"
#include "core/report.h"
#include "core/resultsdb.h"
#include "core/workflow.h"
#include "dist/coordinator.h"
#include "dist/supervisor.h"
#include "gen/generator.h"
#include "gen/suite.h"
#include "geom/predicates.h"
#include "laghos/hydro.h"
#include "lulesh/domain.h"
#include "mfemini/examples.h"
#include "obs/export.h"
#include "obs/session.h"
#include "par/study.h"
#include "serve/request.h"
#include "serve/service.h"
#include "toolchain/compiler.h"

using namespace flit;

namespace {

/// Registers the bundled application tests under stable names.
void register_bundled_tests() {
  auto& reg = core::global_test_registry();
  for (int ex = 1; ex <= mfemini::kNumExamples; ++ex) {
    reg.add("MFEM_ex" + std::to_string(ex), [ex] {
      return std::unique_ptr<core::TestBase>(
          std::make_unique<mfemini::MfemExampleTest>(ex));
    });
  }
  reg.add("Laghos", [] {
    return std::unique_ptr<core::TestBase>(
        std::make_unique<laghos::LaghosTest>());
  });
  reg.add("LULESH", [] {
    return std::unique_ptr<core::TestBase>(
        std::make_unique<lulesh::LuleshTest>());
  });
  reg.add("GeomHull", [] {
    return std::unique_ptr<core::TestBase>(
        std::make_unique<geom::HullTest>());
  });
  reg.add("ParPoisson", [] {
    return std::unique_ptr<core::TestBase>(
        std::make_unique<par::ParallelPoissonTest>(24, 4));
  });
}

int usage() {
  std::fprintf(
      stderr,
      "usage: flit list\n"
      "       flit explore <test> [--csv] [--db file.tsv] [--resume]\n"
      "                    [--jobs N] [--retries N]\n"
      "                    [--shards N] [--shard-db-dir dir]\n"
      "                    [--steal|--no-steal] [--steal-grain N]\n"
      "                    [--placement static|cost|affinity]\n"
      "                    [--cost-profile file.tsv]\n"
      "                    [--max-restarts N] [--stall-deadline C]\n"
      "                    [--allow-partial]\n"
      "                    [--keep-going|--no-keep-going]\n"
      "                    [--trace-out file] [--metrics-out file]\n"
      "                    [--gen-seed N] [--gen-count N] "
      "[--gen-recipes r,..]\n"
      "       flit bisect <test> <compiler> <-ON> [flag...] "
      "[--k N] [--digits D]\n"
      "                    [--trace-out file] [--metrics-out file]\n"
      "       flit workflow <test> [--max-bisects N] [--k N] [--digits D]\n"
      "                    [--jobs N] [--retries N] [--shards N]\n"
      "                    [--steal|--no-steal] [--steal-grain N]\n"
      "                    [--placement static|cost|affinity]\n"
      "                    [--cost-profile file.tsv]\n"
      "                    [--max-restarts N] [--stall-deadline C]\n"
      "                    [--allow-partial]\n"
      "                    [--keep-going|--no-keep-going]\n"
      "                    [--trace-out file] [--metrics-out file]\n"
      "                    [--gen-seed N] [--gen-count N] "
      "[--gen-recipes r,..]\n"
      "       flit blame [<test>] [--db file.tsv] [--k N] [--digits D]\n"
      "                    [--jobs N] [--shards N]\n"
      "                    [--steal|--no-steal] [--steal-grain N]\n"
      "                    [--memo|--no-memo] [--max-cells N] [--pairs N]\n"
      "                    [--trace-out file] [--metrics-out file]\n"
      "                    [--gen-seed N] [--gen-count N] "
      "[--gen-recipes r,..]\n"
      "       flit mix <test> <tolerance>\n"
      "       flit gen [--gen-seed N] [--gen-count N] [--gen-recipes r,..]\n"
      "                    [--describe | --list | --emit <kernel>]\n"
      "       flit serve <requests.jsonl|-> [--state-dir dir]\n"
      "                    [--stream-out dir] [--cache-budget BYTES]\n"
      "                    [--shards N] [--jobs N] [--steal|--no-steal]\n"
      "                    [--max-inflight N] [--checkpoint-batch N]\n"
      "                    [--resume] [--retries N]\n"
      "                    [--keep-going|--no-keep-going]\n"
      "                    [--trace-out file] [--metrics-out file]\n"
      "                    [--gen-seed N] [--gen-count N] "
      "[--gen-recipes r,..]\n"
      "\n"
      "--jobs N        parallel execution lanes for explore/workflow\n"
      "                (default: the FLIT_JOBS environment variable if\n"
      "                set, else the hardware thread count; results are\n"
      "                identical at any jobs count)\n"
      "--shards N      partition the compilation space across N simulated\n"
      "                ranks, each with its own compilation cache (and,\n"
      "                with --shard-db-dir, its own checkpoint file); the\n"
      "                merged results are identical at any shard count\n"
      "--shard-db-dir  directory for per-shard checkpoint databases\n"
      "                (shard-<r>-of-<N>.tsv); with --resume, shards are\n"
      "                prefilled from these files\n"
      "--steal         rebalance shards by work stealing: an exhausted\n"
      "                shard steals trailing sub-ranges from the\n"
      "                most-loaded one (default; results are identical\n"
      "                either way -- --no-steal restores the static\n"
      "                partition)\n"
      "--steal-grain N items per shard claim (default 16); smaller grains\n"
      "                rebalance finer at more claim overhead\n"
      "--placement P   how the space is split across shards: 'static'\n"
      "                (contiguous index split, default), 'cost'\n"
      "                (predicted-cost LPT balance), or 'affinity' (cost\n"
      "                balance that keeps fingerprint-equal compilations\n"
      "                on one shard, so each is compiled once per fleet);\n"
      "                merged results are identical under every policy\n"
      "--cost-profile  prior-run results database refining the placement\n"
      "                cost model with measured per-compilation costs\n"
      "--max-restarts  restarts the fleet supervisor grants each shard\n"
      "                before declaring it dead (default 2); supervision\n"
      "                engages when FLIT_FAULTS arms a shard/stall site\n"
      "--stall-deadline modeled-cycle deadline at which a stalled shard is\n"
      "                detected (default: the restart backoff unit)\n"
      "--allow-partial after the restart budget is exhausted, record the\n"
      "                unrecoverable cells as 'degraded' and complete the\n"
      "                study instead of aborting; a later --resume re-runs\n"
      "                degraded rows and converges to the unfaulted bytes\n"
      "--db file.tsv   record outcomes into a results database,\n"
      "                checkpointing incrementally (with --shards: the\n"
      "                converged database, written after the merge)\n"
      "--resume        skip (test, compilation) rows already in --db\n"
      "                (with --shards: in the per-shard databases)\n"
      "--retries N     attempts per compilation before quarantine "
      "(default 1)\n"
      "--keep-going    record per-compilation failures and continue\n"
      "                (default; --no-keep-going aborts on the first)\n"
      "--trace-out     write the deterministic span trace: Chrome\n"
      "                trace_event JSON (load in ui.perfetto.dev), or one\n"
      "                JSON object per event when the file ends in .jsonl;\n"
      "                event content is identical at any --jobs count\n"
      "--metrics-out   write the metrics snapshot as JSON and print the\n"
      "                summary table to stderr; telemetry never alters\n"
      "                results\n"
      "--gen-seed N    install the generated synthetic-kernel suite from\n"
      "                seed N before the command runs: one test per kernel\n"
      "                plus the aggregate 'GenSuite' test; the suite is a\n"
      "                pure function of --gen-seed/--gen-count/\n"
      "                --gen-recipes, byte-identical on every shard of any\n"
      "                fleet (default seed 1; any --gen-* flag enables)\n"
      "--gen-count N   kernels to generate (default 16)\n"
      "--gen-recipes   comma-separated recipe subset: fma, reduce, branch,\n"
      "                libm, subnormal, unsafe (default: all, rotating)\n"
      "\n"
      "workflow bisect phase: --max-bisects caps the Level 3 searches (0 =\n"
      "bisect every variable compilation; default 3, skipped ones are\n"
      "reported), --k keeps the k biggest culprits per search (0 = all;\n"
      "default 1), --digits restricts comparisons to D significant digits\n"
      "\n"
      "blame runs the dedup bisect campaign over every variability-flagged\n"
      "cell -- of a live study of <test>, of a --db results database (all\n"
      "its tests, or <test> only), or of the --gen-* corpus -- sharing one\n"
      "probe memo across all bisects, clustering the outcomes into blame\n"
      "sites and re-verifying each site with its minimal adversarial\n"
      "compilation pair; the clustered report is bitwise-identical at any\n"
      "--shards x --jobs x --steal x --memo mix (see docs/blame-dedup.md)\n"
      "--memo          share probe answers across bisects (default;\n"
      "                --no-memo re-runs every probe -- same report bytes,\n"
      "                more real executions)\n"
      "--max-cells N   cap the cells bisected (0 = all, the default)\n"
      "--pairs N       adversarial candidate pairs tried per cluster\n"
      "                (default 4)\n"
      "\n"
      "gen prints the generated space without running it: --describe\n"
      "(default) writes the ground-truth label TSV (kernel, recipe,\n"
      "mechanism, hazard sites, seed, index, file, expected symbol),\n"
      "--list the kernel names, --emit <kernel> one kernel's annotated\n"
      "pseudo-source; see docs/generated-workloads.md\n"
      "\n"
      "serve runs a JSONL stream of study requests (one JSON object per\n"
      "line: {\"id\":..,\"test\":..[,\"tenant\"][,\"mode\"][,\"compilers\"]\n"
      "[,\"limit\"]}) as a multi-tenant service sharing one compilation\n"
      "cache; see docs/study-service.md\n"
      "--state-dir     per-request converged databases (<id>.tsv), CSVs\n"
      "                and workflow reports; with --resume, requests are\n"
      "                prefilled from their checkpoints\n"
      "--stream-out    per-tenant incremental event streams\n"
      "                (<tenant>.jsonl); without it events print to stdout\n"
      "--cache-budget  shared-cache cap in approximate object bytes\n"
      "                (0 retains nothing); results are identical at any\n"
      "                budget -- eviction only changes hit rates\n"
      "--max-inflight  studies multiplexed concurrently (default 4)\n"
      "--checkpoint-batch items per scheduler claim and per durable\n"
      "                checkpoint (default 32)\n"
      "\n"
      "FLIT_FAULTS=site:rate[:seed][,...] arms the deterministic fault\n"
      "injector (sites: compile, link, run, kill, shard, stall); see "
      "docs/fault-tolerance.md\n");
  return 2;
}

/// Strict numeric parsing: the whole argument must be a number (atoi's
/// silent 0 for garbage turned `--jobs x` into a serial run).
long parse_long(const char* flag, const char* s) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (s[0] == '\0' || end == nullptr || *end != '\0') {
    throw std::invalid_argument(std::string(flag) + ": expected an integer, "
                                "got '" + s + "'");
  }
  return v;
}

unsigned parse_jobs(const char* flag, const char* s) {
  const long v = parse_long(flag, s);
  if (v < 1) {
    throw std::invalid_argument(std::string(flag) +
                                ": expected a positive integer, got '" +
                                std::string(s) + "'");
  }
  return static_cast<unsigned>(v);
}

int parse_nonneg(const char* flag, const char* s) {
  const long v = parse_long(flag, s);
  if (v < 0) {
    throw std::invalid_argument(std::string(flag) +
                                ": expected a non-negative integer, got '" +
                                std::string(s) + "'");
  }
  return static_cast<int>(v);
}

double parse_nonneg_double(const char* flag, const char* s) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (s[0] == '\0' || end == nullptr || *end != '\0' || v < 0.0) {
    throw std::invalid_argument(std::string(flag) +
                                ": expected a non-negative number, got '" +
                                std::string(s) + "'");
  }
  return v;
}

/// Strict placement-policy parsing: only the names place_space knows.
dist::PlacementPolicy parse_placement(const char* flag, const char* s) {
  const auto p = dist::placement_policy_from(s);
  if (!p.has_value()) {
    throw std::invalid_argument(std::string(flag) +
                                ": expected static|cost|affinity, got '" +
                                s + "'");
  }
  return *p;
}

/// Returns the value of a value-taking option, consuming it (advances i).
const char* option_value(const char* flag, char** argv, int argc, int* i) {
  if (*i + 1 >= argc) {
    throw std::invalid_argument(std::string(flag) + ": missing value");
  }
  ++*i;
  return argv[*i];
}

/// Strict seed parsing for --gen-seed: a positive integer (0 is reserved
/// -- the generator's streams key on seed, and a silent 0 would alias
/// every "garbage" seed onto one suite).
std::uint64_t parse_seed(const char* flag, const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (s[0] == '\0' || s[0] == '-' || end == nullptr || *end != '\0' ||
      errno == ERANGE || v == 0) {
    throw std::invalid_argument(std::string(flag) +
                                ": expected a positive integer, got '" +
                                std::string(s) + "'");
  }
  return static_cast<std::uint64_t>(v);
}

/// The --gen-seed / --gen-count / --gen-recipes family shared by explore,
/// workflow and serve.  Any of the three enables the generated suite;
/// install() then registers its kernels into the global code model and
/// test registry before the command dispatches, so the generated tests
/// resolve exactly like the bundled applications.
struct GenArgs {
  bool enabled = false;
  gen::GenSpec spec;

  /// Consumes the option when it is one of ours.
  bool parse(char** argv, int argc, int* i) {
    if (std::strcmp(argv[*i], "--gen-seed") == 0) {
      spec.seed =
          parse_seed("--gen-seed", option_value("--gen-seed", argv, argc, i));
      enabled = true;
      return true;
    }
    if (std::strcmp(argv[*i], "--gen-count") == 0) {
      spec.count = parse_jobs("--gen-count",
                              option_value("--gen-count", argv, argc, i));
      enabled = true;
      return true;
    }
    if (std::strcmp(argv[*i], "--gen-recipes") == 0) {
      spec.recipes = gen::recipes_from_csv(
          option_value("--gen-recipes", argv, argc, i));
      enabled = true;
      return true;
    }
    return false;
  }

  void install() const {
    if (!enabled) return;
    spec.validate();
    gen::install_suite(spec, fpsem::global_code_model(),
                       &core::global_test_registry());
  }
};

/// The --trace-out / --metrics-out pair shared by explore, bisect and
/// workflow.  Telemetry is strictly off the result path: stdout and every
/// database byte are identical with or without these flags.
struct TelemetryArgs {
  std::string trace_out;
  std::string metrics_out;

  /// Consumes the option when it is one of ours.
  bool parse(char** argv, int argc, int* i) {
    if (std::strcmp(argv[*i], "--trace-out") == 0) {
      trace_out = option_value("--trace-out", argv, argc, i);
      return true;
    }
    if (std::strcmp(argv[*i], "--metrics-out") == 0) {
      metrics_out = option_value("--metrics-out", argv, argc, i);
      return true;
    }
    return false;
  }
};

void telemetry_begin(const TelemetryArgs& t) {
  if (!t.trace_out.empty()) obs::tracer().set_enabled(true);
}

void write_file(const char* flag, const std::string& path,
                const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error(std::string(flag) + ": cannot write '" + path +
                             "'");
  }
  out << content;
}

/// Exports the trace and the metrics snapshot after the command ran (the
/// pools have joined, so the drain is quiescent).
void telemetry_finish(const TelemetryArgs& t) {
  if (!t.trace_out.empty()) {
    const std::vector<obs::TraceEvent> events = obs::tracer().drain_sorted();
    const bool jsonl =
        t.trace_out.size() >= 6 &&
        t.trace_out.compare(t.trace_out.size() - 6, 6, ".jsonl") == 0;
    write_file("--trace-out", t.trace_out,
               jsonl ? obs::events_jsonl(events)
                     : obs::chrome_trace_json(events));
  }
  if (!t.metrics_out.empty()) {
    const obs::MetricsSnapshot snap = obs::metrics().snapshot();
    write_file("--metrics-out", t.metrics_out, snap.json());
    std::fputs(snap.table().c_str(), stderr);
  }
}

long double parse_longdouble(const char* what, const char* s) {
  char* end = nullptr;
  const long double v = strtold(s, &end);
  if (s[0] == '\0' || end == nullptr || *end != '\0') {
    throw std::invalid_argument(std::string(what) +
                                ": expected a number, got '" + s + "'");
  }
  return v;
}

/// Parses "<compiler> <-ON> [flags...]" from argv[from..to).
bool parse_compilation(char** argv, int from, int to,
                       toolchain::Compilation* out) {
  if (to - from < 2) return false;
  const std::string name = argv[from];
  for (const auto* spec : {&toolchain::gcc(), &toolchain::clang(),
                           &toolchain::icpc(), &toolchain::xlc()}) {
    if (spec->name == name) out->compiler = *spec;
  }
  if (out->compiler.name != name) return false;
  const std::string opt = argv[from + 1];
  if (opt == "-O0") {
    out->opt = toolchain::OptLevel::O0;
  } else if (opt == "-O1") {
    out->opt = toolchain::OptLevel::O1;
  } else if (opt == "-O2") {
    out->opt = toolchain::OptLevel::O2;
  } else if (opt == "-O3") {
    out->opt = toolchain::OptLevel::O3;
  } else {
    return false;
  }
  std::string flag;
  for (int i = from + 2; i < to; ++i) {
    if (!flag.empty()) flag += ' ';
    flag += argv[i];
  }
  out->flag = flag;
  return true;
}

int cmd_list() {
  for (const auto& name : core::global_test_registry().names()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

struct ExploreArgs {
  bool csv = false;
  std::string db_path;
  bool resume = false;
  unsigned jobs = 0;
  int shards = 1;
  std::string shard_db_dir;
  bool steal = true;
  std::size_t steal_grain = 16;
  dist::PlacementPolicy placement = dist::PlacementPolicy::Static;
  std::string cost_profile;
  core::RetryPolicy retry;
  bool keep_going = true;
  int max_restarts = 2;
  double stall_deadline = 0.0;
  bool allow_partial = false;
};

int cmd_explore(const std::string& test_name, const ExploreArgs& args) {
  auto& reg = core::global_test_registry();
  if (!reg.contains(test_name)) {
    std::fprintf(stderr, "unknown test '%s' (try: flit list)\n",
                 test_name.c_str());
    return 1;
  }
  const bool sharded = args.shards > 1 || !args.shard_db_dir.empty();
  if (args.resume && !sharded && args.db_path.empty()) {
    std::fprintf(stderr, "--resume requires --db\n");
    return 2;
  }
  if (args.resume && sharded && args.shard_db_dir.empty()) {
    std::fprintf(stderr, "--resume with --shards requires --shard-db-dir\n");
    return 2;
  }
  const auto test = reg.create(test_name);
  const auto space = toolchain::mfem_study_space();

  std::optional<core::ResultsDb> db;
  if (!args.db_path.empty()) db.emplace(std::filesystem::path(args.db_path));

  core::StudyResult study;
  if (sharded) {
    dist::ShardOptions sopts;
    sopts.shards = args.shards;
    sopts.jobs = args.jobs >= 1 ? args.jobs : 1;
    sopts.retry = args.retry;
    sopts.keep_going = args.keep_going;
    sopts.shard_db_dir = args.shard_db_dir;
    sopts.steal = args.steal;
    sopts.steal_grain = args.steal_grain;
    sopts.placement = args.placement;
    sopts.cost_profile = args.cost_profile;
    sopts.db = db.has_value() ? &*db : nullptr;
    // Sharded runs go through the fleet supervisor: with no rank-level
    // fault site armed the coordinator runs without its hook (identical
    // bytes, full concurrency); with FLIT_FAULTS=shard/stall the hook
    // contains rank deaths and stalls per --max-restarts /
    // --allow-partial.
    dist::SupervisorOptions vopts;
    vopts.shard = sopts;
    vopts.max_restarts = args.max_restarts;
    vopts.stall_deadline = args.stall_deadline;
    vopts.allow_partial = args.allow_partial;
    dist::FleetSupervisor fleet(&fpsem::global_code_model(),
                                toolchain::mfem_baseline(),
                                toolchain::mfem_speed_reference(), vopts);
    const dist::ShardedStudy sharded_study =
        args.resume ? fleet.resume(*test, space) : fleet.run(*test, space);
    study = sharded_study.study;
    std::fputs(dist::shard_report_text(sharded_study).c_str(), stderr);
  } else {
    core::SpaceExplorer explorer(&fpsem::global_code_model(),
                                 toolchain::mfem_baseline(),
                                 toolchain::mfem_speed_reference(),
                                 args.jobs);
    core::ExploreOptions opts;
    opts.retry = args.retry;
    opts.keep_going = args.keep_going;
    if (db.has_value()) {
      opts.db = &*db;
      opts.resume = args.resume;
    }
    study = explorer.explore(*test, space, opts);
    // Scheduling-independent, but kept off stdout like every memo count:
    // piped CSVs and summaries stay byte-identical to a memo-less run.
    const core::ProbeMemo::Stats ms = explorer.memo().stats();
    std::fprintf(stderr, "execution memo: %llu real runs, %llu memo hits\n",
                 static_cast<unsigned long long>(ms.entries),
                 static_cast<unsigned long long>(ms.hits));
  }

  if (db.has_value()) {
    std::fprintf(stderr, "recorded %zu outcomes into %s\n",
                 study.outcomes.size(), args.db_path.c_str());
  }
  if (args.csv) {
    std::fputs(core::study_csv(study).c_str(), stdout);
  } else {
    std::printf("%s\n", core::study_summary(study).c_str());
    std::fputs(core::failure_report(study).c_str(), stdout);
  }
  return 0;
}

int cmd_bisect(const std::string& test_name,
               const toolchain::Compilation& comp, int k, int digits) {
  auto& reg = core::global_test_registry();
  if (!reg.contains(test_name)) {
    std::fprintf(stderr, "unknown test '%s'\n", test_name.c_str());
    return 1;
  }
  const auto test = reg.create(test_name);
  core::BisectConfig cfg;
  cfg.baseline = comp.compiler.family == toolchain::CompilerFamily::XLC
                     ? toolchain::laghos_trusted_xlc()
                     : toolchain::mfem_baseline();
  cfg.variable = comp;
  cfg.k = k;
  cfg.digits = digits;
  core::BisectDriver driver(&fpsem::global_code_model(), test.get(), cfg);
  std::fputs(core::bisect_report(driver.run()).c_str(), stdout);
  return 0;
}

struct WorkflowArgs {
  unsigned jobs = 0;
  std::size_t max_bisects = 3;  ///< Level 3 cap (0 = bisect everything)
  int k = 1;
  int digits = 0;
  int shards = 1;
  bool steal = true;
  std::size_t steal_grain = 16;
  dist::PlacementPolicy placement = dist::PlacementPolicy::Static;
  std::string cost_profile;
  core::RetryPolicy retry;
  bool keep_going = true;
  int max_restarts = 2;
  double stall_deadline = 0.0;
  bool allow_partial = false;
};

int cmd_workflow(const std::string& test_name, const WorkflowArgs& args) {
  auto& reg = core::global_test_registry();
  if (!reg.contains(test_name)) {
    std::fprintf(stderr, "unknown test '%s'\n", test_name.c_str());
    return 1;
  }
  const auto test = reg.create(test_name);
  core::WorkflowOptions opts;
  opts.baseline = toolchain::mfem_baseline();
  opts.speed_reference = toolchain::mfem_speed_reference();
  opts.max_bisects = args.max_bisects;
  opts.k = args.k;
  opts.digits = args.digits;
  opts.jobs = args.jobs;
  opts.explore.retry = args.retry;
  opts.explore.keep_going = args.keep_going;
  // With --shards the Level 1/2 exploration runs on the sharded engine;
  // the merged study is bitwise-identical, so the bisect phase and report
  // are oblivious.  The coordinator outlives run_workflow's use of the
  // override.
  std::optional<dist::FleetSupervisor> fleet;
  if (args.shards > 1) {
    dist::SupervisorOptions vopts;
    vopts.shard.shards = args.shards;
    vopts.shard.jobs = args.jobs >= 1 ? args.jobs : 1;
    vopts.shard.steal = args.steal;
    vopts.shard.steal_grain = args.steal_grain;
    vopts.shard.placement = args.placement;
    vopts.shard.cost_profile = args.cost_profile;
    vopts.shard.retry = args.retry;
    vopts.shard.keep_going = args.keep_going;
    vopts.max_restarts = args.max_restarts;
    vopts.stall_deadline = args.stall_deadline;
    vopts.allow_partial = args.allow_partial;
    fleet.emplace(&fpsem::global_code_model(), opts.baseline,
                  opts.speed_reference, vopts);
    opts.explore_override = fleet->explore_override();
  }
  const auto report = core::run_workflow(
      &fpsem::global_code_model(), *test, toolchain::mfem_study_space(),
      opts);
  std::fputs(core::workflow_report_text(report).c_str(), stdout);
  return 0;
}

struct BlameArgs {
  std::string test;     ///< optional with --db (then: every db test)
  std::string db_path;  ///< enumerate cells from a results database
  int k = 0;
  int digits = 0;
  unsigned jobs = 0;
  int shards = 1;
  bool steal = true;
  std::size_t steal_grain = 4;
  bool memo = true;
  std::size_t max_cells = 0;
  std::size_t pairs = 4;
};

int cmd_blame(const BlameArgs& args) {
  auto& reg = core::global_test_registry();
  const auto space = toolchain::mfem_study_space();
  blame::CampaignInput input;
  if (!args.db_path.empty()) {
    const core::ResultsDb db(args.db_path);
    input = blame::input_from_db(db, space);
    if (!args.test.empty()) {
      blame::CampaignInput filtered;
      filtered.dropped_rows = input.dropped_rows;
      for (const blame::Cell& c : input.cells) {
        if (c.test == args.test) filtered.cells.push_back(c);
      }
      if (const auto it = input.equal_comps.find(args.test);
          it != input.equal_comps.end()) {
        filtered.equal_comps[args.test] = it->second;
      }
      input = std::move(filtered);
    }
  } else {
    if (!reg.contains(args.test)) {
      std::fprintf(stderr, "unknown test '%s'\n", args.test.c_str());
      return 1;
    }
    const auto test = reg.create(args.test);
    const core::SpaceExplorer explorer(
        &fpsem::global_code_model(), toolchain::mfem_baseline(),
        toolchain::mfem_speed_reference(), args.jobs >= 1 ? args.jobs : 1);
    input = blame::input_from_study(explorer.explore(*test, space));
  }
  blame::BlameOptions opts;
  opts.baseline = toolchain::mfem_baseline();
  opts.k = args.k;
  opts.digits = args.digits;
  opts.memo = args.memo;
  opts.max_cells = args.max_cells;
  opts.adversarial_attempts = args.pairs;
  opts.shard.shards = args.shards;
  opts.shard.jobs = args.jobs >= 1 ? args.jobs : 1;
  opts.shard.steal = args.steal;
  opts.shard.grain = args.steal_grain;
  const blame::BlameReport report =
      blame::run_campaign(&fpsem::global_code_model(), reg, input, opts);
  // The deterministic report goes to stdout; the scheduling-dependent
  // accounting (memo hit rate, steals) to stderr, so piped output is
  // byte-stable at any shards x jobs mix.
  std::fputs(report.text().c_str(), stdout);
  std::fputs(report.stats_text().c_str(), stderr);
  return 0;
}

int cmd_mix(const std::string& test_name, long double tolerance) {
  auto& reg = core::global_test_registry();
  if (!reg.contains(test_name)) {
    std::fprintf(stderr, "unknown test '%s'\n", test_name.c_str());
    return 1;
  }
  const auto test = reg.create(test_name);
  core::MixerConfig cfg;
  cfg.baseline = toolchain::mfem_baseline();
  cfg.aggressive = {toolchain::gcc(), toolchain::OptLevel::O3,
                    "-funsafe-math-optimizations"};
  cfg.tolerance = tolerance;
  const auto rec = core::recommend_fast_math_mix(
      &fpsem::global_code_model(), *test, cfg);
  std::printf("fast-math mix for %s at tolerance %.3Le (%d runs):\n",
              test_name.c_str(), tolerance, rec.executions);
  std::printf("  compile aggressively (%zu files):\n",
              rec.fast_files.size());
  for (const auto& f : rec.fast_files) std::printf("    %s\n", f.c_str());
  std::printf("  keep on the trusted compilation (%zu files):\n",
              rec.precise_files.size());
  for (const auto& f : rec.precise_files) {
    std::printf("    %s\n", f.c_str());
  }
  std::printf("  mixed variability %.3Le, modeled speedup %.3fx\n",
              rec.variability, rec.speedup());
  return 0;
}

/// Strict byte-count parsing for --cache-budget: a plain non-negative
/// integer (0 is meaningful: retain nothing).
std::uint64_t parse_bytes(const char* flag, const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (s[0] == '\0' || s[0] == '-' || end == nullptr || *end != '\0' ||
      errno == ERANGE) {
    throw std::invalid_argument(std::string(flag) +
                                ": expected a non-negative byte count, "
                                "got '" + std::string(s) + "'");
  }
  return static_cast<std::uint64_t>(v);
}

struct ServeArgs {
  serve::ServeOptions opts;
};

int cmd_serve(const std::string& requests_path, ServeArgs& args) {
  // Admission reads the whole stream up front: a service must reject a
  // malformed request file at the door, before any tenant's study runs.
  std::vector<serve::StudyRequest> requests;
  if (requests_path == "-") {
    requests = serve::read_requests(std::cin);
  } else {
    std::ifstream in(requests_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr,
                   "serve: cannot read request file '%s' (must exist and "
                   "be readable)\n",
                   requests_path.c_str());
      return 2;
    }
    requests = serve::read_requests(in);
  }
  if (requests.empty()) {
    std::fprintf(stderr, "serve: no requests in '%s'\n",
                 requests_path.c_str());
    return 2;
  }

  // Without --stream-out the per-tenant event streams interleave on
  // stdout, each line prefixed by its tenant.
  if (args.opts.stream_dir.empty()) {
    args.opts.event_sink = [](const std::string& tenant,
                              const std::string& line) {
      std::printf("%s\t%s\n", tenant.c_str(), line.c_str());
    };
  }

  const auto space = toolchain::mfem_study_space();
  serve::StudyService service(&fpsem::global_code_model(),
                              toolchain::mfem_baseline(),
                              toolchain::mfem_speed_reference(), space,
                              std::move(args.opts));
  const serve::ServeReport report = service.run(requests);

  for (const serve::RequestReport& r : report.requests) {
    if (r.deduplicated) {
      std::fprintf(stderr,
                   "request %s (tenant %s): deduplicated onto %s, "
                   "items=%zu variable=%zu failed=%zu\n",
                   r.id.c_str(), r.tenant.c_str(), r.primary.c_str(),
                   r.items, r.variable, r.failed);
    } else {
      std::fprintf(stderr,
                   "request %s (tenant %s): test=%s items=%zu "
                   "variable=%zu failed=%zu batches=%zu cache "
                   "hits=%llu misses=%llu\n",
                   r.id.c_str(), r.tenant.c_str(), r.test.c_str(), r.items,
                   r.variable, r.failed, r.batches,
                   static_cast<unsigned long long>(r.cache.hits),
                   static_cast<unsigned long long>(r.cache.misses));
    }
  }
  const auto& c = report.cache;
  std::fprintf(stderr,
               "served %zu requests (%zu deduplicated): cache hits=%llu "
               "misses=%llu hit-rate=%.3f evictions=%llu resident=%llu "
               "bytes; execution memo real-runs=%llu hits=%llu; fleet "
               "cycles %.0f\n",
               report.requests.size(), report.deduplicated,
               static_cast<unsigned long long>(c.hits),
               static_cast<unsigned long long>(c.misses), c.hit_rate(),
               static_cast<unsigned long long>(c.evictions),
               static_cast<unsigned long long>(report.cache_resident_bytes),
               static_cast<unsigned long long>(report.memo.entries),
               static_cast<unsigned long long>(report.memo.hits),
               report.fleet_cycles);
  return 0;
}

/// `flit gen`: print the generated space (labels, names, or one kernel's
/// pseudo-source) without running a study over it.
int cmd_gen(const gen::GenSpec& spec, const std::string& mode,
            const std::string& emit_name) {
  const std::vector<gen::GeneratedKernel> kernels = gen::generate(spec);
  if (mode == "list") {
    for (const auto& k : kernels) std::printf("%s\n", k.name.c_str());
    return 0;
  }
  if (mode == "emit") {
    for (const auto& k : kernels) {
      if (k.name == emit_name) {
        std::fputs(gen::emit_text(k).c_str(), stdout);
        return 0;
      }
    }
    std::fprintf(stderr,
                 "gen: no kernel named '%s' in this space (try: flit gen "
                 "--list with the same --gen-* options)\n",
                 emit_name.c_str());
    return 1;
  }
  std::fputs(gen::describe_tsv(kernels).c_str(), stdout);
  return 0;
}

int dispatch(int argc, char** argv) {
  // Force the injector's FLIT_FAULTS parse now: a malformed spec should
  // die here as `flit: error: FLIT_FAULTS: ...`, not surface later
  // wrapped in a study-abort diagnostic.
  (void)core::FaultInjector::global();
  register_bundled_tests();
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  if (cmd == "list") return cmd_list();

  if (cmd == "gen") {
    GenArgs gargs;
    std::string mode = "describe";
    std::string emit_name;
    for (int i = 2; i < argc; ++i) {
      if (gargs.parse(argv, argc, &i)) {
        // consumed
      } else if (std::strcmp(argv[i], "--describe") == 0) {
        mode = "describe";
      } else if (std::strcmp(argv[i], "--list") == 0) {
        mode = "list";
      } else if (std::strcmp(argv[i], "--emit") == 0) {
        mode = "emit";
        emit_name = option_value("--emit", argv, argc, &i);
      } else {
        std::fprintf(stderr, "gen: unknown option '%s'\n", argv[i]);
        return usage();
      }
    }
    gargs.spec.validate();
    return cmd_gen(gargs.spec, mode, emit_name);
  }

  if (cmd == "explore") {
    if (argc < 3) return usage();
    ExploreArgs args;
    TelemetryArgs tel;
    GenArgs gargs;
    args.jobs = core::default_jobs();
    for (int i = 3; i < argc; ++i) {
      if (tel.parse(argv, argc, &i)) {
        // consumed
      } else if (gargs.parse(argv, argc, &i)) {
        // consumed
      } else if (std::strcmp(argv[i], "--csv") == 0) {
        args.csv = true;
      } else if (std::strcmp(argv[i], "--db") == 0) {
        args.db_path = option_value("--db", argv, argc, &i);
      } else if (std::strcmp(argv[i], "--jobs") == 0) {
        args.jobs = parse_jobs("--jobs", option_value("--jobs", argv, argc,
                                                      &i));
      } else if (std::strcmp(argv[i], "--shards") == 0) {
        args.shards = static_cast<int>(parse_jobs(
            "--shards", option_value("--shards", argv, argc, &i)));
      } else if (std::strcmp(argv[i], "--shard-db-dir") == 0) {
        args.shard_db_dir =
            option_value("--shard-db-dir", argv, argc, &i);
      } else if (std::strcmp(argv[i], "--steal") == 0) {
        args.steal = true;
      } else if (std::strcmp(argv[i], "--no-steal") == 0) {
        args.steal = false;
      } else if (std::strcmp(argv[i], "--steal-grain") == 0) {
        args.steal_grain = parse_jobs(
            "--steal-grain", option_value("--steal-grain", argv, argc, &i));
      } else if (std::strcmp(argv[i], "--placement") == 0) {
        args.placement = parse_placement(
            "--placement", option_value("--placement", argv, argc, &i));
      } else if (std::strcmp(argv[i], "--cost-profile") == 0) {
        args.cost_profile =
            option_value("--cost-profile", argv, argc, &i);
      } else if (std::strcmp(argv[i], "--retries") == 0) {
        args.retry.max_attempts = static_cast<int>(parse_jobs(
            "--retries", option_value("--retries", argv, argc, &i)));
      } else if (std::strcmp(argv[i], "--resume") == 0) {
        args.resume = true;
      } else if (std::strcmp(argv[i], "--max-restarts") == 0) {
        args.max_restarts = parse_nonneg(
            "--max-restarts", option_value("--max-restarts", argv, argc, &i));
      } else if (std::strcmp(argv[i], "--stall-deadline") == 0) {
        args.stall_deadline = parse_nonneg_double(
            "--stall-deadline",
            option_value("--stall-deadline", argv, argc, &i));
      } else if (std::strcmp(argv[i], "--allow-partial") == 0) {
        args.allow_partial = true;
      } else if (std::strcmp(argv[i], "--keep-going") == 0) {
        args.keep_going = true;
      } else if (std::strcmp(argv[i], "--no-keep-going") == 0) {
        args.keep_going = false;
      } else {
        std::fprintf(stderr, "explore: unknown option '%s'\n", argv[i]);
        return usage();
      }
    }
    gargs.install();
    telemetry_begin(tel);
    const int rc = cmd_explore(argv[2], args);
    telemetry_finish(tel);
    return rc;
  }

  if (cmd == "bisect") {
    if (argc < 5) return usage();
    // The compilation is the positional run up to the first option; every
    // option is parsed strictly through option_value (a missing or
    // malformed value is an error, not a silently shortened compilation).
    int k = 0, digits = 0;
    TelemetryArgs tel;
    int end = argc;
    for (int i = 3; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        if (end != argc) {
          std::fprintf(stderr,
                       "bisect: unexpected argument '%s' after options\n",
                       argv[i]);
          return usage();
        }
        continue;  // part of the compilation
      }
      if (end == argc) end = i;
      if (tel.parse(argv, argc, &i)) {
        // consumed
      } else if (std::strcmp(argv[i], "--k") == 0) {
        k = static_cast<int>(
            parse_long("--k", option_value("--k", argv, argc, &i)));
      } else if (std::strcmp(argv[i], "--digits") == 0) {
        digits = static_cast<int>(
            parse_long("--digits", option_value("--digits", argv, argc, &i)));
      } else {
        std::fprintf(stderr, "bisect: unknown option '%s'\n", argv[i]);
        return usage();
      }
    }
    toolchain::Compilation comp;
    if (!parse_compilation(argv, 3, end, &comp)) return usage();
    telemetry_begin(tel);
    const int rc = cmd_bisect(argv[2], comp, k, digits);
    telemetry_finish(tel);
    return rc;
  }

  if (cmd == "workflow") {
    if (argc < 3) return usage();
    WorkflowArgs args;
    args.jobs = core::default_jobs();
    TelemetryArgs tel;
    GenArgs gargs;
    for (int i = 3; i < argc; ++i) {
      if (tel.parse(argv, argc, &i)) {
        // consumed
      } else if (gargs.parse(argv, argc, &i)) {
        // consumed
      } else if (std::strcmp(argv[i], "--jobs") == 0) {
        args.jobs =
            parse_jobs("--jobs", option_value("--jobs", argv, argc, &i));
      } else if (std::strcmp(argv[i], "--max-bisects") == 0) {
        args.max_bisects = static_cast<std::size_t>(parse_nonneg(
            "--max-bisects", option_value("--max-bisects", argv, argc, &i)));
      } else if (std::strcmp(argv[i], "--k") == 0) {
        args.k = static_cast<int>(
            parse_long("--k", option_value("--k", argv, argc, &i)));
      } else if (std::strcmp(argv[i], "--digits") == 0) {
        args.digits = static_cast<int>(
            parse_long("--digits", option_value("--digits", argv, argc, &i)));
      } else if (std::strcmp(argv[i], "--shards") == 0) {
        args.shards = static_cast<int>(parse_jobs(
            "--shards", option_value("--shards", argv, argc, &i)));
      } else if (std::strcmp(argv[i], "--steal") == 0) {
        args.steal = true;
      } else if (std::strcmp(argv[i], "--no-steal") == 0) {
        args.steal = false;
      } else if (std::strcmp(argv[i], "--steal-grain") == 0) {
        args.steal_grain = parse_jobs(
            "--steal-grain", option_value("--steal-grain", argv, argc, &i));
      } else if (std::strcmp(argv[i], "--placement") == 0) {
        args.placement = parse_placement(
            "--placement", option_value("--placement", argv, argc, &i));
      } else if (std::strcmp(argv[i], "--cost-profile") == 0) {
        args.cost_profile =
            option_value("--cost-profile", argv, argc, &i);
      } else if (std::strcmp(argv[i], "--retries") == 0) {
        args.retry.max_attempts = static_cast<int>(parse_jobs(
            "--retries", option_value("--retries", argv, argc, &i)));
      } else if (std::strcmp(argv[i], "--max-restarts") == 0) {
        args.max_restarts = parse_nonneg(
            "--max-restarts", option_value("--max-restarts", argv, argc, &i));
      } else if (std::strcmp(argv[i], "--stall-deadline") == 0) {
        args.stall_deadline = parse_nonneg_double(
            "--stall-deadline",
            option_value("--stall-deadline", argv, argc, &i));
      } else if (std::strcmp(argv[i], "--allow-partial") == 0) {
        args.allow_partial = true;
      } else if (std::strcmp(argv[i], "--keep-going") == 0) {
        args.keep_going = true;
      } else if (std::strcmp(argv[i], "--no-keep-going") == 0) {
        args.keep_going = false;
      } else {
        std::fprintf(stderr, "workflow: unknown option '%s'\n", argv[i]);
        return usage();
      }
    }
    gargs.install();
    telemetry_begin(tel);
    const int rc = cmd_workflow(argv[2], args);
    telemetry_finish(tel);
    return rc;
  }

  if (cmd == "blame") {
    if (argc < 3) return usage();
    BlameArgs args;
    args.jobs = core::default_jobs();
    TelemetryArgs tel;
    GenArgs gargs;
    // The test name is optional when --db provides the cells (then every
    // test in the database is campaigned; a name filters to one).
    int first_opt = 2;
    if (std::strncmp(argv[2], "--", 2) != 0) {
      args.test = argv[2];
      first_opt = 3;
    }
    for (int i = first_opt; i < argc; ++i) {
      if (tel.parse(argv, argc, &i)) {
        // consumed
      } else if (gargs.parse(argv, argc, &i)) {
        // consumed
      } else if (std::strcmp(argv[i], "--db") == 0) {
        args.db_path = option_value("--db", argv, argc, &i);
      } else if (std::strcmp(argv[i], "--k") == 0) {
        args.k = static_cast<int>(
            parse_long("--k", option_value("--k", argv, argc, &i)));
      } else if (std::strcmp(argv[i], "--digits") == 0) {
        args.digits = static_cast<int>(
            parse_long("--digits", option_value("--digits", argv, argc, &i)));
      } else if (std::strcmp(argv[i], "--jobs") == 0) {
        args.jobs =
            parse_jobs("--jobs", option_value("--jobs", argv, argc, &i));
      } else if (std::strcmp(argv[i], "--shards") == 0) {
        args.shards = static_cast<int>(parse_jobs(
            "--shards", option_value("--shards", argv, argc, &i)));
      } else if (std::strcmp(argv[i], "--steal") == 0) {
        args.steal = true;
      } else if (std::strcmp(argv[i], "--no-steal") == 0) {
        args.steal = false;
      } else if (std::strcmp(argv[i], "--steal-grain") == 0) {
        args.steal_grain = parse_jobs(
            "--steal-grain", option_value("--steal-grain", argv, argc, &i));
      } else if (std::strcmp(argv[i], "--memo") == 0) {
        args.memo = true;
      } else if (std::strcmp(argv[i], "--no-memo") == 0) {
        args.memo = false;
      } else if (std::strcmp(argv[i], "--max-cells") == 0) {
        args.max_cells = static_cast<std::size_t>(parse_nonneg(
            "--max-cells", option_value("--max-cells", argv, argc, &i)));
      } else if (std::strcmp(argv[i], "--pairs") == 0) {
        args.pairs = static_cast<std::size_t>(parse_nonneg(
            "--pairs", option_value("--pairs", argv, argc, &i)));
      } else {
        std::fprintf(stderr, "blame: unknown option '%s'\n", argv[i]);
        return usage();
      }
    }
    if (args.test.empty() && args.db_path.empty()) {
      std::fprintf(stderr, "blame: a test name or --db file.tsv is required\n");
      return usage();
    }
    gargs.install();
    telemetry_begin(tel);
    const int rc = cmd_blame(args);
    telemetry_finish(tel);
    return rc;
  }

  if (cmd == "mix") {
    if (argc < 4) return usage();
    return cmd_mix(argv[2], parse_longdouble("tolerance", argv[3]));
  }

  if (cmd == "serve") {
    if (argc < 3) return usage();
    ServeArgs args;
    args.opts.jobs = core::default_jobs();
    TelemetryArgs tel;
    GenArgs gargs;
    for (int i = 3; i < argc; ++i) {
      if (tel.parse(argv, argc, &i)) {
        // consumed
      } else if (gargs.parse(argv, argc, &i)) {
        // consumed
      } else if (std::strcmp(argv[i], "--state-dir") == 0) {
        args.opts.state_dir = option_value("--state-dir", argv, argc, &i);
      } else if (std::strcmp(argv[i], "--stream-out") == 0) {
        args.opts.stream_dir = option_value("--stream-out", argv, argc, &i);
      } else if (std::strcmp(argv[i], "--cache-budget") == 0) {
        args.opts.cache_budget = parse_bytes(
            "--cache-budget", option_value("--cache-budget", argv, argc, &i));
      } else if (std::strcmp(argv[i], "--shards") == 0) {
        args.opts.shards = static_cast<int>(parse_jobs(
            "--shards", option_value("--shards", argv, argc, &i)));
      } else if (std::strcmp(argv[i], "--jobs") == 0) {
        args.opts.jobs =
            parse_jobs("--jobs", option_value("--jobs", argv, argc, &i));
      } else if (std::strcmp(argv[i], "--steal") == 0) {
        args.opts.steal = true;
      } else if (std::strcmp(argv[i], "--no-steal") == 0) {
        args.opts.steal = false;
      } else if (std::strcmp(argv[i], "--max-inflight") == 0) {
        args.opts.max_inflight = parse_jobs(
            "--max-inflight", option_value("--max-inflight", argv, argc, &i));
      } else if (std::strcmp(argv[i], "--checkpoint-batch") == 0) {
        args.opts.checkpoint_batch = parse_jobs(
            "--checkpoint-batch",
            option_value("--checkpoint-batch", argv, argc, &i));
      } else if (std::strcmp(argv[i], "--resume") == 0) {
        args.opts.resume = true;
      } else if (std::strcmp(argv[i], "--retries") == 0) {
        args.opts.retry.max_attempts = static_cast<int>(parse_jobs(
            "--retries", option_value("--retries", argv, argc, &i)));
      } else if (std::strcmp(argv[i], "--keep-going") == 0) {
        args.opts.keep_going = true;
      } else if (std::strcmp(argv[i], "--no-keep-going") == 0) {
        args.opts.keep_going = false;
      } else {
        std::fprintf(stderr, "serve: unknown option '%s'\n", argv[i]);
        return usage();
      }
    }
    if (args.opts.resume && args.opts.state_dir.empty()) {
      std::fprintf(stderr, "serve: --resume requires --state-dir\n");
      return 2;
    }
    gargs.install();
    telemetry_begin(tel);
    const int rc = cmd_serve(argv[2], args);
    telemetry_finish(tel);
    return rc;
  }

  std::fprintf(stderr,
               "flit: unknown command '%s' (commands: list, explore, "
               "bisect, workflow, mix, serve, gen, blame)\n",
               cmd.c_str());
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Any escaping exception (study abort, malformed database, bad option)
  // used to reach std::terminate; a tool in a driver script must fail
  // with a message and a status instead.
  try {
    return dispatch(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flit: error: %s\n", e.what());
    return 1;
  }
}
