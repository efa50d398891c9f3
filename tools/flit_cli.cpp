// flit — command-line front end over the library, mirroring the upstream
// tool's UX on the simulated toolchain:
//
//   flit list                       registered FLiT tests
//   flit explore <test>             run the 244-compilation study
//   flit bisect <test> <compilation...>
//                                   root-cause one compilation
//   flit workflow <test>            the full Fig. 1 pipeline
//   flit mix <test> <tolerance>     fast-math file mix within a tolerance
//   flit serve <requests.jsonl|->   multi-tenant study service
//   flit gen                        print the generated kernel space
//   flit blame [<test>]             dedup bisect campaign over every
//                                   variability-flagged cell
//
// <compilation...> is e.g.:  g++ -O2 -funsafe-math-optimizations
//
// Every option is one row of kFlags: its name, its value, the subcommands
// that take it, a parser that stores the value into the library options
// it sets, and its help.  One parse loop and the usage text read that
// table, so a flag is declared once.
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
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
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

/// Every option's destination.  The library option structs keep their
/// own defaults, so the CLI states only the ones that differ.  A flag that
/// several subcommands take sets its field in each of their structs; a run
/// reads only its own subcommand's.
struct Options {
  std::vector<std::string> args;  ///< positionals after the subcommand
  unsigned jobs = core::default_jobs();
  bool csv = false;
  bool resume = false;
  std::string db;
  std::string trace_out;
  std::string metrics_out;
  dist::ShardOptions shard;  ///< explore's and workflow's engine
  core::WorkflowOptions workflow{.max_bisects = 3, .k = 1};
  core::BisectConfig bisect;
  blame::BlameOptions blame;
  serve::ServeOptions serve;
  gen::GenSpec gen;
  bool gen_enabled = false;  ///< any --gen-* flag installs the suite
  std::string gen_mode = "describe";
  std::string emit;
};

/// Parses `s` into `dest` as an integer in [lo, the maximum of T].  A
/// value that does not fit the destination's type is an error, never a
/// narrowed one: narrowing would turn the run asked for into another
/// (a --steal-grain of 4294967296 into 0, past the lower bound).
template <class T>
T& parse_int(T& dest, const char* s,
             std::type_identity_t<T> lo = std::numeric_limits<T>::min()) {
  char* end = nullptr;
  errno = 0;
  std::conditional_t<std::is_signed_v<T>, long long, unsigned long long> v =
      0;
  if constexpr (std::is_signed_v<T>) {
    v = std::strtoll(s, &end, 10);
  } else {
    v = std::strtoull(s, &end, 10);
  }
  // strtoull negates a "-N" instead of failing.
  const bool negated = !std::is_signed_v<T> && std::strchr(s, '-') != nullptr;
  if (*s == '\0' || *end != '\0' || errno == ERANGE || negated ||
      !std::in_range<T>(v) || static_cast<T>(v) < lo) {
    throw std::invalid_argument(
        "expected an integer in [" + std::to_string(lo) + ", " +
        std::to_string(std::numeric_limits<T>::max()) + "], got '" + s + "'");
  }
  return dest = static_cast<T>(v);
}

/// Parses `s` into `dest` as a finite number >= 0 (NaN fails every
/// ordered comparison, so `v < 0` alone would let it through).
template <class T>
T& parse_real(T& dest, const char* s) {
  char* end = nullptr;
  T v = 0;
  if constexpr (std::is_same_v<T, double>) {
    v = std::strtod(s, &end);
  } else {
    v = std::strtold(s, &end);
  }
  if (*s == '\0' || *end != '\0' || !std::isfinite(v) || v < 0) {
    throw std::invalid_argument(
        std::string("expected a finite number >= 0, got '") + s + "'");
  }
  return dest = v;
}

/// Runs `parse`, prefixing any error with the option or argument it reads.
template <class F>
void named(const char* name, F&& parse) {
  try {
    parse();
  } catch (const std::exception& e) {
    throw std::invalid_argument(std::string(name) + ": " + e.what());
  }
}

enum CommandBit : unsigned {
  kList = 1u << 0,
  kExplore = 1u << 1,
  kBisect = 1u << 2,
  kWorkflow = 1u << 3,
  kMix = 1u << 4,
  kServe = 1u << 5,
  kGen = 1u << 6,
  kBlame = 1u << 7,
};
constexpr unsigned kStudy = kExplore | kWorkflow;
constexpr unsigned kFleet = kStudy | kBlame | kServe;
constexpr unsigned kTelemetry = kFleet | kBisect;
constexpr unsigned kGenerated = kFleet | kGen;

struct Flag {
  const char* name;
  const char* metavar;  ///< nullptr: a switch, which takes no value
  unsigned commands;    ///< CommandBits of the subcommands that take it
  void (*set)(Options& o, const char* value);
  const char* help;  ///< '\n' starts an indented continuation line
};

const Flag kFlags[] = {
    {"--csv", nullptr, kExplore, [](Options& o, const char*) { o.csv = true; },
     "print the study as CSV instead of the summary"},
    {"--db", "FILE", kExplore | kBlame,
     [](Options& o, const char* v) { o.db = v; },
     "explore: record outcomes into a results database, checkpointing\n"
     "incrementally (with --shards: the converged database, written after\n"
     "the merge); blame: bisect the cells of this existing database (all\n"
     "its tests, or <test> only)"},
    {"--resume", nullptr, kExplore | kServe,
     [](Options& o, const char*) { o.resume = o.serve.resume = true; },
     "skip rows already in --db (with --shards: in the --shard-db-dir\n"
     "databases); serve: prefill requests from their --state-dir checkpoints"},
    {"--jobs", "N", kFleet,
     [](Options& o, const char* v) { parse_int(o.jobs, v, 1); },
     "parallel execution lanes (default: the FLIT_JOBS environment\n"
     "variable if set, else the hardware thread count); results are\n"
     "identical at any jobs count"},
    {"--retries", "N", kStudy | kServe,
     [](Options& o, const char* v) {
       o.serve.retry.max_attempts =
           parse_int(o.shard.retry.max_attempts, v, 1);
     },
     "attempts per compilation before quarantine (default 1)"},
    {"--keep-going", nullptr, kStudy | kServe,
     [](Options& o, const char*) {
       o.shard.keep_going = o.serve.keep_going = true;
     },
     "record per-compilation failures and continue (default)"},
    {"--no-keep-going", nullptr, kStudy | kServe,
     [](Options& o, const char*) {
       o.shard.keep_going = o.serve.keep_going = false;
     },
     "abort on the first per-compilation failure"},
    {"--shards", "N", kFleet,
     [](Options& o, const char* v) {
       o.blame.shard.shards = o.serve.shards =
           parse_int(o.shard.shards, v, 1);
     },
     "partition the work across N simulated ranks (explore/workflow: each\n"
     "with its own compilation cache; serve: lanes over the shared one);\n"
     "results are identical at any shard count"},
    {"--shard-db-dir", "DIR", kExplore,
     [](Options& o, const char* v) { o.shard.shard_db_dir = v; },
     "per-shard checkpoint databases (shard-<r>-of-<N>.tsv); with\n"
     "--resume, shards are prefilled from them"},
    {"--steal", nullptr, kFleet,
     [](Options& o, const char*) {
       o.shard.steal = o.blame.shard.steal = o.serve.steal = true;
     },
     "rebalance by work stealing: an idle rank takes work from a loaded\n"
     "one (default; results are identical either way)"},
    {"--no-steal", nullptr, kFleet,
     [](Options& o, const char*) {
       o.shard.steal = o.blame.shard.steal = o.serve.steal = false;
     },
     "keep each rank to its own share of the work"},
    {"--steal-grain", "N", kStudy | kBlame,
     [](Options& o, const char* v) {
       o.blame.shard.grain = parse_int(o.shard.steal_grain, v, 1);
     },
     "items per shard claim (default 16; blame: 4); smaller grains\n"
     "rebalance finer at more claim overhead"},
    {"--placement", "P", kStudy,
     [](Options& o, const char* v) {
       const auto p = dist::placement_policy_from(v);
       if (!p.has_value()) {
         throw std::invalid_argument(
             std::string("expected static|cost|affinity, got '") + v + "'");
       }
       o.shard.placement = *p;
     },
     "how the space is split across shards: 'static' (contiguous index\n"
     "split, default), 'cost' (predicted-cost LPT balance) or 'affinity'\n"
     "(cost balance that keeps fingerprint-equal compilations on one\n"
     "shard); results are identical under every policy"},
    {"--cost-profile", "FILE", kStudy,
     [](Options& o, const char* v) { o.shard.cost_profile = v; },
     "prior-run results database refining the placement cost model with\n"
     "measured per-compilation costs"},
    {"--max-restarts", "N", kStudy,
     [](Options& o, const char* v) { parse_int(o.shard.max_restarts, v, 0); },
     "restarts the fleet supervisor grants each shard before declaring\n"
     "it dead (default 2); supervision engages when FLIT_FAULTS arms a\n"
     "shard or stall site"},
    {"--stall-deadline", "C", kStudy,
     [](Options& o, const char* v) { parse_real(o.shard.stall_deadline, v); },
     "modeled-cycle deadline at which a stalled shard is detected\n"
     "(default: the restart backoff unit)"},
    {"--allow-partial", nullptr, kStudy,
     [](Options& o, const char*) { o.shard.allow_partial = true; },
     "once the restart budget is exhausted, record the unrecoverable cells\n"
     "as 'degraded' and complete the study instead of aborting; a later\n"
     "--resume re-runs them and converges to the unfaulted bytes"},
    {"--max-bisects", "N", kWorkflow,
     [](Options& o, const char* v) { parse_int(o.workflow.max_bisects, v, 0); },
     "cap on the Level 3 searches (0 = bisect every variable compilation;\n"
     "default 3); skipped ones are reported"},
    {"--k", "N", kWorkflow | kBlame | kBisect,
     [](Options& o, const char* v) {
       o.bisect.k = o.blame.k = parse_int(o.workflow.k, v);
     },
     "keep the k biggest culprits per search (0 = all; default 0,\n"
     "workflow: 1)"},
    {"--digits", "D", kWorkflow | kBlame | kBisect,
     [](Options& o, const char* v) {
       o.bisect.digits = o.blame.digits = parse_int(o.workflow.digits, v);
     },
     "compare only D significant digits (0 = full precision, the default)"},
    {"--memo", nullptr, kBlame,
     [](Options& o, const char*) { o.blame.memo = true; },
     "share probe answers across bisects (default)"},
    {"--no-memo", nullptr, kBlame,
     [](Options& o, const char*) { o.blame.memo = false; },
     "re-run every probe: the same report bytes, more real executions"},
    {"--max-cells", "N", kBlame,
     [](Options& o, const char* v) { parse_int(o.blame.max_cells, v, 0); },
     "cap on the cells bisected (0 = all, the default)"},
    {"--pairs", "N", kBlame,
     [](Options& o, const char* v) {
       parse_int(o.blame.adversarial_attempts, v, 0);
     },
     "adversarial candidate pairs tried per cluster (default 4)"},
    {"--state-dir", "DIR", kServe,
     [](Options& o, const char* v) { o.serve.state_dir = v; },
     "per-request converged databases (<id>.tsv), CSVs and workflow\n"
     "reports"},
    {"--stream-out", "DIR", kServe,
     [](Options& o, const char* v) { o.serve.stream_dir = v; },
     "per-tenant event streams (<tenant>.jsonl); without it events\n"
     "print to stdout"},
    {"--cache-budget", "BYTES", kServe,
     [](Options& o, const char* v) {
       parse_int(o.serve.cache_budget.emplace(), v, 0);
     },
     "shared-cache cap in approximate object bytes (0 retains nothing);\n"
     "results are identical at any budget, eviction only changes hit rates"},
    {"--max-inflight", "N", kServe,
     [](Options& o, const char* v) { parse_int(o.serve.max_inflight, v, 1); },
     "studies multiplexed concurrently (default 4)"},
    {"--checkpoint-batch", "N", kServe,
     [](Options& o, const char* v) {
       parse_int(o.serve.checkpoint_batch, v, 1);
     },
     "items per scheduler claim and per durable checkpoint (default 32)"},
    {"--trace-out", "FILE", kTelemetry,
     [](Options& o, const char* v) { o.trace_out = v; },
     "write the deterministic span trace: Chrome trace_event JSON (load in\n"
     "ui.perfetto.dev), or one JSON object per event when FILE ends in\n"
     ".jsonl; event content is identical at any --jobs count"},
    {"--metrics-out", "FILE", kTelemetry,
     [](Options& o, const char* v) { o.metrics_out = v; },
     "write the metrics snapshot as JSON and print its summary table to\n"
     "stderr; telemetry never alters results"},
    {"--gen-seed", "N", kGenerated,
     [](Options& o, const char* v) {
       parse_int(o.gen.seed, v, 1);
       o.gen_enabled = true;
     },
     "generate the synthetic-kernel suite from seed N, a pure function of\n"
     "the --gen-* flags (default seed 1); any --gen-* flag installs it as\n"
     "one test per kernel plus the aggregate 'GenSuite' test (gen prints it)"},
    {"--gen-count", "N", kGenerated,
     [](Options& o, const char* v) {
       parse_int(o.gen.count, v, 1);
       o.gen_enabled = true;
     },
     "kernels to generate (default 16)"},
    {"--gen-recipes", "R,..", kGenerated,
     [](Options& o, const char* v) {
       o.gen.recipes = gen::recipes_from_csv(v);
       o.gen_enabled = true;
     },
     "recipe subset: fma, reduce, branch, libm, subnormal, unsafe\n"
     "(default: all, rotating)"},
    {"--describe", nullptr, kGen,
     [](Options& o, const char*) { o.gen_mode = "describe"; },
     "print the ground-truth label TSV (default)"},
    {"--list", nullptr, kGen,
     [](Options& o, const char*) { o.gen_mode = "list"; },
     "print the kernel names"},
    {"--emit", "KERNEL", kGen,
     [](Options& o, const char* v) {
       o.gen_mode = "emit";
       o.emit = v;
     },
     "print one kernel's annotated pseudo-source"},
};

struct Command {
  const char* name;
  CommandBit bit;
  int min_args;  ///< leading positionals taken whatever they look like
  int max_args;  ///< most positionals; past min_args, only non-options
  int (*run)(Options& o);
  const char* synopsis;
  const char* help;
};

int usage();

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
/// pools have joined, so the drain is quiescent).  Telemetry is strictly
/// off the result path: stdout and every database byte are identical with
/// or without --trace-out/--metrics-out.
void telemetry_finish(const Options& o) {
  if (!o.trace_out.empty()) {
    const std::vector<obs::TraceEvent> events = obs::tracer().drain_sorted();
    const bool jsonl =
        o.trace_out.size() >= 6 &&
        o.trace_out.compare(o.trace_out.size() - 6, 6, ".jsonl") == 0;
    write_file("--trace-out", o.trace_out,
               jsonl ? obs::events_jsonl(events)
                     : obs::chrome_trace_json(events));
  }
  if (!o.metrics_out.empty()) {
    const obs::MetricsSnapshot snap = obs::metrics().snapshot();
    write_file("--metrics-out", o.metrics_out, snap.json());
    std::fputs(snap.table().c_str(), stderr);
  }
}

/// Parses "<compiler> <-ON> [flags...]" from a bisect's positionals
/// (args[0] is the test).
bool parse_compilation(const std::vector<std::string>& args,
                       toolchain::Compilation* out) {
  // One of the four specs' names; anything else, "" included, is a
  // usage error.
  const std::string& name = args[1];
  const toolchain::CompilerSpec* found = nullptr;
  for (const auto* spec : {&toolchain::gcc(), &toolchain::clang(),
                           &toolchain::icpc(), &toolchain::xlc()}) {
    if (spec->name == name) found = spec;
  }
  if (found == nullptr) return false;
  out->compiler = *found;
  const std::string& opt = args[2];
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
  for (std::size_t i = 3; i < args.size(); ++i) {
    if (!flag.empty()) flag += ' ';
    flag += args[i];
  }
  out->flag = flag;
  return true;
}

int cmd_list(Options&) {
  for (const auto& name : core::global_test_registry().names()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

int cmd_explore(Options& o) {
  const std::string& test_name = o.args[0];
  auto& reg = core::global_test_registry();
  if (!reg.contains(test_name)) {
    std::fprintf(stderr, "unknown test '%s' (try: flit list)\n",
                 test_name.c_str());
    return 1;
  }
  dist::ShardOptions& shard = o.shard;
  const bool sharded = shard.shards > 1 || !shard.shard_db_dir.empty();
  if (o.resume && !sharded && o.db.empty()) {
    std::fprintf(stderr, "--resume requires --db\n");
    return 2;
  }
  if (o.resume && sharded && shard.shard_db_dir.empty()) {
    std::fprintf(stderr, "--resume with --shards requires --shard-db-dir\n");
    return 2;
  }
  const auto test = reg.create(test_name);
  const auto space = toolchain::mfem_study_space();

  std::optional<core::ResultsDb> db;
  if (!o.db.empty()) db.emplace(std::filesystem::path(o.db));

  core::StudyResult study;
  if (sharded) {
    shard.jobs = o.jobs;
    shard.db = db.has_value() ? &*db : nullptr;
    // With no rank-level fault site armed the coordinator runs its
    // pooled driver (identical bytes, full concurrency); with
    // FLIT_FAULTS=shard/stall it supervises its ranks, containing deaths
    // and stalls per --max-restarts / --allow-partial.
    dist::ShardCoordinator fleet(&fpsem::global_code_model(),
                                 toolchain::mfem_baseline(),
                                 toolchain::mfem_speed_reference(), shard);
    const dist::ShardedStudy sharded_study =
        o.resume ? fleet.resume(*test, space) : fleet.run(*test, space);
    study = sharded_study.study;
    std::fputs(dist::shard_report_text(sharded_study).c_str(), stderr);
  } else {
    core::SpaceExplorer explorer(&fpsem::global_code_model(),
                                 toolchain::mfem_baseline(),
                                 toolchain::mfem_speed_reference(), o.jobs);
    core::ExploreOptions opts;
    opts.retry = shard.retry;
    opts.keep_going = shard.keep_going;
    if (db.has_value()) {
      opts.db = &*db;
      opts.resume = o.resume;
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
                 study.outcomes.size(), o.db.c_str());
  }
  if (o.csv) {
    std::fputs(core::study_csv(study).c_str(), stdout);
  } else {
    std::printf("%s\n", core::study_summary(study).c_str());
    std::fputs(core::failure_report(study).c_str(), stdout);
  }
  return 0;
}

int cmd_bisect(Options& o) {
  core::BisectConfig& cfg = o.bisect;
  if (!parse_compilation(o.args, &cfg.variable)) return usage();
  auto& reg = core::global_test_registry();
  if (!reg.contains(o.args[0])) {
    std::fprintf(stderr, "unknown test '%s'\n", o.args[0].c_str());
    return 1;
  }
  const auto test = reg.create(o.args[0]);
  cfg.baseline =
      cfg.variable.compiler.family == toolchain::CompilerFamily::XLC
          ? toolchain::laghos_trusted_xlc()
          : toolchain::mfem_baseline();
  core::BisectDriver driver(&fpsem::global_code_model(), test.get(), cfg);
  std::fputs(core::bisect_report(driver.run()).c_str(), stdout);
  return 0;
}

int cmd_workflow(Options& o) {
  auto& reg = core::global_test_registry();
  if (!reg.contains(o.args[0])) {
    std::fprintf(stderr, "unknown test '%s'\n", o.args[0].c_str());
    return 1;
  }
  const auto test = reg.create(o.args[0]);
  core::WorkflowOptions& opts = o.workflow;
  opts.baseline = toolchain::mfem_baseline();
  opts.speed_reference = toolchain::mfem_speed_reference();
  opts.jobs = o.jobs;
  opts.explore.retry = o.shard.retry;
  opts.explore.keep_going = o.shard.keep_going;
  // With --shards the Level 1/2 exploration runs on the sharded engine;
  // the merged study is bitwise-identical, so the bisect phase and report
  // are oblivious.  The coordinator outlives run_workflow's use of the
  // override.
  std::optional<dist::ShardCoordinator> fleet;
  if (o.shard.shards > 1) {
    o.shard.jobs = o.jobs;
    fleet.emplace(&fpsem::global_code_model(), opts.baseline,
                  opts.speed_reference, o.shard);
    opts.explore_override = fleet->explore_override();
  }
  const auto report = core::run_workflow(
      &fpsem::global_code_model(), *test, toolchain::mfem_study_space(),
      opts);
  std::fputs(core::workflow_report_text(report).c_str(), stdout);
  return 0;
}

int cmd_blame(Options& o) {
  // The test name is optional when --db provides the cells (then every
  // test in the database is campaigned; a name filters to one).
  const std::string test_name = o.args.empty() ? "" : o.args[0];
  auto& reg = core::global_test_registry();
  const auto space = toolchain::mfem_study_space();
  blame::CampaignInput input;
  if (!o.db.empty()) {
    // An input database must exist: ResultsDb reads a missing file as a
    // first use, which would campaign over nothing and exit 0.
    if (!std::filesystem::exists(o.db)) {
      throw std::runtime_error("--db: results database '" + o.db +
                               "' does not exist");
    }
    const core::ResultsDb db(o.db);
    input = blame::input_from_db(db, space);
    if (!test_name.empty()) {
      blame::CampaignInput filtered;
      filtered.dropped_rows = input.dropped_rows;
      for (const blame::Cell& c : input.cells) {
        if (c.test == test_name) filtered.cells.push_back(c);
      }
      if (const auto it = input.equal_comps.find(test_name);
          it != input.equal_comps.end()) {
        filtered.equal_comps[test_name] = it->second;
      }
      input = std::move(filtered);
    }
  } else {
    if (!reg.contains(test_name)) {
      std::fprintf(stderr, "unknown test '%s'\n", test_name.c_str());
      return 1;
    }
    const auto test = reg.create(test_name);
    const core::SpaceExplorer explorer(
        &fpsem::global_code_model(), toolchain::mfem_baseline(),
        toolchain::mfem_speed_reference(), o.jobs);
    input = blame::input_from_study(explorer.explore(*test, space));
  }
  o.blame.baseline = toolchain::mfem_baseline();
  o.blame.shard.jobs = o.jobs;
  const blame::BlameReport report =
      blame::run_campaign(&fpsem::global_code_model(), reg, input, o.blame);
  // The deterministic report goes to stdout; the scheduling-dependent
  // accounting (memo hit rate, steals) to stderr, so piped output is
  // byte-stable at any shards x jobs mix.
  std::fputs(report.text().c_str(), stdout);
  std::fputs(report.stats_text().c_str(), stderr);
  return 0;
}

int cmd_mix(Options& o) {
  long double tolerance = 0;
  named("tolerance", [&] { parse_real(tolerance, o.args[1].c_str()); });
  const std::string& test_name = o.args[0];
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

int cmd_serve(Options& o) {
  const std::string& requests_path = o.args[0];
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
  if (o.serve.stream_dir.empty()) {
    o.serve.event_sink = [](const std::string& tenant,
                            const std::string& line) {
      std::printf("%s\t%s\n", tenant.c_str(), line.c_str());
    };
  }
  o.serve.jobs = o.jobs;

  const auto space = toolchain::mfem_study_space();
  serve::StudyService service(&fpsem::global_code_model(),
                              toolchain::mfem_baseline(),
                              toolchain::mfem_speed_reference(), space,
                              std::move(o.serve));
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
               static_cast<unsigned long long>(report.memo.entries +
                                               report.memo.escaped),
               static_cast<unsigned long long>(report.memo.hits),
               report.fleet_cycles);
  return 0;
}

/// `flit gen`: print the generated space (labels, names, or one kernel's
/// pseudo-source) without running a study over it.
int cmd_gen(Options& o) {
  const std::vector<gen::GeneratedKernel> kernels = gen::generate(o.gen);
  if (o.gen_mode == "list") {
    for (const auto& k : kernels) std::printf("%s\n", k.name.c_str());
    return 0;
  }
  if (o.gen_mode == "emit") {
    for (const auto& k : kernels) {
      if (k.name == o.emit) {
        std::fputs(gen::emit_text(k).c_str(), stdout);
        return 0;
      }
    }
    std::fprintf(stderr,
                 "gen: no kernel named '%s' in this space (try: flit gen "
                 "--list with the same --gen-* options)\n",
                 o.emit.c_str());
    return 1;
  }
  std::fputs(gen::describe_tsv(kernels).c_str(), stdout);
  return 0;
}

const Command kCommands[] = {
    {"list", kList, 0, 0, cmd_list, "", "print the registered FLiT tests"},
    {"explore", kExplore, 1, 1, cmd_explore, "<test>",
     "run the test over the 244-compilation study space (Levels 1-2)"},
    {"bisect", kBisect, 3, INT_MAX, cmd_bisect,
     "<test> <compiler> <-ON> [flag...]",
     "root-cause one compilation to files and functions (Level 3)"},
    {"workflow", kWorkflow, 1, 1, cmd_workflow, "<test>",
     "the Fig. 1 pipeline: explore, then bisect the variable compilations"},
    {"mix", kMix, 2, 2, cmd_mix, "<test> <tolerance>",
     "recommend which files to compile with fast math while the\n"
     "variability stays within <tolerance>"},
    {"serve", kServe, 1, 1, cmd_serve, "<requests.jsonl|->",
     "run a JSONL stream of study requests (one object per line:\n"
     "{\"id\":..,\"test\":..[,\"tenant\"][,\"mode\"][,\"compilers\"]"
     "[,\"limit\"]}) as a\n"
     "multi-tenant service sharing one compilation cache; see\n"
     "docs/study-service.md"},
    {"gen", kGen, 0, 0, cmd_gen, "",
     "print the generated space without running it; see\n"
     "docs/generated-workloads.md"},
    {"blame", kBlame, 0, 1, cmd_blame, "[<test>]",
     "bisect every variability-flagged cell (of a study of <test>, of a\n"
     "--db database, or of the --gen-* corpus) through one probe memo and\n"
     "cluster the outcomes into blame sites; the report is identical at\n"
     "any --shards x --jobs x --steal x --memo mix (docs/blame-dedup.md)"},
};

/// Prints `head` and its help, each help line indented under it.
void print_entry(const std::string& head, const char* help) {
  std::fprintf(stderr, "  %s\n      ", head.c_str());
  for (const char* p = help; *p != '\0'; ++p) {
    std::fputc(*p, stderr);
    if (*p == '\n') std::fputs("      ", stderr);
  }
  std::fputc('\n', stderr);
}

/// The usage text, generated from kCommands and kFlags.
int usage() {
  std::fputs("usage: flit <command> [arguments] [options]\n\ncommands:\n",
             stderr);
  for (const Command& c : kCommands) {
    print_entry(std::string("flit ") + c.name + (*c.synopsis ? " " : "") +
                    c.synopsis,
                c.help);
  }
  std::fputs("\noptions (and the commands that take them):\n", stderr);
  for (const Flag& f : kFlags) {
    std::string head = f.name;
    if (f.metavar != nullptr) head.append(" ").append(f.metavar);
    head.resize(std::max<std::size_t>(head.size() + 1, 22), ' ');
    const char* sep = "(";
    for (const Command& c : kCommands) {
      if ((f.commands & c.bit) == 0) continue;
      head.append(sep).append(c.name);
      sep = ", ";
    }
    print_entry(head + ")", f.help);
  }
  std::fputs(
      "\nFLIT_FAULTS=site:rate[:seed][,...] arms the deterministic fault\n"
      "injector (sites: compile, link, run, kill, shard, stall); see\n"
      "docs/fault-tolerance.md\n",
      stderr);
  return 2;
}

int dispatch(int argc, char** argv) {
  // Force the injector's FLIT_FAULTS parse now: a malformed spec should
  // die here as `flit: error: FLIT_FAULTS: ...`, not surface later
  // wrapped in a study-abort diagnostic.
  (void)core::FaultInjector::global();
  register_bundled_tests();
  if (argc < 2) return usage();
  const Command* cmd = nullptr;
  std::string names;
  for (const Command& c : kCommands) {
    if (std::strcmp(argv[1], c.name) == 0) cmd = &c;
    names += (names.empty() ? "" : ", ") + std::string(c.name);
  }
  if (cmd == nullptr) {
    std::fprintf(stderr, "flit: unknown command '%s' (commands: %s)\n",
                 argv[1], names.c_str());
    return usage();
  }

  Options o;
  for (int i = 2; i < argc; ++i) {
    // Leading positionals: the first min_args whatever they look like,
    // then up to max_args while they are not options.
    const bool option = std::strncmp(argv[i], "--", 2) == 0;
    const int n = static_cast<int>(o.args.size());
    if (i - 2 == n && n < cmd->max_args && (n < cmd->min_args || !option)) {
      o.args.emplace_back(argv[i]);
      continue;
    }
    const Flag* flag = nullptr;
    for (const Flag& f : kFlags) {
      if ((f.commands & cmd->bit) != 0 && std::strcmp(argv[i], f.name) == 0) {
        flag = &f;
      }
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "%s: %s '%s'\n", cmd->name,
                   option ? "unknown option" : "unexpected argument",
                   argv[i]);
      return usage();
    }
    if (flag->metavar != nullptr && ++i == argc) {
      throw std::invalid_argument(std::string(flag->name) + ": missing value");
    }
    named(flag->name,
          [&] { flag->set(o, flag->metavar != nullptr ? argv[i] : nullptr); });
  }
  if (static_cast<int>(o.args.size()) < cmd->min_args) return usage();

  // Usage errors that need nothing installed come before the generated
  // suite and the tracer.
  if (cmd->bit == kBlame && o.args.empty() && o.db.empty()) {
    std::fprintf(stderr, "blame: a test name or --db file.tsv is required\n");
    return usage();
  }
  if (cmd->bit == kServe && o.serve.resume && o.serve.state_dir.empty()) {
    std::fprintf(stderr, "serve: --resume requires --state-dir\n");
    return 2;
  }
  // The generated suite registers its kernels into the global code model
  // and test registry before the command runs, so its tests resolve
  // exactly like the bundled applications; `gen` only prints it.
  if (o.gen_enabled && cmd->bit != kGen) {
    gen::install_suite(o.gen, fpsem::global_code_model(),
                       &core::global_test_registry());
  }
  if (!o.trace_out.empty()) obs::tracer().set_enabled(true);
  const int rc = cmd->run(o);
  telemetry_finish(o);
  return rc;
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
