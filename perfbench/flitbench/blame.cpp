// blame-table1: blame::run_campaign over the Table-1 study's 1,399
// variable cells, k = all, memo on, the default pair budget, on
// 2 shards x 2 jobs with stealing.  Its set-up is the live Table-1 study
// that enumerates the cells.

#include <cstdio>

#include "blame/campaign.h"
#include "core/hierarchy.h"
#include "core/probe_memo.h"
#include "core/registry.h"
#include "fpsem/code_model.h"
#include "table1.h"

namespace flitbench {

using namespace flit;

namespace {

// The campaign report as tools/flit prints it (`flit blame --db` over
// the Table-1 study database), with the CLI's link set.
constexpr long long kCells = 1399;
constexpr long long kSites = 322;
constexpr long long kFailedSearches = 390;
constexpr long long kLogicalProbes = 44427;
constexpr const char* kReportDigest = "9ff25776adc96fe1";

blame::BlameOptions campaign_options() {
  blame::BlameOptions o;
  o.baseline = toolchain::mfem_baseline();
  o.k = 0;     // BisectAll
  o.memo = true;
  o.shard.shards = 2;
  o.shard.jobs = 2;
  o.shard.steal = true;
  return o;
}

void check_report(const blame::BlameReport& rep, Result& r) {
  const auto cells = static_cast<std::uint64_t>(rep.cells.size());
  r.check_eq("blame cells", kCells, static_cast<long long>(cells), cells);
  r.check_eq("blame sites", kSites,
             static_cast<long long>(rep.clusters.size()), cells);
  r.check_eq("blame failed searches", kFailedSearches,
             static_cast<long long>(rep.failed_cells.size()), cells);
  r.check_eq("blame logical probes", kLogicalProbes, rep.executions, cells);
  r.check_eq("blame report digest", kReportDigest, digest(rep.text()), cells);
}

/// Every cell bisected again through BisectDriver::run, serially, over
/// one shared memo and cache, with a span around each search; each must
/// reproduce the campaign's logical executions and crash verdict.
void replay_cells(const blame::BlameReport& rep, Spans& spans, Result& r) {
  const fpsem::CodeModel* model = &fpsem::global_code_model();
  const core::TestRegistry& reg = core::global_test_registry();
  toolchain::CompilationCache cache;
  core::ProbeMemo memo;
  long long executions = 0, memo_hits = 0, failed = 0;
  for (const blame::CellOutcome& co : rep.cells) {
    core::BisectConfig cfg;
    cfg.baseline = toolchain::mfem_baseline();
    cfg.variable = co.cell.variable;
    cfg.memo = &memo;
    const auto test = reg.create(co.cell.test);
    core::HierarchicalOutcome out;
    r.attempted += 1;
    try {
      Spans::Scope span(spans, "core.bisect");
      core::BisectDriver bisect(model, test.get(), cfg, &cache);
      out = bisect.run();
    } catch (const std::exception&) {
      // The campaign records a throwing search as a failed one.
      out = core::HierarchicalOutcome{};
      out.crashed = true;
    }
    executions += out.executions;
    memo_hits += out.memo_hits;
    failed += out.crashed ? 1 : 0;
    r.check(out.executions == co.bisect.executions &&
                out.crashed == co.bisect.crashed,
            1, "blame replay " + co.cell.test + " @ " + co.cell.variable.str());
  }
  r.set("core.bisect.searches", static_cast<double>(rep.cells.size()),
        "count");
  layer_timing(r, spans, "core.bisect", "core.bisect", 1e3, "ms");
  r.set("core.bisect.executions", static_cast<double>(executions), "count");
  r.set("core.bisect.memo_hit_ratio",
        executions > 0 ? static_cast<double>(memo_hits) / executions : 0.0,
        "ratio");
  r.set("core.bisect.failed", static_cast<double>(failed), "count");
}

}  // namespace

void run_blame(const Args& args, Result& r, Spans& spans) {
  const blame::BlameOptions opts = campaign_options();
  blame::CampaignInput input;
  blame::BlameReport report;
  std::vector<double> real_runs;
  std::uint64_t hits = 0, misses = 0, evicted = 0;

  const auto setup = [&] {
    const Table1Setup study = make_table1_setup();
    input = blame::CampaignInput{};
    for (const core::StudyResult& s : explore_all(study, spans)) {
      input.merge(blame::input_from_study(s));
    }
  };
  const auto round = [&]() -> std::uint64_t {
    const std::uint64_t h0 = counter("cache.hits");
    const std::uint64_t m0 = counter("cache.misses");
    const std::uint64_t e0 = counter("cache.evicted");
    {
      Spans::Scope span(spans, "blame.campaign");
      report = blame::run_campaign(&fpsem::global_code_model(),
                                   core::global_test_registry(), input, opts);
    }
    hits += counter("cache.hits") - h0;
    misses += counter("cache.misses") - m0;
    evicted += counter("cache.evicted") - e0;
    real_runs.push_back(
        static_cast<double>(report.executions - report.memo_hits));
    const std::uint64_t items = report.cells.size();
    r.attempted += items;
    check_report(report, r);
    return items;
  };
  spans.set_enabled(args.trace);
  Loop loop;
  run_loop(args.seconds, 1, /*serial_round=*/false, spans, setup, round,
           loop);

  if (!args.trace) {
    end_to_end(r, loop, median(real_runs));
    return;
  }

  const double n = static_cast<double>(loop.rounds());
  r.set("toolchain.cache.hit_ratio",
        static_cast<double>(hits) / static_cast<double>(hits + misses),
        "ratio");
  r.set("toolchain.cache.misses", static_cast<double>(misses) / n, "count");
  r.set("toolchain.cache.evictions", static_cast<double>(evicted) / n,
        "count");
  layer_timing(r, spans, "core.explore", "core.explore", 1e3, "ms");
  r.set("core.explore.calls", mfemini::kNumExamples, "count");

  long long cell_exec = 0, cell_hits = 0, pair_real = 0;
  for (const blame::CellOutcome& co : report.cells) {
    cell_exec += co.bisect.executions;
    cell_hits += co.bisect.memo_hits;
  }
  std::size_t confirmed = 0;
  for (const blame::BlameCluster& c : report.clusters) {
    confirmed += c.pair.confirmed ? 1 : 0;
  }
  pair_real = (report.executions - report.memo_hits) - (cell_exec - cell_hits);
  r.set("blame.cell_executions", static_cast<double>(cell_exec), "count");
  r.set("blame.pair_executions",
        static_cast<double>(report.executions - cell_exec), "count");
  r.set("blame.pair_real_executions", static_cast<double>(pair_real),
        "count");
  r.set("blame.pair_confirm_ratio",
        report.clusters.empty()
            ? 0.0
            : static_cast<double>(confirmed) /
                  static_cast<double>(report.clusters.size()),
        "ratio");
  std::size_t claims = 0, steals = 0, stolen = 0;
  for (const auto& rank : report.shard_stats.ranks) {
    claims += rank.claims;
    steals += rank.steals;
    stolen += rank.stolen;
  }
  r.set("dist.claims", static_cast<double>(claims), "count");
  r.set("dist.steals", static_cast<double>(steals), "count");
  r.set("dist.stolen_items", static_cast<double>(stolen), "count");
  r.set("trace.overhead_ratio", loop.overhead_ratio(), "ratio");
  replay_cells(report, spans, r);
}

}  // namespace flitbench
