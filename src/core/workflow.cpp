#include "core/workflow.h"

#include <algorithm>

#include "core/parallel.h"
#include "core/probe_memo.h"
#include "obs/session.h"
#include "toolchain/compile_cache.h"

namespace flit::core {

std::size_t WorkflowReport::failed_bisect_count() const {
  return static_cast<std::size_t>(std::count_if(
      bisects.begin(), bisects.end(),
      [](const VariableCompilationReport& b) { return b.bisect.crashed; }));
}

WorkflowReport run_workflow(const fpsem::CodeModel* model,
                            const TestBase& test,
                            std::span<const toolchain::Compilation> space,
                            const WorkflowOptions& opts) {
  WorkflowReport report;

  // One compilation cache and one execution memo for the whole pipeline:
  // the exploration warms both, and every bisect below compiles through
  // the cache and probes the memo (its content keys never equal the
  // explorer's build keys).  Memo hits skip real runs only; logical
  // executions and the report bytes do not change.
  toolchain::CompilationCache cache;
  ProbeMemo memo;

  // Levels 1 and 2: explore the compilation space.  An override (e.g. the
  // sharded engine in src/dist) replaces this phase wholesale; its
  // contract guarantees the StudyResult is bitwise-identical to the
  // in-process explorer's, so everything downstream is oblivious.
  {
    obs::Span phase(obs::tracer_if_enabled(), "phase.explore", "explore",
                    test.name());
    if (opts.explore_override) {
      report.study = opts.explore_override(test, space);
    } else {
      SpaceExplorer explorer(model, opts.baseline, opts.speed_reference,
                             opts.jobs, &cache, &memo);
      report.study = explorer.explore(test, space, opts.explore);
    }
  }

  report.fastest_reproducible = report.study.fastest_equal();
  report.fastest_any = nullptr;
  for (const CompilationOutcome& o : report.study.outcomes) {
    if (o.failed()) continue;
    if (report.fastest_any == nullptr ||
        o.speedup > report.fastest_any->speedup) {
      report.fastest_any = &o;
    }
  }

  if (!opts.run_bisect) return report;

  // Level 3: root-cause each variability-inducing compilation.  The
  // bisects are independent (the max_bisects cap is applied in study
  // order first), so they fan out across the pool; the merged report is
  // index-ordered and bitwise-identical to a serial run.  Quarantined
  // outcomes never reach this phase: a compilation that failed every
  // attempt has no measurable variability to root-cause.
  std::vector<const CompilationOutcome*> to_bisect;
  report.max_bisects = opts.max_bisects;
  for (const CompilationOutcome& o : report.study.outcomes) {
    if (o.failed() || o.bitwise_equal()) continue;
    if (opts.max_bisects != 0 && to_bisect.size() >= opts.max_bisects) {
      // Keep counting so the report can say how much the cap hid.
      ++report.bisects_skipped;
      continue;
    }
    to_bisect.push_back(&o);
  }

  // Failed-search accounting (counters sum across shards and reruns; the
  // text report's "failed searches" line is derived from the same rows, so
  // the two totals reconcile by construction).
  static obs::Counter& m_bisects = obs::metrics().counter("workflow.bisects");
  static obs::Counter& m_failed_bisects =
      obs::metrics().counter("workflow.failed_bisects");

  obs::Span bisect_phase(obs::tracer_if_enabled(), "phase.bisect", "bisect",
                         test.name());
  report.bisects.resize(to_bisect.size());
  ThreadPool pool(opts.jobs);
  pool.parallel_for(to_bisect.size(), [&](std::size_t i) {
    const CompilationOutcome& o = *to_bisect[i];
    // Stamp the bisect with the outcome's index in the study space so its
    // trace lane matches the explore-phase lane of the same compilation.
    const std::size_t space_index = static_cast<std::size_t>(
        to_bisect[i] - report.study.outcomes.data());
    obs::ScopedItem obs_item(opts.explore.obs_shard, space_index, 0);
    BisectConfig cfg;
    cfg.baseline = opts.baseline;
    cfg.variable = o.comp;
    cfg.k = opts.k;
    cfg.digits = opts.digits;
    cfg.memo = &memo;
    BisectDriver driver(model, &test, cfg, &cache);
    m_bisects.add();
    try {
      report.bisects[i] = VariableCompilationReport{o, driver.run()};
      if (report.bisects[i].bisect.crashed) m_failed_bisects.add();
    } catch (const std::exception& e) {
      // A bisect that dies outside the driver's own crash handling (an
      // injected compile/link fault, an anchor crash inside the search)
      // becomes a recorded failed search, matching how the paper's
      // evaluation reports its failure rates (Table 2).
      if (!opts.explore.keep_going) throw;
      m_failed_bisects.add();
      HierarchicalOutcome failed;
      failed.crashed = true;
      failed.crash_reason = std::string("bisect aborted: ") + e.what();
      report.bisects[i] = VariableCompilationReport{o, std::move(failed)};
    }
  });
  return report;
}

}  // namespace flit::core
