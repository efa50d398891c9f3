#pragma once

// The multi-level workflow of Figure 1, as a single driver:
//   Level 1 -- run the test under every compilation of the space and
//              determine which induce variability,
//   Level 2 -- chart reproducibility vs. performance and recommend the
//              fastest acceptable compilation,
//   Level 3 -- for variable compilations (when the fastest reproducible
//              one is not sufficient, or for root-causing), run the
//              hierarchical Bisect down to files and functions.
//
// Fault isolation mirrors the paper's evaluation: quarantined space
// entries (crashed / failed to build on every attempt) are excluded from
// the bisect phase, and a bisect that itself dies is recorded as a
// Table-2-style failed search instead of aborting the remaining bisects.

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/explorer.h"
#include "core/hierarchy.h"

namespace flit::core {

/// A drop-in replacement for the workflow's Level 1/2 exploration.  Must
/// honor the SpaceExplorer::explore contract: outcomes in space order,
/// bitwise-identical to a serial single-process run (the sharded engine in
/// src/dist provides one via ShardCoordinator::explore_override).
using ExploreFn = std::function<StudyResult(
    const TestBase&, std::span<const toolchain::Compilation>)>;

struct WorkflowOptions {
  toolchain::Compilation baseline;         ///< trusted compilation
  toolchain::Compilation speed_reference;  ///< speedups relative to this

  /// Bisect every variability-inducing compilation (Level 3).  Set to
  /// false to stop after the reproducibility/performance analysis.
  bool run_bisect = true;

  /// Cap on the number of variable compilations to bisect (0 = all).
  std::size_t max_bisects = 0;

  int k = 0;       ///< BisectBiggest k (0 = BisectAll)
  int digits = 0;  ///< digit-restricted comparison (0 = full precision)

  /// Parallel execution lanes for the space exploration and for the
  /// per-variable-compilation bisects (1 = serial).  Any value produces a
  /// report bitwise-identical to the serial one.
  unsigned jobs = 1;

  /// Fault-tolerance knobs for the exploration phase (retry budget,
  /// keep-going containment, checkpoint database, resume).  The
  /// keep_going flag also governs the bisect phase: when false, a
  /// throwing bisect aborts the workflow (legacy behavior).
  ExploreOptions explore;

  /// When set, replaces the Level 1/2 exploration entirely (jobs and the
  /// `explore` knobs above are then the override's responsibility).  The
  /// bisect phase is unchanged: it consumes the returned StudyResult and
  /// compiles through its own cache and execution memo.
  ExploreFn explore_override;
};

struct VariableCompilationReport {
  CompilationOutcome outcome;
  HierarchicalOutcome bisect;
};

struct WorkflowReport {
  StudyResult study;

  /// Fastest compilation that is bitwise-equal to the baseline (null if
  /// none exists).  Points into study.outcomes.
  const CompilationOutcome* fastest_reproducible = nullptr;
  /// Fastest compilation overall, reproducible or not.
  const CompilationOutcome* fastest_any = nullptr;

  std::vector<VariableCompilationReport> bisects;

  /// Variable compilations Level 3 did not bisect because the
  /// max_bisects cap cut the selection short (0 when every variable
  /// compilation was bisected -- including when the cap is disabled).
  std::size_t bisects_skipped = 0;
  /// The cap that produced bisects_skipped (opts.max_bisects).
  std::size_t max_bisects = 0;

  /// Bisects that ended as failed searches (crashed or aborted).
  [[nodiscard]] std::size_t failed_bisect_count() const;
};

/// Runs the Figure 1 workflow for one test over one compilation space.
[[nodiscard]] WorkflowReport run_workflow(
    const fpsem::CodeModel* model, const TestBase& test,
    std::span<const toolchain::Compilation> space,
    const WorkflowOptions& opts);

}  // namespace flit::core
