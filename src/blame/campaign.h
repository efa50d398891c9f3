#pragma once

// The blame-dedup bisect campaign: Level 3 at matrix scale.
//
// One BisectDriver::run root-causes one (test, triple) cell; sweeping the
// Table-1 matrix that way re-discovers the same blame site once per -O3
// variant.  The campaign instead
//   1. enumerates every variability-flagged cell of a study (live
//      explore, ResultsDb, or the generated corpus),
//   2. bisects each cell through one shared CompilationCache and one
//      shared ProbeMemo (core/probe_memo.h), so File/Symbol Bisect probes
//      whose winning object sets recur across triples are answered from
//      cache instead of re-run,
//   3. clusters the outcomes into distinct blame *sites* keyed on
//      (blamed files, blamed symbols, mechanism signature vs. the
//      baseline) with deterministic cluster ids, and
//   4. per cluster picks the minimal *adversarial compilation pair* --
//      the closest (baseline, variable) pair still reproducing the site
//      -- and re-verifies it with confirming bisects.
//
// Determinism: cells (step 2) and then clusters (step 4) run on one
// dist::run_sharded_campaign fleet, whose every lane claims and runs its
// own claims, and every outcome lands at its cell or cluster index, so
// which lane runs an item moves no byte: BlameReport::text() is
// bitwise-identical at any shards x jobs x steal x memo setting.  The only
// scheduling-dependent numbers (the memo hit/run split, steal counts) are
// quarantined in stats_text().  See docs/blame-dedup.md.

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "core/hierarchy.h"
#include "core/probe_memo.h"
#include "core/registry.h"
#include "core/resultsdb.h"
#include "dist/campaign.h"
#include "toolchain/compiler.h"

namespace flit::blame {

/// One variability-flagged (test, variable-compilation) study cell.
struct Cell {
  std::string test;
  toolchain::Compilation variable;
  long double variability = 0.0L;  ///< the study/db measurement
};

/// Cell enumeration plus, per test, the bitwise-equal compilations of the
/// same study -- the candidate pool for adversarial pair baselines.
struct CampaignInput {
  std::vector<Cell> cells;  ///< study/space order
  std::map<std::string, std::vector<toolchain::Compilation>> equal_comps;

  /// Database rows skipped because their compilation string is not in
  /// the provided space (input_from_db only).
  std::size_t dropped_rows = 0;

  /// Appends another input (e.g. the next test's study).
  void merge(CampaignInput other);
};

/// Every variable (non-failed, non-equal) outcome becomes a cell; every
/// bitwise-equal outcome joins the test's adversarial baseline pool.
[[nodiscard]] CampaignInput input_from_study(const core::StudyResult& study);

/// Same enumeration from a persisted results database.  Rows are mapped
/// back to Compilation values via their canonical string over `space`;
/// rows naming compilations outside the space are counted in
/// dropped_rows.
[[nodiscard]] CampaignInput input_from_db(
    const core::ResultsDb& db, std::span<const toolchain::Compilation> space);

struct BlameOptions {
  toolchain::Compilation baseline;  ///< trusted comp every bisect uses
  int k = 0;                        ///< BisectBiggest k (0 = BisectAll)
  int digits = 0;                   ///< digit-restricted comparison
  bool memo = true;                 ///< shared probe memo on/off
  std::size_t max_cells = 0;        ///< cap on cells bisected (0 = all)
  std::size_t adversarial_attempts = 4;  ///< candidate pairs tried/cluster
  /// Fleet (shards x jobs x steal) of both phases: cells, then clusters.
  dist::CampaignShardOptions shard;
};

struct CellOutcome {
  Cell cell;
  core::HierarchicalOutcome bisect;
};

/// The minimal adversarial compilation pair confirming one blame site
/// (the closest baseline/variable pair still reproducing it).
struct AdversarialPair {
  toolchain::Compilation baseline;
  toolchain::Compilation variable;
  int distance = 0;        ///< compilation_distance(baseline, variable)
  bool confirmed = false;  ///< the site reproduces under this pair
  bool reverified = false; ///< by a fresh confirming bisect (false: the
                           ///< member cell's own bisect is the evidence)
  int executions = 0;      ///< confirming bisect's logical probes
  int memo_hits = 0;       ///< of which were answered from the memo
};

/// One distinct blame site: a maximal set of cells whose bisects agree on
/// (files, symbols, mechanism).
struct BlameCluster {
  std::string id;  ///< "site-" + 16 hex digits of the identity hash
  std::vector<std::string> files;    ///< sorted blamed files
  std::vector<std::string> symbols;  ///< sorted "file:symbol"
  std::string mechanism;  ///< signature vs. the campaign baseline
  std::vector<std::size_t> members;  ///< cell indices, ascending
  AdversarialPair pair;
};

struct BlameReport {
  std::vector<CellOutcome> cells;      ///< cell (input) order
  std::vector<BlameCluster> clusters;  ///< ordered by first member cell
  std::vector<std::size_t> failed_cells;  ///< crashed/aborted searches
  std::size_t cells_skipped = 0;  ///< cells over --max-cells
  std::size_t unknown_tests = 0;  ///< cells naming unregistered tests
  std::size_t dropped_rows = 0;   ///< from CampaignInput (db mapping)

  /// Logical program executions across every bisect, adversarial
  /// re-verification included.  Identical memo on/off; real executions =
  /// executions - memo_hits.
  long long executions = 0;
  /// Probes answered from the shared memo.  The split between hits and
  /// real runs depends on scheduling under concurrency, so this number
  /// stays out of text().
  long long memo_hits = 0;
  /// The shared memo's tallies after both phases (zeros with the memo
  /// off); stats_text() prints its escaped and scout counts.
  core::ProbeMemo::Stats memo;

  dist::CampaignRunStats shard_stats;  ///< of the cell phase

  /// The deterministic clustered report: bitwise-identical at any
  /// shards x jobs x steal x memo setting.
  [[nodiscard]] std::string text() const;

  /// Scheduling-dependent accounting (memo hit rate, steals) and the
  /// memo's escaped and scout runs -- kept out of text() so the report
  /// bytes never move.
  [[nodiscard]] std::string stats_text() const;
};

/// Mechanism signature of a (baseline, variable) pair: the names of the
/// FpSemantics fields their derived TU semantics disagree on, plus
/// "fast_libm" for a compile-time libm split and "link_fast_libm" for a
/// link-driver libm split (the Intel link-step substitution, which File
/// Bisect cannot attribute to any TU).  Empty differences yield "none".
[[nodiscard]] std::string mechanism_signature(
    const toolchain::Compilation& baseline,
    const toolchain::Compilation& variable);

/// Deterministic closeness of two compilations: 100 per compiler split,
/// 10 per optimization-level step, 1 per differing flag token.
[[nodiscard]] int compilation_distance(const toolchain::Compilation& a,
                                       const toolchain::Compilation& b);

/// Runs the campaign.  `registry` resolves cell test names to instances
/// (unknown names are counted and skipped); `model` is the code model
/// every bisect searches over.
[[nodiscard]] BlameReport run_campaign(const fpsem::CodeModel* model,
                                       const core::TestRegistry& registry,
                                       const CampaignInput& input,
                                       const BlameOptions& opts);

}  // namespace flit::blame
