#pragma once

// The sharded distributed study engine.
//
// The thread-pooled explorer (src/core/parallel.h) parallelizes one study
// inside a single process; ShardCoordinator is the next scale step: it
// places the compilation space across R simulated ranks and runs every
// rank as an independent worker -- its own SpaceExplorer, its own
// CompilationCache, its own RetryPolicy budget, and (optionally) its own
// ResultsDb checkpoint file.
//
// There is one claim path.  The placement (ShardOptions::placement: the
// contiguous split, a predicted-cost LPT balance, or fingerprint-affine
// grouping from dist/placement.h) becomes a StealQueue of per-rank claim
// slots; ranks pull `steal_grain`-sized claims off the front of their own
// slot and, with ShardOptions::steal, steal trailing sub-ranges from the
// most-loaded slot once their own is empty.  A claim is an index list --
// the global space indices of its positions -- and every claim runs
// through the same body: the rank's explorer runs those indices of the
// whole space, and the body writes each outcome straight to its global
// space index and marks that position done, so no gather step exists and
// the merged study is bitwise-identical to a single-rank run at any policy x
// shards x jobs x steal setting.  An unwritten or twice-written position
// is a protocol bug and throws std::logic_error.
//
// Two drivers pull claims from the queue:
//   * pooled -- run_claims_pooled, the blame campaign's claim loop too,
//     with one claiming lane per rank: each rank's explorer fans its
//     claims out over its own `jobs` lanes, so `--shards R --jobs J` uses
//     up to R*J lanes;
//   * serial -- one thread, the rank with the smallest virtual clock
//     claims next, and each claim advances its rank's clock by the
//     modeled fresh cycles it executed.  The claim schedule is then a pure
//     function of the space and the options.  `serial_shards`, one-shard
//     runs, and every supervised run use it.
//
// Rank supervision.  The explorer contains *item*-level failures (a
// compilation crashes, its outcome slot records the quarantine); a
// supervised run also makes *rank* death and rank stall recoverable
// events.  A run is supervised when the fault injector arms one of its
// two rank-level sites (core/faults.h) or `force_supervised` is set; it
// takes the serial driver, and before each claim executes the
// coordinator rolls the armed sites:
//
//   * `shard` -- the rank's explore lane throws mid-claim and the rank
//     dies.  The claim performed no durable work (death is claim-atomic:
//     no outcome is written, no checkpoint batch was recorded), so the
//     whole range returns to the queue's orphan pool.
//   * `stall` -- the rank hangs on the claim and is detected when its
//     virtual clock passes a modeled-cycle deadline (`stall_deadline`;
//     no wall clock anywhere).  The hung claim is likewise returned
//     unexecuted.
//
// Recovery is a bounded deterministic restart policy: a faulted rank is
// restarted up to `max_restarts` times, each restart charging an
// exponential virtual-clock backoff (backoff_base * 2^(restart-1) modeled
// cycles) before the rank claims again.  A restarted incarnation gets a
// fresh CompilationCache and SpaceExplorer -- its anchor memo and warm
// cache are lost, which is invisible in the results because runs are
// deterministic -- but keeps its shard checkpoint database, which counts
// the checkpoints the kill site reads.  A rank that exhausts the budget is
// marked dead (StealQueue::mark_dead) and its remaining slot joins the
// orphan pool, claimable by every survivor even with stealing disabled:
// taking over for a dead rank is recovery, not load balancing.
//
// Determinism: the serial driver's clock is the summed fresh-executed
// modeled cycles of each rank's claims, so claim schedule, fault
// decisions (hashed per rank incarnation and claim range), restarts,
// backoff, and the degraded set are pure functions of (space, options,
// injector seed): the same faulted run produces byte-identical merged
// study / CSV / converged database every time.  With no rank-level site
// armed (and force_supervised off) nothing is rolled, so unfaulted bytes
// are the unsupervised engine's at any policy x shards x jobs x steal
// setting, with full shard concurrency.
//
// Degraded mode: the per-position done map tells the coordinator which
// cells no claim wrote.  When the whole fleet died with work left, the
// default is to throw FleetAbort.  With `allow_partial`, the
// unrecoverable cells are instead recorded as OutcomeStatus::Degraded --
// in the merged study, the CSV, and the converged ResultsDb -- with full
// accounting in shard_report_text and the dist.supervisor.* metrics.  A
// degraded row is an infrastructure failure, not an item failure: resume
// paths re-run it (core/resultsdb.h), so a later `--resume` converges to
// unfaulted bytes.
//
// Fault injection stays deterministic across shard counts for free: the
// injector's trial scope is keyed by the study item's global identity
// ("test|triple", see core/faults.h), which no partition can change.  The
// checkpoint kill site fires inside whichever shard's database first
// records the armed number of checkpoints -- after that checkpoint is
// durable -- so a killed sharded study resumes from its shard databases
// and converges to the same bytes an uninterrupted run produces.

#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>

#include "core/explorer.h"
#include "core/resultsdb.h"
#include "core/workflow.h"
#include "dist/cost_model.h"
#include "dist/merge.h"
#include "dist/placement.h"

namespace flit::dist {

struct ShardOptions {
  int shards = 1;     ///< simulated ranks (>= 1)
  unsigned jobs = 1;  ///< parallel lanes *per shard*

  /// Drive the ranks serially on the calling thread instead of one
  /// ThreadPool lane per rank: the deterministic schedule.  The rank with
  /// the smallest virtual clock claims next, and a claim advances its
  /// rank's clock by the modeled fresh cycles it executed, so claims and
  /// steals land where an idle worker of a concurrent fleet would take
  /// them -- identically on every run.  Results are identical either way.
  bool serial_shards = false;

  /// Work-stealing shard rebalancing (default on): a rank whose own slot
  /// is exhausted steals a trailing sub-range from the unexplored tail of
  /// the most-loaded rank (ties broken by rank).  Outcomes stay
  /// index-addressed, so the merged study, report CSV and converged
  /// database are bitwise-identical with stealing on or off at any
  /// shards x jobs -- stealing only moves *where* items execute, which
  /// shard databases they checkpoint into, and the fleet's balance.
  /// `false` keeps every rank on its own slot: the static partition.
  bool steal = true;

  /// Claim granularity (items per claim), stealing on or off.  Slices no
  /// larger than the grain are claimed whole; skewed spaces want a grain
  /// well below the per-shard slice so idle ranks find a stealable tail.
  std::size_t steal_grain = 16;

  /// How the space is partitioned across the ranks before anything runs
  /// (see dist/placement.h).  Static is the historical contiguous split;
  /// Cost balances the predicted per-item load LPT-style; Affinity
  /// additionally keeps semantics-fingerprint siblings on one shard so
  /// each fingerprint is compiled once per fleet.  Outcomes stay
  /// index-addressed under every policy, so the merged study, report CSV
  /// and converged database bytes never depend on this choice -- only the
  /// fleet's balance and cache traffic do.  Stealing composes with any
  /// policy and mops up what the prediction got wrong.
  PlacementPolicy placement = PlacementPolicy::Static;

  /// Optional prior-run results database (`--cost-profile`) refining the
  /// cost model's static estimates with measured relative costs.  A
  /// missing or malformed file throws at coordinator construction.
  std::filesystem::path cost_profile;

  /// Optional pre-built profile (e.g. CostProfile::from_study of an
  /// earlier run in the same process).  Ignored when `cost_profile`
  /// names a file.
  CostProfile profile;

  /// Per-item fault-tolerance knobs, applied within every shard (the
  /// retry budget and containment semantics of ExploreOptions).
  core::RetryPolicy retry;
  bool keep_going = true;

  /// Rows per incremental shard checkpoint (the ExploreOptions meaning).
  std::size_t checkpoint_batch = 32;

  /// Directory for per-shard checkpoint databases
  /// (`shard-<rank>-of-<shards>.tsv`); empty disables shard
  /// checkpointing.  Created at coordinator construction, which throws
  /// std::invalid_argument with an actionable message when the directory
  /// cannot be created or is not writable -- never a raw stream error at
  /// the first checkpoint.
  std::filesystem::path shard_db_dir;

  /// With `shard_db_dir`: prefill each shard from its checkpoint database
  /// before dispatch (rows are matched by (test, compilation) key, so
  /// quarantined rows are not re-run).  Resume at the same shard count
  /// that wrote the checkpoints: the databases are named by partition.
  bool resume = false;

  /// Converged study database: when non-null, the merged StudyResult is
  /// recorded into it after the gather, producing a file byte-identical
  /// to a single-process `explore --db` run.  Must outlive run().
  core::ResultsDb* db = nullptr;

  /// Rank supervision (see "Rank supervision" above).  Restarts granted
  /// to each rank before it is declared dead (>= 0; 0 means the first
  /// fault kills the rank for good).
  int max_restarts = 2;

  /// Backoff unit in modeled cycles: restart k of a rank charges its
  /// virtual clock backoff_base * 2^(k-1) cycles before it claims again
  /// (> 0).  Purely a virtual-clock cost -- no wall-clock sleep.
  double backoff_base = 1024.0;

  /// Modeled-cycle deadline at which a stalled claim is detected (the
  /// virtual-clock cost the rank pays before its restart backoff).  0
  /// (the default) charges backoff_base instead, keeping detection
  /// latency on the same scale as recovery.
  double stall_deadline = 0.0;

  /// After the restart budget is exhausted fleet-wide: record the
  /// unrecoverable cells as OutcomeStatus::Degraded and complete the
  /// study (true), or throw FleetAbort (false, the default).
  bool allow_partial = false;

  /// Supervise even with no rank-level fault site armed.  The supervised
  /// driver is serial across claims (determinism over concurrency);
  /// tests use this to prove the supervised schedule's unfaulted bytes
  /// match the unsupervised engine's.
  bool force_supervised = false;
};

/// Thrown when the fleet cannot finish the study: every rank exhausted
/// its restart budget with work remaining and allow_partial is off.
class FleetAbort : public std::runtime_error {
 public:
  explicit FleetAbort(const std::string& what) : std::runtime_error(what) {}
};

class ShardCoordinator {
 public:
  /// `baseline` / `speed_reference` are the anchor compilations of every
  /// shard's explorer (each shard re-runs them; runs are deterministic,
  /// so the redundancy is invisible in the results).  Throws
  /// std::invalid_argument for opts.shards < 1, jobs < 1, a shard_db_dir
  /// that cannot be created or written, max_restarts < 0,
  /// backoff_base <= 0 or stall_deadline < 0.
  ShardCoordinator(const fpsem::CodeModel* model,
                   toolchain::Compilation baseline,
                   toolchain::Compilation speed_reference, ShardOptions opts);

  /// Places `space` across the ranks, runs every claim, and (with
  /// `opts.db`) records the merged study.  An anchor failure in any shard
  /// throws core::StudyAbort, as in the single-process engine.  The run
  /// is supervised when a rank-level fault site is armed or
  /// force_supervised is set; ShardedStudy::supervisor reports which path
  /// ran (enabled) and the full recovery accounting.
  [[nodiscard]] ShardedStudy run(
      const core::TestBase& test,
      std::span<const toolchain::Compilation> space) const;

  /// run() with shard-checkpoint prefill forced on: stitches the
  /// per-shard databases under `shard_db_dir` into the converged study,
  /// byte-identical to an uninterrupted run, quarantined rows included.
  [[nodiscard]] ShardedStudy resume(
      const core::TestBase& test,
      std::span<const toolchain::Compilation> space) const;

  /// Adapter for WorkflowOptions::explore_override: the workflow's Level
  /// 1/2 phase becomes a sharded exploration.  The returned callable
  /// references this coordinator, which must outlive it.
  [[nodiscard]] core::ExploreFn explore_override() const;

  /// The checkpoint file of one rank: `dir/shard-<rank>-of-<shards>.tsv`.
  /// Named by partition so a resume at a different shard count never
  /// reads a foreign slice.
  [[nodiscard]] static std::filesystem::path shard_db_path(
      const std::filesystem::path& dir, int rank, int shards);

  [[nodiscard]] const ShardOptions& options() const { return opts_; }

 private:
  /// The one claim path; `resume_shards` forces checkpoint prefill.
  [[nodiscard]] ShardedStudy run_impl(
      const core::TestBase& test,
      std::span<const toolchain::Compilation> space,
      bool resume_shards) const;

  const fpsem::CodeModel* model_;
  toolchain::Compilation baseline_;
  toolchain::Compilation speed_reference_;
  ShardOptions opts_;
  CostModel cost_model_;
};

}  // namespace flit::dist
