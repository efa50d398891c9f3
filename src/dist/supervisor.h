#pragma once

// Fleet supervisor: rank-level fault containment over the sharded engine.
//
// ShardCoordinator contains *item*-level failures (a compilation crashes,
// its outcome slot records the quarantine); FleetSupervisor makes *rank*
// death and rank stall first-class recoverable events.  It is a hook on
// the coordinator's one claim path (ClaimHook): a supervised run takes
// the serial virtual-clock driver, and before each claim executes the
// hook consults the fault injector's two rank-level sites
// (core/faults.h):
//
//   * `shard` -- the rank's explore lane throws mid-claim and the rank
//     dies.  The claim performed no durable work (death is claim-atomic:
//     no outcome is written, no checkpoint batch was recorded), so the
//     whole range returns to the queue's orphan pool.
//   * `stall` -- the rank hangs on the claim and is detected when its
//     virtual clock passes a modeled-cycle deadline
//     (SupervisorOptions::stall_deadline; no wall clock anywhere).  The
//     hung claim is likewise returned unexecuted.
//
// Recovery is a bounded deterministic restart policy: a faulted rank is
// restarted up to `max_restarts` times, each restart charging an
// exponential virtual-clock backoff (backoff_base * 2^(restart-1) modeled
// cycles) before the rank claims again.  A restarted incarnation gets a
// fresh CompilationCache and SpaceExplorer -- its anchor memo and warm
// cache are lost, which is invisible in the results because runs are
// deterministic -- but keeps its shard checkpoint database and its
// running checkpoint-ordinal base.  A rank that exhausts the budget is
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
// armed (and force_supervised off) run() takes the coordinator's path
// with no hook, so unfaulted bytes are the unsupervised engine's at any
// policy x shards x jobs x steal setting, with full shard concurrency.
//
// Degraded mode: the coordinator's per-position done map tells the hook
// which cells no claim wrote.  When the whole fleet died with work left,
// the default is to throw FleetAbort.  With `allow_partial`, the
// unrecoverable cells are instead recorded as OutcomeStatus::Degraded --
// in the merged study, the CSV, and the converged ResultsDb -- with full
// accounting in shard_report_text and the dist.supervisor.* metrics.  A
// degraded row is an infrastructure failure, not an item failure: resume
// paths re-run it (core/resultsdb.h), so a later `--resume` converges to
// unfaulted bytes.

#include <span>
#include <stdexcept>

#include "dist/coordinator.h"

namespace flit::dist {

struct SupervisorOptions {
  ShardOptions shard;

  /// Restarts granted to each rank before it is declared dead (>= 0; 0
  /// means the first fault kills the rank for good).
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

  /// Run the supervised serial driver even with no rank-level fault site
  /// armed.  The driver is serial across claims (determinism over
  /// concurrency); tests use this to prove the supervised schedule's
  /// unfaulted bytes match the unsupervised engine's.
  bool force_supervised = false;
};

/// Thrown when the fleet cannot finish the study: every rank exhausted
/// its restart budget with work remaining and allow_partial is off.
class FleetAbort : public std::runtime_error {
 public:
  explicit FleetAbort(const std::string& what) : std::runtime_error(what) {}
};

class FleetSupervisor {
 public:
  /// Arguments as ShardCoordinator, plus the supervision policy.  Throws
  /// std::invalid_argument for max_restarts < 0, backoff_base <= 0,
  /// stall_deadline < 0, or anything the coordinator itself rejects
  /// (including a shard_db_dir that cannot be created or written).
  FleetSupervisor(const fpsem::CodeModel* model,
                  toolchain::Compilation baseline,
                  toolchain::Compilation speed_reference,
                  SupervisorOptions opts);

  /// ShardCoordinator::run under supervision.  Runs the coordinator
  /// unhooked when no rank-level fault site is armed and force_supervised
  /// is off; otherwise hooks the supervisor into its serial driver.
  /// ShardedStudy::supervisor reports which path ran (enabled) and the
  /// full recovery accounting.
  [[nodiscard]] ShardedStudy run(
      const core::TestBase& test,
      std::span<const toolchain::Compilation> space) const;

  /// run() with shard-checkpoint prefill forced on (the coordinator's
  /// resume contract, supervised).
  [[nodiscard]] ShardedStudy resume(
      const core::TestBase& test,
      std::span<const toolchain::Compilation> space) const;

  /// Adapter for WorkflowOptions::explore_override, as the coordinator's.
  [[nodiscard]] core::ExploreFn explore_override() const;

  /// True when the global fault injector has a rank-level site (shard or
  /// stall) armed -- the condition under which run() supervises.
  [[nodiscard]] static bool rank_faults_armed();

  [[nodiscard]] const SupervisorOptions& options() const { return opts_; }
  [[nodiscard]] const ShardCoordinator& coordinator() const { return coord_; }

 private:
  [[nodiscard]] ShardedStudy supervise(
      const core::TestBase& test,
      std::span<const toolchain::Compilation> space, bool resume_shards)
      const;

  SupervisorOptions opts_;
  ShardCoordinator coord_;
};

}  // namespace flit::dist
