#pragma once

// The merged result of a sharded study and its per-shard accounting.
//
// ShardCoordinator writes every claim's outcomes straight to their
// global space indices, so the merged StudyResult needs no gather step:
// it is bitwise-identical to a single-rank run by construction.  What
// each rank did -- executed vs. checkpoint-prefilled items, failures and
// retries, compilation-cache statistics, stolen/donated work, modeled-
// cycle skew and, in a supervised run, its recovery -- is summed here
// into per-shard reports, a supervisor summary, and the human-readable
// merge report, next to the placement the run used.

#include <cstddef>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "dist/comm.h"
#include "dist/placement.h"
#include "obs/metrics.h"
#include "toolchain/compile_cache.h"

namespace flit::dist {

/// One shard's execution summary (the merge report's per-shard line).
struct ShardReport {
  int rank = 0;
  ShardRange range{};         ///< global index envelope the shard owned:
                              ///< the exact slice under contiguous
                              ///< placement, [min, max+1) of the owned set
                              ///< under a permuted one (the placement's
                              ///< rank_indices are authoritative)
  std::size_t prefilled = 0;  ///< rows restored from the shard checkpoint
  std::size_t failed = 0;     ///< quarantined outcomes in the slice
  std::size_t retried = 0;    ///< outcomes recovered by retry
  toolchain::CacheStats cache{};

  /// Work-stealing rebalance accounting: items this shard pulled from
  /// other shards' unexplored tails, items other shards pulled from this
  /// one's, and how many steal claims it made.  All zero with stealing
  /// off (or when the static partition happened to be balanced).
  std::size_t stolen = 0;
  std::size_t donated = 0;
  std::size_t steals = 0;

  /// Items this shard actually dispatched to its explorer: owned plus
  /// stolen, minus donated and checkpoint-prefilled rows.
  std::size_t executed_items = 0;

  /// Fleet-supervisor recovery accounting (all zero outside a supervised
  /// run): injected rank deaths and stall detections this rank suffered,
  /// restarts the supervisor granted it, items it claimed from the orphan
  /// pool (other ranks' returned work), virtual-clock cycles it sat in
  /// restart backoff, and whether it ended the run permanently dead
  /// (restart budget exhausted).
  std::size_t rank_faults = 0;
  std::size_t rank_stalls = 0;
  std::size_t restarts = 0;
  std::size_t reassigned = 0;
  double backoff_cycles = 0.0;
  bool dead = false;

  /// Modeled-cycle distribution of the shard's *executed* ok outcomes
  /// (resumed rows carry no cycle measurement and are excluded).  All
  /// shards share cycle_buckets() bounds, so the per-shard histograms
  /// merge; min/~median/max per shard is the skew measurement the
  /// work-stealing protocol rebalances against.
  obs::HistogramData cycles{obs::cycle_buckets()};

  /// Like `cycles`, restricted to *fresh* work: anchor-equal items are
  /// excluded, because the explorer answers them from the memoized anchor
  /// run at near-zero wall cost while still recording full cycle counts.
  /// The fixed-point sum of this histogram is the shard's modeled
  /// wall-clock -- the balance axis the cost model predicts -- where the
  /// unrestricted `cycles` histogram would charge a slab of baseline
  /// copies as if each were re-executed.
  obs::HistogramData fresh_cycles{obs::cycle_buckets()};

  [[nodiscard]] std::size_t executed() const { return executed_items; }

  /// The shard's modeled wall-clock: summed fresh-executed cycles.
  [[nodiscard]] double fresh_cycle_sum() const {
    return obs::from_fixed(fresh_cycles.sum);
  }
};

/// Fleet-supervisor summary of a supervised run (dist/coordinator.h).
/// `enabled` false (the default) means the run was not supervised and
/// shard_report_text stays byte-identical to the historical format.
struct SupervisorSummary {
  bool enabled = false;
  int restart_budget = 0;       ///< restarts granted per rank
  bool allow_partial = false;   ///< degraded cells instead of an abort
  std::size_t rank_faults = 0;  ///< injected shard-site rank deaths
  std::size_t stalls = 0;       ///< stall detections (deadline exceeded)
  std::size_t restarts = 0;     ///< restarts consumed fleet-wide
  std::size_t reassigned_claims = 0;  ///< orphaned claims re-granted
  std::size_t reassigned_items = 0;   ///< items inside those claims
  std::size_t degraded_cells = 0;     ///< cells no live rank could run
  std::size_t dead_ranks = 0;         ///< ranks that exhausted the budget
  double backoff_cycles = 0.0;  ///< total virtual-clock backoff served
  double fleet_cycles = 0.0;    ///< max rank virtual clock (modeled
                                ///< cycles incl. backoff and stall
                                ///< deadlines): the fleet wall under
                                ///< faults, comparable across runs
};

/// A merged distributed study: the index-ordered StudyResult plus the
/// per-shard accounting it was assembled from.
struct ShardedStudy {
  core::StudyResult study;
  std::vector<ShardReport> shards;
  Placement placement;  ///< the placement the run used
  SupervisorSummary supervisor;

  /// Sum of the per-shard cache statistics (CacheStats::operator+=) --
  /// the *fleet* hit rate the affinity placer optimizes.
  [[nodiscard]] toolchain::CacheStats aggregate_cache() const;

  /// Sum of the per-shard cycle histograms (HistogramData::operator+=).
  [[nodiscard]] obs::HistogramData aggregate_cycles() const;

  /// The slowest shard by modeled wall-clock (summed fresh-executed
  /// cycles): the fleet's critical path in model units, comparable across
  /// runs where real seconds are not.
  [[nodiscard]] double max_shard_fresh_cycles() const;
};

/// Human-readable merge report: one line per shard (owned range or item
/// count, executed vs. prefilled counts, failures, retries, cache hit
/// rate, cycle skew), a placement line (policy, fingerprint groups,
/// redundant compiles avoided vs. the static split), and an aggregate
/// line with the summed failure accounting and the *fleet* cache hit
/// rate.  A supervised run (supervisor.enabled) appends per-shard
/// recovery detail and a supervisor line; unsupervised runs are
/// byte-identical to the historical format.
[[nodiscard]] std::string shard_report_text(const ShardedStudy& s);

}  // namespace flit::dist
