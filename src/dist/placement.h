#pragma once

// Placement pass of the distributed engine: which rank owns which study
// items, decided before anything runs.
//
// The static partition (ShardComm::scatter_ranges) splits the space by
// *index count*, which balances nothing when cost is skewed and scatters
// semantics-fingerprint siblings across shards, so every shard's private
// CompilationCache re-misses objects a sibling already built.  The
// placement policies here replace the contiguous split:
//
//  * Static   -- the historical contiguous partition, verbatim.
//  * Cost     -- LPT (longest-processing-time) over per-item predicted
//                cost: items are placed one by one, heaviest first, each
//                onto the currently lightest rank.
//  * Affinity -- LPT over *fingerprint groups*: items sharing a
//                CompilationCache semantics group are placed as one unit,
//                so each fingerprint is compiled at most once per fleet
//                instead of once per shard, and the groups are
//                cost-balanced with the same LPT rule.  A group whose
//                predicted cost exceeds the ideal per-shard share (total
//                cost / shards) is split into cost-capped sub-units so a
//                single heavy fingerprint cannot pin the critical path
//                to one rank; only such oversized groups ever span
//                shards.
//
// Every policy is a pure function of (space, shards, model): items are
// processed in a deterministic order (predicted cost descending, lowest
// index first) and ties between ranks break to the lowest rank, so the
// same inputs always produce the same placement.  Outcomes stay
// index-addressed regardless -- a placement moves *where* an item
// executes, never where its result lands -- which is what keeps the
// merged study bitwise-identical across policies.

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dist/cost_model.h"
#include "toolchain/compiler.h"

namespace flit::dist {

enum class PlacementPolicy {
  Static,    ///< contiguous index split (the historical partition)
  Cost,      ///< LPT over per-item predicted cost
  Affinity,  ///< LPT over fingerprint groups (cache-affine)
};

[[nodiscard]] const char* to_string(PlacementPolicy p);
/// Inverse of to_string ("static" / "cost" / "affinity"); nullopt for
/// unrecognized names.
[[nodiscard]] std::optional<PlacementPolicy> placement_policy_from(
    const std::string& name);

/// One placement of a compilation space across ranks.
struct Placement {
  PlacementPolicy policy = PlacementPolicy::Static;

  /// Global space indices owned by each rank, ascending within a rank.
  /// The sets are disjoint and cover [0, space_size) exactly.
  std::vector<std::vector<std::size_t>> rank_indices;

  /// Sum of predicted item costs per rank (the LPT bin loads).
  std::vector<double> predicted;

  /// Distinct semantics-fingerprint groups resident on each rank.
  std::vector<std::size_t> rank_groups;

  /// Distinct semantics-fingerprint groups in the whole space.
  std::size_t total_groups = 0;

  /// Excess group residencies of this placement: the sum over ranks of
  /// distinct resident groups, minus total_groups.  Every excess residency
  /// is a fingerprint some shard re-compiles even though a sibling shard
  /// also builds it; Affinity drives this to zero except for groups too
  /// costly for any single shard, which it splits across the minimum
  /// number of ranks.
  std::size_t duplicated_groups = 0;

  /// The same excess-residency count for the contiguous static split of
  /// this space -- the baseline the report's "redundant compiles avoided"
  /// line compares against.
  std::size_t static_duplicated_groups = 0;

  /// True when rank_indices are exactly the contiguous ShardComm ranges.
  bool contiguous = false;

  /// True when the cost model carried a loaded profile.
  bool profiled = false;

  [[nodiscard]] std::size_t shards() const { return rank_indices.size(); }

  /// Fingerprint re-compilations this placement avoids relative to the
  /// static split (zero when it introduces more than it removes).
  [[nodiscard]] std::size_t avoided_group_compiles() const {
    return static_duplicated_groups > duplicated_groups
               ? static_duplicated_groups - duplicated_groups
               : 0;
  }
};

/// Computes the placement of `space` across `shards` ranks under `policy`,
/// with per-item costs from `model`.  Throws std::invalid_argument for
/// shards < 1.
[[nodiscard]] Placement place_space(
    std::span<const toolchain::Compilation> space, int shards,
    PlacementPolicy policy, const CostModel& model);

}  // namespace flit::dist
