#pragma once

// Sharded campaign execution: run N independent items exactly once across
// a simulated rank fleet, reusing the StealQueue claim protocol (and its
// determinism story) for arbitrary per-item work instead of compilation
// cells.  The blame-dedup campaign (src/blame) shards its bisect cells
// through this; anything whose results are index-addressed can.
//
// Each rank pulls grain-sized claims (own slot first, then trailing-range
// steals from the most-loaded started slot) and executes the claim's
// items on its own inner lane pool, so the fleet runs shards x jobs
// concurrent items at peak.  Results must be written by global item
// index; then the merged output is independent of which rank ran what,
// exactly as in the sharded explorer.
//
// The pooled driver underneath, run_claims_pooled, is the one the
// sharded explorer (ShardCoordinator) runs on as well: one ThreadPool
// lane per rank, each claiming until nothing can become claimable for it.

#include <cstddef>
#include <functional>
#include <vector>

#include "dist/comm.h"

namespace flit::dist {

struct CampaignShardOptions {
  int shards = 1;         ///< simulated ranks (claim slots)
  unsigned jobs = 1;      ///< execution lanes per rank within one claim
  bool steal = true;      ///< trailing-range steals from loaded ranks
  std::size_t grain = 4;  ///< items per claim (>= 1, clamped)
};

/// Post-run accounting.  The per-rank claim/steal splits depend on
/// scheduling under pooled ranks; item coverage does not.
struct CampaignRunStats {
  std::size_t items = 0;
  std::vector<StealQueue::RankStats> ranks;

  [[nodiscard]] std::size_t total_steals() const;
};

/// Drives `queue` with one ThreadPool lane per rank: lane r claims and
/// runs body(r, claim) until StealQueue::done_for(r) -- with stealing off
/// that is as soon as its own slot is empty; with stealing on a thief
/// that finds only un-started slots yields and retries.  `body` must be
/// safe to call concurrently for distinct ranks.  A throwing rank leaves
/// its lane; the exception of the lowest throwing rank propagates once
/// every lane is done (ThreadPool::parallel_for).
void run_claims_pooled(
    StealQueue& queue, std::size_t ranks,
    const std::function<void(std::size_t, const StealQueue::Claim&)>& body);

/// Runs `item(i)` exactly once for every i in [0, n).  `item` must be
/// safe to call concurrently (shards x jobs lanes) and should write its
/// result by index.  Exceptions propagate: the lowest-index throwing item
/// of a claim wins, mirroring ThreadPool::parallel_for.
[[nodiscard]] CampaignRunStats run_sharded_campaign(
    std::size_t n, const CampaignShardOptions& opts,
    const std::function<void(std::size_t)>& item);

}  // namespace flit::dist
