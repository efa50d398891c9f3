#pragma once

// Sharded campaign execution: run N independent items exactly once across
// a simulated rank fleet, reusing the StealQueue claim protocol (and its
// determinism story) for arbitrary per-item work instead of compilation
// cells.  The blame-dedup campaign (src/blame) shards its bisect cells
// through this; anything whose results are index-addressed can.
//
// Each rank has `jobs` lanes, and every lane claims: it pulls a
// grain-sized claim (its rank's own slot first, then trailing-range
// steals from the most-loaded started slot), runs the claim's items
// itself in index order, and claims again.  No lane waits for another
// lane's claim, so the fleet keeps up to shards x jobs items running until
// the queue drains.  Results must be written by global item index; then
// the merged output is independent of which lane ran what, exactly as in
// the sharded explorer.
//
// The pooled driver underneath, run_claims_pooled, is the fleet's one
// pooled claim loop.  The sharded explorer (ShardCoordinator) runs on it
// with one lane per rank, which hands each claim to the rank's explorer:
// an explorer is not reentrant and a rank's checkpoint database takes one
// writer, so that explorer fans the claim out over its own lanes.

#include <cstddef>
#include <functional>
#include <vector>

#include "dist/comm.h"

namespace flit::dist {

struct CampaignShardOptions {
  int shards = 1;         ///< simulated ranks (claim slots)
  unsigned jobs = 1;      ///< lanes per rank, each claiming on its own
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

/// Drives `queue` with `lanes_per_rank` ThreadPool lanes per rank (>= 1,
/// clamped): every lane of rank r claims for r and runs body(r, claim)
/// until StealQueue::done_for(r) -- with stealing off that is as soon as
/// r's own slot is empty; with stealing on a thief that finds only
/// un-started slots yields and retries.  `body` must be safe to call
/// concurrently for distinct ranks and, with more than one lane per rank,
/// for one rank too.
///
/// A lane whose body throws leaves the loop, and the rest of the claim it
/// threw in is not run.  The rest of its rank's slot is still claimed by
/// the rank's other lanes, or by thieves with stealing on; a rank's only
/// lane leaves it unrun too when stealing is off.  Every other lane keeps
/// claiming; once all have returned, the exception of the lowest throwing
/// lane (rank-major) propagates (ThreadPool::parallel_for).
void run_claims_pooled(
    StealQueue& queue, std::size_t ranks, unsigned lanes_per_rank,
    const std::function<void(std::size_t, const StealQueue::Claim&)>& body);

/// Runs `item(i)` exactly once for every i in [0, n) on
/// run_claims_pooled with `opts.jobs` lanes per rank.  `item` must be
/// safe to call concurrently (shards x jobs lanes) and should write its
/// result by index.  A throwing item ends its lane as run_claims_pooled
/// states: the items after it in its claim are not run.
[[nodiscard]] CampaignRunStats run_sharded_campaign(
    std::size_t n, const CampaignShardOptions& opts,
    const std::function<void(std::size_t)>& item);

}  // namespace flit::dist
