#include "dist/campaign.h"

#include <deque>
#include <optional>
#include <thread>

#include "core/parallel.h"

namespace flit::dist {

std::size_t CampaignRunStats::total_steals() const {
  std::size_t total = 0;
  for (const StealQueue::RankStats& r : ranks) total += r.steals;
  return total;
}

void run_claims_pooled(
    StealQueue& queue, std::size_t ranks,
    const std::function<void(std::size_t, const StealQueue::Claim&)>& body) {
  core::ThreadPool pool(static_cast<unsigned>(ranks));
  pool.parallel_for(ranks, [&](std::size_t r) {
    const int rank = static_cast<int>(r);
    while (true) {
      const std::optional<StealQueue::Claim> claim = queue.claim(rank);
      if (claim.has_value()) {
        body(r, *claim);
      } else if (queue.done_for(rank)) {
        return;
      } else {
        // Un-started slots are not stealable yet; their owners are live
        // pool lanes (task count == lane count), so the wait is bounded.
        std::this_thread::yield();
      }
    }
  });
}

CampaignRunStats run_sharded_campaign(
    std::size_t n, const CampaignShardOptions& opts,
    const std::function<void(std::size_t)>& item) {
  const int shards = opts.shards < 1 ? 1 : opts.shards;
  const unsigned jobs = opts.jobs < 1 ? 1 : opts.jobs;

  ShardComm comm(shards);
  StealQueue queue(comm.scatter_ranges(n), opts.grain, opts.steal);

  // One lane pool per rank, reused across its claims (sequential
  // parallel_for calls on one pool are fine; reentrancy is not, which is
  // why the lanes are distinct from the rank pool).
  std::deque<core::ThreadPool> lanes;
  for (int r = 0; r < shards; ++r) lanes.emplace_back(jobs);
  run_claims_pooled(queue, static_cast<std::size_t>(shards),
                    [&](std::size_t r, const StealQueue::Claim& claim) {
                      const ShardRange rg = claim.range;
                      lanes[r].parallel_for(rg.size(), [&](std::size_t k) {
                        item(rg.begin + k);
                      });
                    });

  CampaignRunStats stats;
  stats.items = n;
  stats.ranks.reserve(static_cast<std::size_t>(shards));
  for (int rank = 0; rank < shards; ++rank) {
    stats.ranks.push_back(queue.stats(rank));
  }
  return stats;
}

}  // namespace flit::dist
