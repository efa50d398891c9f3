#include "dist/campaign.h"

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
    StealQueue& queue, std::size_t ranks, unsigned lanes_per_rank,
    const std::function<void(std::size_t, const StealQueue::Claim&)>& body) {
  const std::size_t per_rank = lanes_per_rank < 1 ? 1 : lanes_per_rank;
  const std::size_t lanes = ranks * per_rank;
  core::ThreadPool pool(static_cast<unsigned>(lanes));
  pool.parallel_for(lanes, [&](std::size_t lane) {
    const std::size_t r = lane / per_rank;
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
  StealQueue queue(ShardComm(shards).scatter_ranges(n), opts.grain,
                   opts.steal);
  run_claims_pooled(queue, static_cast<std::size_t>(shards), opts.jobs,
                    [&](std::size_t, const StealQueue::Claim& claim) {
                      for (std::size_t i = claim.range.begin;
                           i < claim.range.end; ++i) {
                        item(i);
                      }
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
