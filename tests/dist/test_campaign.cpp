// Unit: the fleet runner.  dist::run_sharded_campaign must run every item
// exactly once at any shards x jobs x steal x grain, including more lanes
// than items; every lane claims on its own, so no lane waits for the
// slowest item of another lane's claim; and a throwing item reaches the
// caller once every lane has returned, leaving unrun only what
// campaign.h says a throwing lane leaves.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/campaign.h"

namespace {

using flit::dist::CampaignRunStats;
using flit::dist::CampaignShardOptions;
using flit::dist::run_sharded_campaign;

CampaignShardOptions fleet(int shards, unsigned jobs, bool steal,
                           std::size_t grain) {
  CampaignShardOptions o;
  o.shards = shards;
  o.jobs = jobs;
  o.steal = steal;
  o.grain = grain;
  return o;
}

TEST(CampaignRunner, RunsEveryItemExactlyOnce) {
  for (const int shards : {1, 2, 3}) {
    for (const unsigned jobs : {1u, 2u, 4u}) {
      for (const bool steal : {false, true}) {
        for (const std::size_t grain : {1u, 4u, 16u}) {
          for (const std::size_t n : {0u, 1u, 7u, 100u}) {
            const std::string where =
                std::to_string(shards) + "x" + std::to_string(jobs) +
                (steal ? " steal" : " no-steal") + " grain " +
                std::to_string(grain) + " n " + std::to_string(n);
            const auto runs = std::make_unique<std::atomic<int>[]>(n);
            const CampaignRunStats stats = run_sharded_campaign(
                n, fleet(shards, jobs, steal, grain),
                [&](std::size_t i) { runs[i].fetch_add(1); });
            EXPECT_EQ(stats.items, n) << where;
            ASSERT_EQ(stats.ranks.size(), static_cast<std::size_t>(shards))
                << where;
            for (std::size_t i = 0; i < n; ++i) {
              EXPECT_EQ(runs[i].load(), 1) << where << " item " << i;
            }
            std::size_t stolen = 0, donated = 0;
            for (const auto& rank : stats.ranks) {
              stolen += rank.stolen;
              donated += rank.donated;
            }
            EXPECT_EQ(stolen, donated) << where;
            if (!steal) {
              EXPECT_EQ(stats.total_steals(), 0u) << where;
            }
          }
        }
      }
    }
  }
}

// One rank, two lanes, grain 2: the claims are [0, 2) and [2, 4).  Item 0
// waits for item 2, which sits in the other claim.  A lane pool that
// finished a whole claim before the rank claimed again would keep item 2
// queued behind item 0 until the wait timed out.
TEST(CampaignRunner, NoLaneWaitsOnAnotherLanesClaim) {
  std::mutex mu;
  std::condition_variable cv;
  bool item2_ran = false;
  bool item0_saw_item2 = false;
  (void)run_sharded_campaign(4, fleet(1, 2, false, 2), [&](std::size_t i) {
    std::unique_lock lock(mu);
    if (i == 0) {
      item0_saw_item2 = cv.wait_for(lock, std::chrono::seconds(5),
                                    [&] { return item2_ran; });
    } else if (i == 2) {
      item2_ran = true;
      cv.notify_all();
    }
  });
  EXPECT_TRUE(item0_saw_item2);
}

// 40 items over 2 ranks at grain 4: every claim is [4k, 4k + 4), from
// the front of a slot or stolen off its tail, so item 5 throws in claim
// [4, 8) and its lane leaves 6 and 7 unrun.  Another lane still claims
// the rest of rank 0's slot, [8, 20) -- a sibling lane or a thief --
// unless rank 0's only lane threw and stealing is off.
TEST(CampaignRunner, AThrowingItemReachesTheCallerAfterEveryLaneReturned) {
  for (const unsigned jobs : {1u, 2u}) {
    for (const bool steal : {false, true}) {
      const bool lone = jobs == 1 && !steal;
      const std::string where =
          std::to_string(jobs) + (steal ? " steal" : " no-steal");
      std::vector<std::atomic<int>> runs(40);
      try {
        (void)run_sharded_campaign(
            40, fleet(2, jobs, steal, 4), [&](std::size_t i) {
              runs[i].fetch_add(1);
              if (i == 5) throw std::runtime_error("item 5");
            });
        ADD_FAILURE() << where << ": no exception";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "item 5") << where;
      }
      for (std::size_t i = 0; i < runs.size(); ++i) {
        const bool unrun = i == 6 || i == 7 || (lone && i >= 8 && i < 20);
        EXPECT_EQ(runs[i].load(), unrun ? 0 : 1) << where << " item " << i;
      }
    }
  }
}

}  // namespace
