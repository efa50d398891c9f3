// Unit: the claim protocol.  ShardComm inherits the DeterministicComm
// partition contract verbatim: contiguous ranges that cover the space at
// any rank/item-count combination, including empty ranges.  StealQueue
// must grant disjoint contiguous claims that jointly cover the space
// exactly once, prefer own work, steal from the most-loaded started slot,
// and keep exact stolen/donated accounting.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dist/comm.h"

namespace {

using flit::dist::ShardComm;
using flit::dist::ShardRange;
using flit::dist::StealQueue;

TEST(ShardComm, RejectsNonPositiveRankCounts) {
  EXPECT_THROW(ShardComm(0), std::invalid_argument);
  EXPECT_THROW(ShardComm(-3), std::invalid_argument);
}

TEST(ShardComm, ScatterRangesPartitionTheIndexSpace) {
  const ShardComm comm(5);
  const auto ranges = comm.scatter_ranges(23);
  ASSERT_EQ(ranges.size(), 5u);
  std::size_t prev_end = 0, covered = 0;
  for (const ShardRange& rg : ranges) {
    EXPECT_EQ(rg.begin, prev_end);
    prev_end = rg.end;
    covered += rg.size();
  }
  EXPECT_EQ(covered, 23u);
  EXPECT_EQ(prev_end, 23u);
  // 23 = 5*4 + 3: the remainder goes to the first three ranks.
  EXPECT_EQ(ranges[0].size(), 5u);
  EXPECT_EQ(ranges[1].size(), 5u);
  EXPECT_EQ(ranges[2].size(), 5u);
  EXPECT_EQ(ranges[3].size(), 4u);
  EXPECT_EQ(ranges[4].size(), 4u);
}

TEST(ShardComm, MoreRanksThanItemsYieldsEmptyTrailingRanges) {
  const ShardComm comm(8);
  const auto ranges = comm.scatter_ranges(3);
  ASSERT_EQ(ranges.size(), 8u);
  for (int r = 0; r < 3; ++r) EXPECT_EQ(ranges[r].size(), 1u) << r;
  for (int r = 3; r < 8; ++r) EXPECT_EQ(ranges[r].size(), 0u) << r;
}

TEST(ShardComm, ZeroItemsYieldsAllEmptyRanges) {
  const ShardComm comm(4);
  for (const ShardRange& rg : comm.scatter_ranges(0)) {
    EXPECT_EQ(rg.size(), 0u);
    EXPECT_EQ(rg.begin, 0u);
  }
}

// ---- StealQueue -----------------------------------------------------------

TEST(StealQueue, OwnersClaimGrainChunksFromTheFrontInOrder) {
  const ShardComm comm(2);
  StealQueue q(comm.scatter_ranges(10), 2);  // rank 0: [0,5), rank 1: [5,10)
  const auto c1 = q.claim(0);
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(c1->range.begin, 0u);
  EXPECT_EQ(c1->range.end, 2u);
  EXPECT_FALSE(c1->stolen);
  EXPECT_EQ(c1->victim, 0);
  const auto c2 = q.claim(0);
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->range.begin, 2u);
  EXPECT_EQ(c2->range.end, 4u);
  const auto c3 = q.claim(0);  // remainder smaller than the grain
  ASSERT_TRUE(c3.has_value());
  EXPECT_EQ(c3->range.begin, 4u);
  EXPECT_EQ(c3->range.end, 5u);
}

TEST(StealQueue, ClaimsCoverTheSpaceExactlyOnceUnderStealing) {
  for (std::size_t grain : {1u, 2u, 3u, 16u}) {
    const ShardComm comm(4);
    const std::size_t n = 23;
    StealQueue q(comm.scatter_ranges(n), grain);
    std::vector<int> hits(n, 0);
    // Round-robin claimants: every rank exhausts its own slot and then
    // steals, so the full space must be covered without overlap.
    bool any = true;
    while (any) {
      any = false;
      for (int r = 0; r < 4; ++r) {
        const auto c = q.claim(r);
        if (!c.has_value()) continue;
        any = true;
        for (std::size_t i = c->range.begin; i < c->range.end; ++i) {
          ++hits[i];
        }
      }
    }
    EXPECT_TRUE(q.drained());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i], 1) << "grain " << grain << ", index " << i;
    }
  }
}

TEST(StealQueue, ExhaustedRankStealsTrailingChunkFromMostLoadedStartedSlot) {
  const ShardComm comm(3);
  StealQueue q(comm.scatter_ranges(12), 2);  // slots [0,4) [4,8) [8,12)
  // Start every slot (one own claim each), then drain rank 0.
  (void)q.claim(0);  // [0,2)
  (void)q.claim(1);  // [4,6)
  (void)q.claim(2);  // [8,10)
  (void)q.claim(0);  // [2,4) -- rank 0's slot is now empty
  // Ranks 1 and 2 both have 2 unclaimed items; the tie breaks to rank 1,
  // and the steal takes the *tail* of its slot.
  const auto s = q.claim(0);
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->stolen);
  EXPECT_EQ(s->victim, 1);
  EXPECT_EQ(s->range.begin, 6u);
  EXPECT_EQ(s->range.end, 8u);

  const auto stats0 = q.stats(0);
  EXPECT_EQ(stats0.claims, 3u);
  EXPECT_EQ(stats0.steals, 1u);
  EXPECT_EQ(stats0.stolen, 2u);
  EXPECT_EQ(stats0.donated, 0u);
  const auto stats1 = q.stats(1);
  EXPECT_EQ(stats1.donated, 2u);
  EXPECT_EQ(stats1.stolen, 0u);
}

TEST(StealQueue, UnstartedSlotsAreNotStealable) {
  const ShardComm comm(4);
  // 2 items over 4 ranks: ranks 2 and 3 own empty slots.
  StealQueue q(comm.scatter_ranges(2), 16);
  // Before any owner starts, a thief finds nothing claimable...
  EXPECT_FALSE(q.claim(3).has_value());
  EXPECT_FALSE(q.drained());  // ...but the queue is not drained.
  // Owners claim their whole slots (item count <= grain), leaving no
  // stealable tail; idle ranks never execute anything.
  EXPECT_TRUE(q.claim(0).has_value());
  EXPECT_TRUE(q.claim(1).has_value());
  EXPECT_FALSE(q.claim(2).has_value());
  EXPECT_TRUE(q.drained());
  EXPECT_EQ(q.stats(2).claims, 0u);
  EXPECT_EQ(q.stats(3).claims, 0u);
}

TEST(StealQueue, DoneForIsWhenNothingCanBecomeClaimableForTheRank) {
  const ShardComm comm(2);
  // Stealing off: a rank is done as soon as its own slot is empty, even
  // while the other slot still holds work it may never take.
  StealQueue fixed(comm.scatter_ranges(4), 2, /*steal_enabled=*/false);
  EXPECT_FALSE(fixed.done_for(0));
  ASSERT_TRUE(fixed.claim(0).has_value());
  EXPECT_TRUE(fixed.done_for(0));
  EXPECT_FALSE(fixed.done_for(1));
  // ...unless a failed rank's work is orphaned, which anyone may take.
  fixed.release({0, 2}, 0);
  EXPECT_FALSE(fixed.done_for(0));

  // Stealing on: an idle thief is not done while any slot holds work,
  // started or not -- an un-started slot becomes stealable once its
  // owner claims.
  StealQueue stealing(comm.scatter_ranges(4), 2);
  ASSERT_TRUE(stealing.claim(0).has_value());
  EXPECT_FALSE(stealing.claim(0).has_value());  // slot 1 not started yet
  EXPECT_FALSE(stealing.done_for(0));
  ASSERT_TRUE(stealing.claim(1).has_value());
  EXPECT_TRUE(stealing.done_for(0));
  EXPECT_TRUE(stealing.done_for(1));
}

TEST(StealQueue, GrainIsClampedToAtLeastOne) {
  const ShardComm comm(1);
  StealQueue q(comm.scatter_ranges(3), 0);
  const auto c = q.claim(0);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->range.size(), 1u);
}

TEST(StealQueue, RejectsOutOfRangeRanks) {
  const ShardComm comm(2);
  StealQueue q(comm.scatter_ranges(4), 1);
  EXPECT_THROW((void)q.claim(2), std::invalid_argument);
}

}  // namespace
