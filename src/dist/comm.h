#pragma once

// The claim protocol of the sharded distributed study engine.
//
// src/par's DeterministicComm gives the repo a deterministic rank
// partition (`range`) and fixed-order double reductions; ShardComm
// inherits that partition verbatim -- contiguous ranges, remainder spread
// over the first `n % nranks` ranks, empty ranges when there are more
// ranks than items -- so anything proven about `DeterministicComm::range`
// (tests/par/test_par.cpp) holds for the static placement too.
//
// The partition seeds a StealQueue of per-rank claim slots, every claim
// is a contiguous sub-range of positions, and whoever executes a claim
// writes each outcome straight to its global space index.  The queue's claims jointly cover the space
// exactly once, which is what makes the merged result bitwise-identical
// to a single-rank run at any shard count, steal setting or schedule.
//
// Everything here is simulated in-process (the same stance as par/comm.h):
// ranks execute on the caller's thread pool or on one thread under a
// virtual clock (dist/vclock.h), never as racing messages.

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "par/comm.h"

namespace flit::dist {

/// Contiguous [begin, end) slice of the global index space owned by one
/// rank (the par::DeterministicComm partition type).
using ShardRange = par::DeterministicComm::Range;

class ShardComm {
 public:
  /// A communicator of `nranks` simulated ranks; throws
  /// std::invalid_argument for nranks < 1 (the DeterministicComm
  /// contract).
  explicit ShardComm(int nranks) : comm_(nranks) {}

  [[nodiscard]] int size() const { return comm_.size(); }

  /// The slice of [0, n) owned by `rank`.
  [[nodiscard]] ShardRange range(int rank, std::size_t n) const {
    return comm_.range(rank, n);
  }

  /// The full partition of [0, n): one range per rank, in rank order.
  /// Ranges are contiguous, non-overlapping, and cover [0, n); ranks past
  /// the item count receive empty ranges.
  [[nodiscard]] std::vector<ShardRange> scatter_ranges(std::size_t n) const {
    std::vector<ShardRange> out;
    out.reserve(static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r) out.push_back(range(r, n));
    return out;
  }

 private:
  par::DeterministicComm comm_;
};

/// The deal protocol of work-stealing shard rebalancing: the partition's
/// ranges become per-rank claim slots, and ranks pull grain-sized
/// sub-ranges instead of owning their slice outright.
///
/// A rank claims from the *front* of its own slot, leaving the tail
/// unclaimed; once its slot is empty it steals a trailing sub-range from
/// the victim with the most unclaimed items (ties broken by the lowest
/// rank).  Only slots whose owner has made its first claim are stealable:
/// an un-started slot is about to be claimed by a live owner anyway, and
/// the guard keeps ranks past the item count idle instead of racing the
/// owners for whole slices.  Owners eat forward, thieves eat backward, so
/// claims are always disjoint contiguous sub-ranges that jointly cover
/// [0, n) exactly once
/// -- which is what keeps every outcome index-addressed: no matter which
/// rank executes an item, its result lands at its global space index and
/// the merged study is bitwise-identical to a single-rank run.  With
/// stealing disabled every rank claims only its own slot, grain by grain:
/// that is the static partition, on the same protocol.
///
/// The victim rule is a deterministic function of the queue state.  Under
/// serial (virtual-clock) scheduling the whole claim sequence is therefore
/// reproducible; under pooled shards the *schedule* may vary with timing,
/// but the results cannot (see the determinism argument in
/// docs/distributed-engine.md).
///
/// Fault containment composes over the same protocol: the fleet
/// supervisor returns a dead rank's unfinished claim with release() and
/// retires its remaining slot with mark_dead(); both land in a FIFO
/// orphan pool that any rank may claim from -- even with stealing
/// disabled, because taking over for a dead rank is recovery, not load
/// balancing.  A queue that never sees release()/mark_dead() behaves
/// exactly as before.
class StealQueue {
 public:
  /// One granted sub-range: `range` is the claim, `victim` the rank whose
  /// slot it came from, `stolen` whether that rank is not the claimant,
  /// `reassigned` whether the range was orphaned by a failed rank.
  struct Claim {
    ShardRange range{};
    int victim = 0;
    bool stolen = false;
    bool reassigned = false;
  };

  /// Per-rank accounting, readable after the workers have drained the
  /// queue (claims mutate it under the lock).
  struct RankStats {
    std::size_t claims = 0;      ///< sub-ranges granted to this rank
    std::size_t steals = 0;      ///< of which were steals
    std::size_t stolen = 0;      ///< items this rank took from other slots
    std::size_t donated = 0;     ///< items other ranks took from this slot
    std::size_t reassigned = 0;  ///< items this rank took from the orphan
                                 ///< pool (failed ranks' returned work)
  };

  /// `ranges` are the per-rank slots (ShardComm::scatter_ranges, or a
  /// placement's position ranges); `grain` caps every claim's size (>= 1,
  /// clamped).  `steal_enabled` false disables stealing from live slots
  /// (the --no-steal fleet); orphaned work stays claimable by everyone
  /// either way.
  StealQueue(std::vector<ShardRange> ranges, std::size_t grain,
             bool steal_enabled = true)
      : grain_(grain < 1 ? 1 : grain), steal_enabled_(steal_enabled) {
    slots_.reserve(ranges.size());
    for (const ShardRange& r : ranges) slots_.push_back({r.begin, r.end});
    stats_.resize(ranges.size());
  }

  /// Grants `rank` its next sub-range, or nullopt when nothing is
  /// claimable *right now* (every started slot is empty).  With un-started
  /// slots outstanding a pooled thief should yield and retry until
  /// done_for() rather than exit.  Thread-safe.
  [[nodiscard]] std::optional<Claim> claim(int rank) {
    const auto r = static_cast<std::size_t>(rank);
    std::lock_guard lock(mu_);
    if (r >= slots_.size()) {
      throw std::invalid_argument("StealQueue: rank " + std::to_string(rank) +
                                  " outside the " +
                                  std::to_string(slots_.size()) +
                                  "-slot partition");
    }
    Slot& own = slots_[r];
    if (own.next < own.end) {
      // Own work first: a grain-sized chunk off the front, leaving the
      // trailing sub-range stealable.
      own.started = true;
      const std::size_t take = std::min(grain_, own.end - own.next);
      Claim c{{own.next, own.next + take}, rank, false, false};
      own.next += take;
      ++stats_[r].claims;
      return c;
    }
    // Orphaned work next: FIFO over the ranges failed ranks returned, a
    // grain off the front of the oldest.  Recovery outranks stealing --
    // an orphan has no live owner coming back for it.
    if (!orphans_.empty()) {
      Orphan& o = orphans_.front();
      const std::size_t take = std::min(grain_, o.range.size());
      Claim c{{o.range.begin, o.range.begin + take}, o.owner, false, true};
      o.range.begin += take;
      if (o.range.begin >= o.range.end) orphans_.erase(orphans_.begin());
      ++stats_[r].claims;
      stats_[r].reassigned += take;
      return c;
    }
    if (!steal_enabled_) return std::nullopt;
    // Steal: the most-loaded *started* slot by unclaimed-item count, ties
    // broken by the lowest rank (a deterministic function of the queue
    // state).
    std::size_t victim = slots_.size();
    std::size_t most = 0;
    for (std::size_t v = 0; v < slots_.size(); ++v) {
      if (!slots_[v].started) continue;
      const std::size_t remaining = slots_[v].end - slots_[v].next;
      if (remaining > most) {
        most = remaining;
        victim = v;
      }
    }
    if (victim == slots_.size()) return std::nullopt;  // drained
    Slot& loser = slots_[victim];
    const std::size_t take = std::min(grain_, most);
    Claim c{{loser.end - take, loser.end}, static_cast<int>(victim), true,
            false};
    loser.end -= take;
    ++stats_[r].claims;
    ++stats_[r].steals;
    stats_[r].stolen += take;
    stats_[victim].donated += take;
    return c;
  }

  /// Returns an unfinished claim to the queue (the claimant died before
  /// completing it): the range joins the orphan pool for any rank to
  /// re-claim.  `owner` is recorded as the orphan's victim for
  /// accounting.  Empty ranges are ignored.
  void release(ShardRange range, int owner) {
    if (range.begin >= range.end) return;
    std::lock_guard lock(mu_);
    orphans_.push_back({range, owner});
  }

  /// Retires a rank permanently: its remaining unclaimed slot moves to
  /// the orphan pool so survivors pick it up even with stealing disabled.
  /// The supervisor calls this when a rank exhausts its restart budget;
  /// the dead rank must make no further claim() calls.
  void mark_dead(int rank) {
    const auto r = static_cast<std::size_t>(rank);
    std::lock_guard lock(mu_);
    Slot& s = slots_.at(r);
    if (s.next < s.end) {
      orphans_.push_back({{s.next, s.end}, rank});
      s.next = s.end;
    }
  }

  /// True when claim(rank) would grant something *right now*: own work,
  /// an orphan, or (with stealing) a started victim.  The serial
  /// virtual-clock driver schedules only claimable ranks, so a rank whose
  /// remaining work sits in another live rank's un-started slot never
  /// spins.
  [[nodiscard]] bool claimable(int rank) const {
    const auto r = static_cast<std::size_t>(rank);
    std::lock_guard lock(mu_);
    const Slot& own = slots_.at(r);
    if (own.next < own.end) return true;
    if (!orphans_.empty()) return true;
    if (!steal_enabled_) return false;
    for (const Slot& s : slots_) {
      if (s.started && s.next < s.end) return true;
    }
    return false;
  }

  /// True once claim(rank) can never grant anything again: its own slot
  /// and the orphan pool are empty and, with stealing, so is every other
  /// slot.  A thief facing only un-started slots is not done -- their
  /// owners are about to start them.  Orphans appear only through
  /// release()/mark_dead(), which the serial supervised driver calls, so
  /// a pooled rank may leave its lane as soon as this holds.
  [[nodiscard]] bool done_for(int rank) const {
    std::lock_guard lock(mu_);
    const Slot& own = slots_.at(static_cast<std::size_t>(rank));
    if (own.next < own.end || !orphans_.empty()) return false;
    return !steal_enabled_ ||
           std::all_of(slots_.begin(), slots_.end(),
                       [](const Slot& s) { return s.next >= s.end; });
  }

  /// True once every slot and the orphan pool are empty (no further claim
  /// can succeed).
  [[nodiscard]] bool drained() const {
    std::lock_guard lock(mu_);
    for (const Slot& s : slots_) {
      if (s.next < s.end) return false;
    }
    return orphans_.empty();
  }

  [[nodiscard]] RankStats stats(int rank) const {
    std::lock_guard lock(mu_);
    return stats_.at(static_cast<std::size_t>(rank));
  }

 private:
  /// Unclaimed items of one rank's slot: owners advance `next`, thieves
  /// retreat `end`.  `started` flips on the owner's first claim and gates
  /// stealing.
  struct Slot {
    std::size_t next = 0, end = 0;
    bool started = false;
  };

  /// A failed rank's returned range, claimable by anyone in FIFO order.
  struct Orphan {
    ShardRange range{};
    int owner = 0;
  };

  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  std::vector<Orphan> orphans_;
  std::vector<RankStats> stats_;
  std::size_t grain_;
  bool steal_enabled_;
};

}  // namespace flit::dist
