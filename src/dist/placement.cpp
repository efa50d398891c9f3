#include "dist/placement.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "dist/comm.h"
#include "toolchain/compile_cache.h"

namespace flit::dist {

const char* to_string(PlacementPolicy p) {
  switch (p) {
    case PlacementPolicy::Static:
      return "static";
    case PlacementPolicy::Cost:
      return "cost";
    case PlacementPolicy::Affinity:
      return "affinity";
  }
  return "static";
}

std::optional<PlacementPolicy> placement_policy_from(const std::string& name) {
  if (name == "static") return PlacementPolicy::Static;
  if (name == "cost") return PlacementPolicy::Cost;
  if (name == "affinity") return PlacementPolicy::Affinity;
  return std::nullopt;
}

namespace {

// One LPT unit: either a single item (Cost policy) or a whole fingerprint
// group (Affinity policy).  `indices` are ascending global space indices.
struct Unit {
  std::vector<std::size_t> indices;
  double cost = 0.0;
};

// Assigns units to `shards` bins with the LPT rule: units in descending
// cost order (ties -> lowest first index), each onto the least-loaded bin
// (ties -> lowest rank).  Deterministic because the order and both
// tie-breaks are total.
std::vector<std::vector<std::size_t>> lpt_assign(std::vector<Unit> units,
                                                 int shards,
                                                 std::vector<double>& loads) {
  std::stable_sort(units.begin(), units.end(),
                   [](const Unit& a, const Unit& b) {
                     if (a.cost != b.cost) return a.cost > b.cost;
                     return a.indices.front() < b.indices.front();
                   });
  std::vector<std::vector<std::size_t>> bins(
      static_cast<std::size_t>(shards));
  loads.assign(static_cast<std::size_t>(shards), 0.0);
  for (const Unit& u : units) {
    std::size_t best = 0;
    for (std::size_t r = 1; r < loads.size(); ++r) {
      if (loads[r] < loads[best]) best = r;
    }
    loads[best] += u.cost;
    bins[best].insert(bins[best].end(), u.indices.begin(), u.indices.end());
  }
  for (auto& bin : bins) std::sort(bin.begin(), bin.end());
  return bins;
}

// Excess group residencies of an index partition: sum over ranks of the
// distinct semantics groups resident on that rank, minus the global
// distinct count.  Zero means every fingerprint lives on exactly one rank.
std::size_t excess_residencies(
    const std::vector<std::vector<std::size_t>>& bins,
    const std::vector<std::uint64_t>& group_of, std::size_t total_groups,
    std::vector<std::size_t>* per_rank) {
  std::size_t resident_sum = 0;
  if (per_rank != nullptr) per_rank->assign(bins.size(), 0);
  for (std::size_t r = 0; r < bins.size(); ++r) {
    std::set<std::uint64_t> resident;
    for (std::size_t i : bins[r]) resident.insert(group_of[i]);
    if (per_rank != nullptr) (*per_rank)[r] = resident.size();
    resident_sum += resident.size();
  }
  return resident_sum - std::min(resident_sum, total_groups);
}

}  // namespace

Placement place_space(std::span<const toolchain::Compilation> space,
                      int shards, PlacementPolicy policy,
                      const CostModel& model) {
  if (shards < 1) {
    throw std::invalid_argument("place_space: shards must be >= 1 (got " +
                                std::to_string(shards) + ")");
  }

  Placement p;
  p.policy = policy;
  p.profiled = model.has_profile();
  const ShardComm comm(shards);

  std::vector<std::uint64_t> group_of(space.size());
  std::vector<double> cost_of(space.size());
  // Groups keyed by fingerprint, in first-appearance index order (the map
  // key is the fingerprint; determinism comes from the index vectors).
  std::map<std::uint64_t, Unit> groups;
  for (std::size_t i = 0; i < space.size(); ++i) {
    group_of[i] = toolchain::CompilationCache::semantics_group(space[i]);
    cost_of[i] = model.predict(space[i]);
    Unit& g = groups[group_of[i]];
    g.indices.push_back(i);
    g.cost += cost_of[i];
  }
  p.total_groups = groups.size();

  switch (policy) {
    case PlacementPolicy::Static: {
      const auto ranges = comm.scatter_ranges(space.size());
      p.rank_indices.resize(static_cast<std::size_t>(shards));
      p.predicted.assign(static_cast<std::size_t>(shards), 0.0);
      for (std::size_t r = 0; r < ranges.size(); ++r) {
        for (std::size_t i = ranges[r].begin; i < ranges[r].end; ++i) {
          p.rank_indices[r].push_back(i);
          p.predicted[r] += cost_of[i];
        }
      }
      p.contiguous = true;
      break;
    }
    case PlacementPolicy::Cost: {
      std::vector<Unit> units;
      units.reserve(space.size());
      for (std::size_t i = 0; i < space.size(); ++i) {
        units.push_back(Unit{{i}, cost_of[i]});
      }
      p.rank_indices = lpt_assign(std::move(units), shards, p.predicted);
      break;
    }
    case PlacementPolicy::Affinity: {
      // An indivisible unit defeats LPT: one fingerprint group whose
      // predicted cost exceeds the ideal per-shard share pins the
      // fleet's critical path to a single rank no matter how the rest
      // is packed.  Split such groups into cost-capped runs of
      // ascending indices -- the group then spans the minimum number
      // of shards that can absorb it, while every other fingerprint
      // still lives on exactly one rank.
      // Half the ideal share: LPT's makespan overshoot is bounded by the
      // largest unit it places, so capping units at share/2 keeps the
      // worst bin within ~1.5x of ideal even with adversarial groups.
      double total_cost = 0.0;
      for (double c : cost_of) total_cost += c;
      const double cap =
          total_cost / (2.0 * static_cast<double>(shards));
      std::vector<Unit> units;
      units.reserve(groups.size());
      for (auto& [fp, g] : groups) {
        if (g.cost <= cap || g.indices.size() <= 1) {
          units.push_back(std::move(g));
          continue;
        }
        Unit part;
        for (std::size_t i : g.indices) {
          if (!part.indices.empty() && part.cost + cost_of[i] > cap) {
            units.push_back(std::move(part));
            part = Unit{};
          }
          part.indices.push_back(i);
          part.cost += cost_of[i];
        }
        if (!part.indices.empty()) units.push_back(std::move(part));
      }
      p.rank_indices = lpt_assign(std::move(units), shards, p.predicted);
      break;
    }
  }

  p.duplicated_groups = excess_residencies(p.rank_indices, group_of,
                                           p.total_groups, &p.rank_groups);

  // The static-split baseline the report compares against.
  std::vector<std::vector<std::size_t>> static_bins(
      static_cast<std::size_t>(shards));
  const auto ranges = comm.scatter_ranges(space.size());
  for (std::size_t r = 0; r < ranges.size(); ++r) {
    for (std::size_t i = ranges[r].begin; i < ranges[r].end; ++i) {
      static_bins[r].push_back(i);
    }
  }
  p.static_duplicated_groups =
      excess_residencies(static_bins, group_of, p.total_groups, nullptr);
  if (policy == PlacementPolicy::Static) {
    p.contiguous = true;
  } else {
    p.contiguous = p.rank_indices == static_bins;
  }

  return p;
}

}  // namespace flit::dist
