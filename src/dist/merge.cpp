#include "dist/merge.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace flit::dist {

namespace {

std::string hit_rate_str(const toolchain::CacheStats& s) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%llu/%llu hits (%.1f%%)",
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.lookups()),
                100.0 * s.hit_rate());
  return buf;
}

std::string cycles_skew_str(const obs::HistogramData& h) {
  if (h.count == 0) return "cycles n/a";
  // min and max are exact (fixed-point of observed values); the median is
  // bucket-interpolated, hence the tilde.
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "cycles min %.0f / ~med %.0f / max %.0f (%llu items)",
                h.min_value(), h.quantile(0.5), h.max_value(),
                static_cast<unsigned long long>(h.count));
  return buf;
}

}  // namespace

toolchain::CacheStats ShardedStudy::aggregate_cache() const {
  toolchain::CacheStats total;
  for (const ShardReport& s : shards) total += s.cache;
  return total;
}

obs::HistogramData ShardedStudy::aggregate_cycles() const {
  obs::HistogramData total{obs::cycle_buckets()};
  for (const ShardReport& s : shards) total += s.cycles;
  return total;
}

double ShardedStudy::max_shard_fresh_cycles() const {
  double worst = 0.0;
  for (const ShardReport& s : shards) {
    worst = std::max(worst, s.fresh_cycle_sum());
  }
  return worst;
}

std::string shard_report_text(const ShardedStudy& s) {
  std::ostringstream os;
  os << "sharded study: " << s.study.outcomes.size() << " compilations over "
     << s.shards.size() << " shard(s)\n";
  for (const ShardReport& r : s.shards) {
    os << "  shard " << r.rank << ": ";
    if (s.placement.contiguous) {
      // The legacy contiguous-slice line, byte-for-byte.
      os << "[" << r.range.begin << ", " << r.range.end << ") ";
    } else {
      // A permuted placement owns an arbitrary index set; the slice
      // notation would lie, so print the owned item/group counts instead.
      const auto rank = static_cast<std::size_t>(r.rank);
      os << s.placement.rank_indices[rank].size() << " item(s) in "
         << s.placement.rank_groups[rank] << " group(s) ";
    }
    os << r.executed() << " executed, " << r.prefilled << " resumed, "
       << r.stolen << " stolen, " << r.donated << " donated, " << r.failed
       << " failed, " << r.retried << " retried, cache "
       << hit_rate_str(r.cache) << ", " << cycles_skew_str(r.cycles) << '\n';
    if (s.supervisor.enabled) {
      os << "    recovery: " << r.rank_faults << " fault(s), "
         << r.rank_stalls << " stall(s), " << r.restarts << " restart(s), "
         << r.reassigned << " reassigned item(s), backoff "
         << r.backoff_cycles << " cycle(s)"
         << (r.dead ? ", DEAD (budget exhausted)" : "") << '\n';
    }
  }
  if (s.placement.policy != PlacementPolicy::Static) {
    os << "  placement: " << to_string(s.placement.policy)
       << (s.placement.profiled ? " (profiled)" : " (static model)") << ", "
       << s.placement.total_groups << " fingerprint group(s), "
       << s.placement.duplicated_groups << " duplicated (static split: "
       << s.placement.static_duplicated_groups << "), "
       << s.placement.avoided_group_compiles()
       << " redundant compiles avoided\n";
  }
  std::size_t failed = 0, retried = 0, prefilled = 0;
  std::size_t stolen = 0, steals = 0;
  for (const ShardReport& r : s.shards) {
    failed += r.failed;
    retried += r.retried;
    prefilled += r.prefilled;
    stolen += r.stolen;
    steals += r.steals;
  }
  os << "  aggregate: " << failed << " failed, " << retried << " retried, "
     << prefilled << " resumed, " << stolen << " stolen over " << steals
     << " steal(s), fleet cache " << hit_rate_str(s.aggregate_cache())
     << ", " << cycles_skew_str(s.aggregate_cycles()) << '\n';
  if (s.supervisor.enabled) {
    const SupervisorSummary& sup = s.supervisor;
    os << "  supervisor: " << sup.rank_faults << " rank fault(s), "
       << sup.stalls << " stall(s), " << sup.restarts << " restart(s) (budget "
       << sup.restart_budget << "/rank), " << sup.reassigned_claims
       << " claim(s) reassigned (" << sup.reassigned_items << " item(s)), "
       << sup.dead_ranks << " rank(s) dead, " << sup.degraded_cells
       << " cell(s) degraded"
       << (sup.allow_partial ? " [--allow-partial]" : "") << ", backoff "
       << sup.backoff_cycles << " cycle(s), fleet clock " << sup.fleet_cycles
       << " cycle(s)\n";
  }
  return os.str();
}

}  // namespace flit::dist
