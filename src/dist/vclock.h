#pragma once

// Min-virtual-clock scheduling, shared by the serial fleet emulations.
//
// Two engines drive work with the same deterministic discipline: a set of
// lanes (simulated ranks, or the study service's fleet slots) each
// carries a virtual clock, and the next unit of work goes to the active
// lane with the smallest clock -- the worker that would go idle first on
// a real concurrent fleet.  ShardCoordinator's serial claim driver
// (`serial_shards`, one-shard runs and every supervised run) clocks
// each rank in modeled fresh cycles, so claim schedules, steals and fault
// decisions are reproducible; the study service multiplexes whole tenant
// studies over its fleet lanes the same way.  The clock set itself is
// unit-agnostic.
//
// Determinism: selection is a pure function of the clock values and the
// activity flags (ties break to the lowest lane), so identical cost
// sequences produce identical schedules.  Not thread-safe -- the whole
// point is a *serial* emulation of a concurrent fleet.

#include <algorithm>
#include <cstddef>
#include <vector>

namespace flit::dist {

class VirtualClocks {
 public:
  explicit VirtualClocks(std::size_t lanes)
      : clock_(lanes, 0.0), active_(lanes, 1) {}

  /// Permanently removes a lane from selection: it died.
  void deactivate(std::size_t lane) { active_[lane] = 0; }

  /// Charges `cost` (in the caller's unit) to a lane's clock.
  void advance(std::size_t lane, double cost) { clock_[lane] += cost; }

  /// The fleet wall under this emulation: the largest clock, active or
  /// not (a dead rank's spent time still happened).
  [[nodiscard]] double max_clock() const {
    return clock_.empty() ? 0.0
                          : *std::max_element(clock_.begin(), clock_.end());
  }

  /// The active lane with the smallest clock among those satisfying
  /// `pred` (ties -> lowest lane); the lane count when none qualifies.
  template <class Pred>
  [[nodiscard]] std::size_t min_active_where(Pred&& pred) const {
    std::size_t best = clock_.size();
    for (std::size_t i = 0; i < clock_.size(); ++i) {
      if (active_[i] != 0 && pred(i) &&
          (best == clock_.size() || clock_[i] < clock_[best])) {
        best = i;
      }
    }
    return best;
  }

  /// min_active_where with no extra predicate.
  [[nodiscard]] std::size_t min_active() const {
    return min_active_where([](std::size_t) { return true; });
  }

 private:
  std::vector<double> clock_;
  std::vector<char> active_;
};

}  // namespace flit::dist
