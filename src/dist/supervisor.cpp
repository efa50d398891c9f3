#include "dist/supervisor.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "obs/session.h"

namespace flit::dist {

namespace {

/// One supervised run's per-claim hook: the rank-level fault decision,
/// release, restart with backoff or retirement, and the degraded pass.
class RankSupervision final : public ClaimHook {
 public:
  explicit RankSupervision(const SupervisorOptions& opts)
      : opts_(opts),
        incarnation_(static_cast<std::size_t>(opts.shard.shards), 0),
        restarts_used_(static_cast<std::size_t>(opts.shard.shards), 0) {}

  bool admit(ClaimFleet& fleet, std::size_t r,
             const StealQueue::Claim& c) override {
    // Rank-level fault decision, hashed per (rank, incarnation, claim
    // range): deterministic at any schedule, and a restarted incarnation
    // re-rolls -- which is what makes recovery converge.
    bool rank_fault = false;
    bool rank_stall = false;
    {
      const core::FaultInjector::ScopedTrial trial(
          fleet.test.name() + "|rank" + std::to_string(r), incarnation_[r]);
      const std::string key = "claim[" + std::to_string(c.range.begin) +
                              "," + std::to_string(c.range.end) + ")";
      const core::FaultInjector& inj = core::FaultInjector::global();
      rank_fault = inj.should_fail(core::FaultSite::Shard, key);
      rank_stall = !rank_fault && inj.should_fail(core::FaultSite::Stall, key);
    }
    if (!rank_fault && !rank_stall) return true;

    // The rank died (shard) or hung (stall) on this claim.  Death is
    // claim-atomic -- no outcome, no checkpoint batch -- so the whole
    // range returns to the orphan pool for any survivor (including this
    // rank's next incarnation) to re-claim.
    obs::MetricsRegistry& m = obs::metrics();
    ShardReport& rep = fleet.result.shards[r];
    SupervisorSummary& sup = fleet.result.supervisor;
    if (rank_fault) {
      ++rep.rank_faults;
      ++sup.rank_faults;
      m.counter("dist.supervisor.rank_faults").add();
    } else {
      ++rep.rank_stalls;
      ++sup.stalls;
      m.counter("dist.supervisor.stalls").add();
      // The modeled detection latency.
      fleet.clocks.advance(r, opts_.stall_deadline > 0.0
                                  ? opts_.stall_deadline
                                  : opts_.backoff_base);
    }
    fleet.queue.release(c.range, c.victim);

    if (restarts_used_[r] >= opts_.max_restarts) {
      fleet.clocks.deactivate(r);
      rep.dead = true;
      ++sup.dead_ranks;
      fleet.queue.mark_dead(static_cast<int>(r));
      m.counter("dist.supervisor.dead_ranks").add();
      return false;
    }
    ++restarts_used_[r];
    ++incarnation_[r];
    ++rep.restarts;
    ++sup.restarts;
    const double backoff =
        std::ldexp(opts_.backoff_base, restarts_used_[r] - 1);
    fleet.clocks.advance(r, backoff);
    rep.backoff_cycles += backoff;
    sup.backoff_cycles += backoff;
    m.counter("dist.supervisor.restarts").add();
    m.counter("dist.supervisor.backoff_cycles")
        .add(static_cast<std::uint64_t>(backoff));
    obs::ScopedItem obs_lane(static_cast<int>(r), obs::kNoIndex, 0);
    obs::Span restart_span(obs::tracer_if_enabled(), "restart", "dist",
                           fleet.test.name() + " rank " + std::to_string(r) +
                               " incarnation " +
                               std::to_string(incarnation_[r]));
    // Fresh incarnation: the anchor memo and warm object cache are
    // process state the death lost.
    fleet.restart(r);
    return false;
  }

  void finish(ClaimFleet& fleet,
              const std::vector<std::size_t>& unwritten) override {
    SupervisorSummary& sup = fleet.result.supervisor;
    sup.enabled = true;
    sup.restart_budget = opts_.max_restarts;
    sup.allow_partial = opts_.allow_partial;
    sup.fleet_cycles = fleet.clocks.max_clock();
    if (unwritten.empty()) return;
    if (!opts_.allow_partial) {
      throw FleetAbort(
          "fleet supervisor: " + std::to_string(unwritten.size()) +
          " cell(s) unrecoverable (every rank exhausted its restart budget "
          "of " + std::to_string(opts_.max_restarts) +
          "); re-run with --allow-partial to record them as degraded");
    }
    for (std::size_t g : unwritten) {
      core::CompilationOutcome& o = fleet.result.study.outcomes[g];
      o.comp = fleet.space[g];
      o.status = core::OutcomeStatus::Degraded;
      o.attempts = 0;
      o.reason =
          "fleet supervisor: no live rank left to execute this cell "
          "(restart budget exhausted)";
    }
    sup.degraded_cells = unwritten.size();
    obs::metrics().counter("dist.supervisor.degraded_cells")
        .add(unwritten.size());
  }

 private:
  const SupervisorOptions& opts_;
  std::vector<int> incarnation_;    ///< the fault-decision attempt axis
  std::vector<int> restarts_used_;  ///< against max_restarts
};

}  // namespace

FleetSupervisor::FleetSupervisor(const fpsem::CodeModel* model,
                                 toolchain::Compilation baseline,
                                 toolchain::Compilation speed_reference,
                                 SupervisorOptions opts)
    : opts_(std::move(opts)),
      coord_(model, std::move(baseline), std::move(speed_reference),
             opts_.shard) {
  if (opts_.max_restarts < 0) {
    throw std::invalid_argument("FleetSupervisor: max_restarts must be >= 0");
  }
  if (!(opts_.backoff_base > 0.0)) {
    throw std::invalid_argument("FleetSupervisor: backoff_base must be > 0");
  }
  if (opts_.stall_deadline < 0.0) {
    throw std::invalid_argument(
        "FleetSupervisor: stall_deadline must be >= 0");
  }
}

bool FleetSupervisor::rank_faults_armed() {
  const core::FaultInjector& inj = core::FaultInjector::global();
  return inj.armed(core::FaultSite::Shard) ||
         inj.armed(core::FaultSite::Stall);
}

ShardedStudy FleetSupervisor::run(
    const core::TestBase& test,
    std::span<const toolchain::Compilation> space) const {
  return supervise(test, space, opts_.shard.resume);
}

ShardedStudy FleetSupervisor::resume(
    const core::TestBase& test,
    std::span<const toolchain::Compilation> space) const {
  if (opts_.shard.shard_db_dir.empty()) {
    throw std::invalid_argument(
        "FleetSupervisor::resume: no shard_db_dir to resume from");
  }
  return supervise(test, space, /*resume_shards=*/true);
}

core::ExploreFn FleetSupervisor::explore_override() const {
  return [this](const core::TestBase& test,
                std::span<const toolchain::Compilation> space) {
    return run(test, space).study;
  };
}

ShardedStudy FleetSupervisor::supervise(
    const core::TestBase& test,
    std::span<const toolchain::Compilation> space, bool resume_shards) const {
  if (!opts_.force_supervised && !rank_faults_armed()) {
    // Nothing can fault a rank: the unhooked engine's full concurrency
    // applies and ShardedStudy::supervisor stays disabled.
    return coord_.run_impl(test, space, resume_shards);
  }
  RankSupervision hook(opts_);
  return coord_.run_impl(test, space, resume_shards, &hook);
}

}  // namespace flit::dist
