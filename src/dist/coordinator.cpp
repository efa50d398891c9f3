#include "dist/coordinator.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "core/faults.h"
#include "dist/campaign.h"
#include "dist/vclock.h"
#include "obs/session.h"
#include "toolchain/compile_cache.h"

namespace flit::dist {

namespace {

/// The report's per-shard range field: the exact ShardComm slice under a
/// contiguous placement, the [min, max+1) envelope of the owned set under
/// a permuted one (envelopes may overlap across ranks; the placement's
/// rank_indices are authoritative).
ShardRange report_range(const ShardComm& comm, std::size_t space_size,
                        const Placement& placement, std::size_t r) {
  const std::vector<std::size_t>& idx = placement.rank_indices[r];
  if (placement.contiguous || idx.empty()) {
    return comm.range(static_cast<int>(r), space_size);
  }
  return ShardRange{idx.front(), idx.back() + 1};
}

/// One rank's worker state, kept across all of its claims so its
/// bookkeeping spans owned and stolen work alike.
struct Worker {
  std::unique_ptr<toolchain::CompilationCache> cache;
  std::unique_ptr<core::SpaceExplorer> explorer;
  std::unique_ptr<core::ResultsDb> db;  ///< null without checkpointing
};

/// One supervised run's rank bookkeeping on the serial driver: the
/// rank-level fault decision before each claim, release, restart with
/// backoff or retirement, and the degraded pass once the driver stops.
class RankSupervisor {
 public:
  RankSupervisor(const ShardOptions& opts, const core::TestBase& test,
                 StealQueue& queue, VirtualClocks& clocks,
                 ShardedStudy& result)
      : opts_(opts),
        test_(test),
        queue_(queue),
        clocks_(clocks),
        result_(result),
        incarnation_(static_cast<std::size_t>(opts.shards), 0),
        restarts_used_(static_cast<std::size_t>(opts.shards), 0) {}

  /// Called before rank `r` executes claim `c`.  Returns false when the
  /// rank was lost on the claim: the claim is back in the queue, and the
  /// rank is retired or restarted through `restart(r)`, which gives it a
  /// fresh cache and explorer while its checkpoint database persists.
  template <class Restart>
  bool admit(std::size_t r, const StealQueue::Claim& c, Restart&& restart) {
    // Rank-level fault decision, hashed per (rank, incarnation, claim
    // range): deterministic at any schedule, and a restarted incarnation
    // re-rolls -- which is what makes recovery converge.
    bool rank_fault = false;
    bool rank_stall = false;
    {
      const core::FaultInjector::ScopedTrial trial(
          test_.name() + "|rank" + std::to_string(r), incarnation_[r]);
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
    ShardReport& rep = result_.shards[r];
    SupervisorSummary& sup = result_.supervisor;
    if (rank_fault) {
      ++rep.rank_faults;
      ++sup.rank_faults;
      m.counter("dist.supervisor.rank_faults").add();
    } else {
      ++rep.rank_stalls;
      ++sup.stalls;
      m.counter("dist.supervisor.stalls").add();
      // The modeled detection latency.
      clocks_.advance(r, opts_.stall_deadline > 0.0 ? opts_.stall_deadline
                                                    : opts_.backoff_base);
    }
    queue_.release(c.range, c.victim);

    if (restarts_used_[r] >= opts_.max_restarts) {
      clocks_.deactivate(r);
      rep.dead = true;
      ++sup.dead_ranks;
      queue_.mark_dead(static_cast<int>(r));
      m.counter("dist.supervisor.dead_ranks").add();
      return false;
    }
    ++restarts_used_[r];
    ++incarnation_[r];
    ++rep.restarts;
    ++sup.restarts;
    const double backoff =
        std::ldexp(opts_.backoff_base, restarts_used_[r] - 1);
    clocks_.advance(r, backoff);
    rep.backoff_cycles += backoff;
    sup.backoff_cycles += backoff;
    m.counter("dist.supervisor.restarts").add();
    m.counter("dist.supervisor.backoff_cycles")
        .add(static_cast<std::uint64_t>(backoff));
    obs::ScopedItem obs_lane(static_cast<int>(r), obs::kNoIndex, 0);
    obs::Span restart_span(obs::tracer_if_enabled(), "restart", "dist",
                           test_.name() + " rank " + std::to_string(r) +
                               " incarnation " +
                               std::to_string(incarnation_[r]));
    // Fresh incarnation: the anchor memo and warm object cache are
    // process state the death lost.
    restart(r);
    return false;
  }

  /// Called once the driver stops, with the global indices no claim
  /// wrote (a fleet that died with work left): degrade them under
  /// allow_partial, else throw FleetAbort.
  void finish(std::span<const toolchain::Compilation> space,
              const std::vector<std::size_t>& unwritten) {
    SupervisorSummary& sup = result_.supervisor;
    sup.enabled = true;
    sup.restart_budget = opts_.max_restarts;
    sup.allow_partial = opts_.allow_partial;
    sup.fleet_cycles = clocks_.max_clock();
    if (unwritten.empty()) return;
    if (!opts_.allow_partial) {
      throw FleetAbort(
          "fleet supervisor: " + std::to_string(unwritten.size()) +
          " cell(s) unrecoverable (every rank exhausted its restart budget "
          "of " + std::to_string(opts_.max_restarts) +
          "); re-run with --allow-partial to record them as degraded");
    }
    for (std::size_t g : unwritten) {
      core::CompilationOutcome& o = result_.study.outcomes[g];
      o.comp = space[g];
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
  const ShardOptions& opts_;
  const core::TestBase& test_;
  StealQueue& queue_;
  VirtualClocks& clocks_;
  ShardedStudy& result_;
  std::vector<int> incarnation_;    ///< the fault-decision attempt axis
  std::vector<int> restarts_used_;  ///< against max_restarts
};

}  // namespace

ShardCoordinator::ShardCoordinator(const fpsem::CodeModel* model,
                                   toolchain::Compilation baseline,
                                   toolchain::Compilation speed_reference,
                                   ShardOptions opts)
    : model_(model),
      baseline_(std::move(baseline)),
      speed_reference_(std::move(speed_reference)),
      opts_(std::move(opts)),
      cost_model_(baseline_, speed_reference_) {
  if (opts_.shards < 1) {
    throw std::invalid_argument("ShardCoordinator: shards must be >= 1");
  }
  if (opts_.jobs < 1) {
    throw std::invalid_argument("ShardCoordinator: jobs must be >= 1");
  }
  if (opts_.resume && opts_.shard_db_dir.empty()) {
    throw std::invalid_argument(
        "ShardCoordinator: resume requires shard_db_dir (the per-shard "
        "checkpoints to stitch)");
  }
  if (!opts_.shard_db_dir.empty()) {
    // Fail fast with an actionable message instead of a raw filesystem
    // exception at the first checkpoint: create the directory now and
    // prove it is writable with a probe file.
    std::error_code ec;
    std::filesystem::create_directories(opts_.shard_db_dir, ec);
    if (ec) {
      throw std::invalid_argument(
          "ShardCoordinator: cannot create shard-db directory '" +
          opts_.shard_db_dir.string() + "': " + ec.message());
    }
    const std::filesystem::path probe =
        opts_.shard_db_dir / ".flit-write-probe";
    if (std::FILE* f = std::fopen(probe.string().c_str(), "w");
        f != nullptr) {
      std::fclose(f);
      std::filesystem::remove(probe, ec);
    } else {
      throw std::invalid_argument(
          "ShardCoordinator: shard-db directory '" +
          opts_.shard_db_dir.string() +
          "' is not writable (checkpoints could not be saved)");
    }
  }
  if (!opts_.cost_profile.empty()) {
    cost_model_.set_profile(CostProfile::from_results_db(opts_.cost_profile));
  } else if (!opts_.profile.empty()) {
    cost_model_.set_profile(opts_.profile);
  }
  if (opts_.max_restarts < 0) {
    throw std::invalid_argument("ShardCoordinator: max_restarts must be >= 0");
  }
  if (!(opts_.backoff_base > 0.0)) {
    throw std::invalid_argument("ShardCoordinator: backoff_base must be > 0");
  }
  if (opts_.stall_deadline < 0.0) {
    throw std::invalid_argument(
        "ShardCoordinator: stall_deadline must be >= 0");
  }
}

std::filesystem::path ShardCoordinator::shard_db_path(
    const std::filesystem::path& dir, int rank, int shards) {
  return dir / ("shard-" + std::to_string(rank) + "-of-" +
                std::to_string(shards) + ".tsv");
}

ShardedStudy ShardCoordinator::run(
    const core::TestBase& test,
    std::span<const toolchain::Compilation> space) const {
  return run_impl(test, space, opts_.resume);
}

ShardedStudy ShardCoordinator::resume(
    const core::TestBase& test,
    std::span<const toolchain::Compilation> space) const {
  if (opts_.shard_db_dir.empty()) {
    throw std::invalid_argument(
        "ShardCoordinator::resume: no shard_db_dir to resume from");
  }
  return run_impl(test, space, /*resume_shards=*/true);
}

core::ExploreFn ShardCoordinator::explore_override() const {
  return [this](const core::TestBase& test,
                std::span<const toolchain::Compilation> space) {
    return run(test, space).study;
  };
}

ShardedStudy ShardCoordinator::run_impl(
    const core::TestBase& test,
    std::span<const toolchain::Compilation> space,
    bool resume_shards) const {
  const bool checkpointing = !opts_.shard_db_dir.empty();
  if (checkpointing) std::filesystem::create_directories(opts_.shard_db_dir);

  ShardedStudy sharded;
  sharded.placement =
      place_space(space, opts_.shards, opts_.placement, cost_model_);
  const Placement& placement = sharded.placement;
  const std::size_t nranks = placement.shards();
  const ShardComm comm(opts_.shards);

  // The steal queue deals in contiguous ranges; a permuted placement's
  // owned sets are made contiguous by *position*: `order` concatenates the
  // per-rank index sets, each rank's slot is its position range, and a
  // claim's positions map back to global indices through `order`.  Under
  // the Static policy `order` is the identity.
  std::vector<std::size_t> order;
  order.reserve(space.size());
  std::vector<ShardRange> slots(nranks);
  sharded.shards.resize(nranks);
  for (std::size_t r = 0; r < nranks; ++r) {
    slots[r].begin = order.size();
    order.insert(order.end(), placement.rank_indices[r].begin(),
                 placement.rank_indices[r].end());
    slots[r].end = order.size();
    ShardReport& rep = sharded.shards[r];
    rep.rank = static_cast<int>(r);
    rep.range = report_range(comm, space.size(), placement, r);
  }
  sharded.study.test_name = test.name();
  sharded.study.outcomes.resize(space.size());

  // Per-rank worker state.  A shard database is only written when its
  // rank records a batch, so ranks that never execute leave no checkpoint
  // file behind.
  std::vector<Worker> workers(nranks);
  const auto fresh_worker = [&](std::size_t r) {
    workers[r].cache = std::make_unique<toolchain::CompilationCache>();
    workers[r].explorer = std::make_unique<core::SpaceExplorer>(
        model_, baseline_, speed_reference_, opts_.jobs,
        workers[r].cache.get());
  };
  for (std::size_t r = 0; r < nranks; ++r) {
    fresh_worker(r);
    if (checkpointing) {
      workers[r].db = std::make_unique<core::ResultsDb>(shard_db_path(
          opts_.shard_db_dir, static_cast<int>(r), opts_.shards));
    }
  }

  // Resume: a stolen or reassigned item checkpoints into the executing
  // rank's database (and a re-placed item into whichever rank owned it
  // last run), so the row a claim needs may live in any shard's file.
  // Seed every shard database with the union of all checkpointed rows;
  // the explorer's (test, compilation)-keyed prefill then restores each
  // item no matter which rank recorded it.
  if (checkpointing && resume_shards) {
    std::vector<core::ResultRow> union_rows;
    for (const Worker& w : workers) {
      union_rows.insert(union_rows.end(), w.db->rows().begin(),
                        w.db->rows().end());
    }
    for (Worker& w : workers) w.db->merge_rows(union_rows);
  }

  StealQueue queue(slots, opts_.steal_grain, opts_.steal);
  std::vector<char> written(order.size(), 0);  // per position

  // Executes one claim on rank r's worker, writes each outcome to its
  // global index, and returns the claim's modeled cost (summed fresh-
  // executed cycles) for the serial driver's clock.  Claims are disjoint,
  // so concurrent ranks never write the same slot.
  const auto execute_claim = [&](std::size_t r, const StealQueue::Claim& c) {
    ShardReport& rep = sharded.shards[r];
    Worker& w = workers[r];

    // The executing rank's telemetry lane; stolen and reassigned claims
    // keep their own span name so a trace shows the rebalance, while the
    // items inside stay stamped with their global indices either way.
    obs::ScopedItem obs_lane(static_cast<int>(r), obs::kNoIndex, 0);
    obs::Span claim_span(
        obs::tracer_if_enabled(),
        c.reassigned ? "reassign" : (c.stolen ? "steal" : "shard"), "dist",
        test.name() + " [" + std::to_string(c.range.begin) + ", " +
            std::to_string(c.range.end) + ")");
    obs::MetricsRegistry& m = obs::metrics();
    if (c.stolen) {
      m.counter("dist.steals").add();
      m.counter("dist.stolen_items").add(c.range.size());
    }
    if (c.reassigned) {
      ++sharded.supervisor.reassigned_claims;
      m.counter("dist.supervisor.reassigned_claims").add();
      m.counter("dist.supervisor.reassigned_items").add(c.range.size());
    }

    // The claim is its positions' slice of `order`: global indices.
    core::ExploreOptions eo;
    eo.retry = opts_.retry;
    eo.keep_going = opts_.keep_going;
    eo.checkpoint_batch = opts_.checkpoint_batch;
    eo.obs_shard = static_cast<int>(r);
    eo.indices = std::span<const std::size_t>(order).subspan(
        c.range.begin, c.range.size());
    if (w.db != nullptr) {
      eo.db = w.db.get();
      eo.resume = resume_shards;
    }

    core::StudyResult part = w.explorer->explore(test, space, eo);
    rep.failed += part.failed_count();
    rep.retried += part.retried_count();
    rep.prefilled += part.resumed;
    rep.executed_items += c.range.size() - part.resumed;
    // The modeled-cycle skew sample: executed ok outcomes only.  Resumed
    // rows carry no cycle measurement (the checkpoint database stores
    // classifications, not cycles), and fresh_cycles additionally drops
    // anchor-equal items, whose execution is a memoized-anchor reuse.
    double claim_cost = 0.0;
    for (const core::CompilationOutcome& o : part.outcomes) {
      if (o.ok() && o.cycles > 0.0) {
        rep.cycles.observe(o.cycles);
        if (o.comp != baseline_ && o.comp != speed_reference_) {
          rep.fresh_cycles.observe(o.cycles);
          claim_cost += o.cycles;
        }
      }
    }
    for (std::size_t k = 0; k < part.outcomes.size(); ++k) {
      const std::size_t pos = c.range.begin + k;
      if (written[pos] != 0) {
        throw std::logic_error("ShardCoordinator: global index " +
                               std::to_string(order[pos]) +
                               " claimed twice");
      }
      written[pos] = 1;
      sharded.study.outcomes[order[pos]] = std::move(part.outcomes[k]);
    }
    return claim_cost;
  };

  VirtualClocks clocks(nranks);
  const core::FaultInjector& inj = core::FaultInjector::global();
  std::optional<RankSupervisor> supervisor;
  if (opts_.force_supervised || inj.armed(core::FaultSite::Shard) ||
      inj.armed(core::FaultSite::Stall)) {
    supervisor.emplace(opts_, test, queue, clocks, sharded);
  }
  if (supervisor.has_value() || opts_.serial_shards || nranks == 1) {
    // Serial driver: the live claimable rank with the least modeled time
    // claims next (ties -> lowest rank), the worker that would go idle
    // first on a concurrent fleet.  Only claimable ranks are scheduled,
    // so a rank whose remaining work sits in an un-started slot never
    // spins, and the driver stops when no live rank can claim.
    while (true) {
      const std::size_t r = clocks.min_active_where(
          [&](std::size_t i) { return queue.claimable(static_cast<int>(i)); });
      if (r == nranks) break;
      const StealQueue::Claim c = queue.claim(static_cast<int>(r)).value();
      if (supervisor.has_value() && !supervisor->admit(r, c, fresh_worker)) {
        continue;
      }
      clocks.advance(r, execute_claim(r, c));
    }
  } else {
    // Pooled driver: one claiming lane per rank, whose explorer fans each
    // claim out over its own `jobs` lanes, composing shards x jobs.  The
    // rank's explorer is not reentrant (its anchor memo) and its shard
    // database takes one writer, so a rank never claims on two lanes.  A
    // StudyAbort inside any shard surfaces through the pool's
    // lowest-index-rethrow contract.
    run_claims_pooled(queue, nranks, 1,
                      [&](std::size_t r, const StealQueue::Claim& c) {
                        (void)execute_claim(r, c);
                      });
  }

  for (std::size_t r = 0; r < nranks; ++r) {
    const StealQueue::RankStats st = queue.stats(static_cast<int>(r));
    ShardReport& rep = sharded.shards[r];
    rep.stolen = st.stolen;
    rep.donated = st.donated;
    rep.steals = st.steals;
    rep.reassigned = st.reassigned;
    rep.cache = workers[r].cache->stats();
    sharded.supervisor.reassigned_items += st.reassigned;
  }

  // Exactly-once coverage: a position no claim wrote is a fleet that died
  // with work left (supervision degrades or aborts) or, unsupervised, a
  // protocol bug.
  std::vector<std::size_t> unwritten;
  for (std::size_t p = 0; p < written.size(); ++p) {
    if (written[p] == 0) unwritten.push_back(order[p]);
  }
  if (supervisor.has_value()) {
    supervisor->finish(space, unwritten);
  } else if (!unwritten.empty()) {
    throw std::logic_error("ShardCoordinator: global index " +
                           std::to_string(unwritten.front()) +
                           " was never claimed");
  }

  if (placement.policy != PlacementPolicy::Static) {
    // Placement telemetry -- strictly off the result path, and recorded
    // once per run on the coordinating thread, so the totals are
    // independent of shards x jobs x stealing.
    obs::MetricsRegistry& m = obs::metrics();
    m.counter("dist.placement.runs").add();
    m.counter("dist.placement.duplicated_groups")
        .add(placement.duplicated_groups);
    m.counter("dist.placement.avoided_compiles")
        .add(placement.avoided_group_compiles());
    m.gauge("dist.placement.groups")
        .set(static_cast<std::int64_t>(placement.total_groups));

    // Predicted-vs-actual cycle error: the model predicts in relative
    // units, so rescale its predictions to the run's actual cycle total
    // before comparing.  Anchor-equal items are answered from the memoized
    // anchor run (their "cost" is reuse, not execution) and quarantined
    // or degraded items carry no cycles; all are excluded.  Iterated in
    // global index order with fixed-point accumulation, the histogram is
    // deterministic.
    double predicted_sum = 0.0, actual_sum = 0.0;
    const auto fresh = [&](const core::CompilationOutcome& o) {
      return o.ok() && o.cycles > 0.0 && o.comp != baseline_ &&
             o.comp != speed_reference_;
    };
    for (const core::CompilationOutcome& o : sharded.study.outcomes) {
      if (!fresh(o)) continue;
      predicted_sum += cost_model_.predict(o.comp);
      actual_sum += o.cycles;
    }
    if (predicted_sum > 0.0 && actual_sum > 0.0) {
      obs::Histogram& err =
          m.histogram("dist.cost.error_pct", cost_error_buckets());
      const double scale = actual_sum / predicted_sum;
      for (const core::CompilationOutcome& o : sharded.study.outcomes) {
        if (!fresh(o)) continue;
        const double predicted = cost_model_.predict(o.comp) * scale;
        err.observe(100.0 * std::fabs(predicted - o.cycles) / o.cycles);
      }
    }
  }

  if (opts_.db != nullptr) opts_.db->record(sharded.study);
  return sharded;
}

}  // namespace flit::dist
