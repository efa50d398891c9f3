#include "core/explorer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "core/parallel.h"
#include "core/resultsdb.h"
#include "obs/session.h"

namespace flit::core {

const char* to_string(OutcomeStatus s) {
  switch (s) {
    case OutcomeStatus::Ok: return "ok";
    case OutcomeStatus::Retried: return "retried";
    case OutcomeStatus::Crashed: return "crashed";
    case OutcomeStatus::BuildFailed: return "build-failed";
    case OutcomeStatus::Degraded: return "degraded";
  }
  return "?";
}

std::optional<OutcomeStatus> outcome_status_from(const std::string& name) {
  if (name == "ok") return OutcomeStatus::Ok;
  if (name == "retried") return OutcomeStatus::Retried;
  if (name == "crashed") return OutcomeStatus::Crashed;
  if (name == "build-failed") return OutcomeStatus::BuildFailed;
  if (name == "degraded") return OutcomeStatus::Degraded;
  return std::nullopt;
}

std::size_t StudyResult::variable_count() const {
  return static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [](const CompilationOutcome& o) {
                      return o.ok() && !o.bitwise_equal();
                    }));
}

std::size_t StudyResult::failed_count() const {
  return static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [](const CompilationOutcome& o) { return o.failed(); }));
}

std::size_t StudyResult::retried_count() const {
  return static_cast<std::size_t>(std::count_if(
      outcomes.begin(), outcomes.end(), [](const CompilationOutcome& o) {
        return o.status == OutcomeStatus::Retried;
      }));
}

std::size_t StudyResult::degraded_count() const {
  return static_cast<std::size_t>(std::count_if(
      outcomes.begin(), outcomes.end(), [](const CompilationOutcome& o) {
        return o.status == OutcomeStatus::Degraded;
      }));
}

const CompilationOutcome* StudyResult::fastest_equal(
    const std::string& compiler_name) const {
  const CompilationOutcome* best = nullptr;
  for (const CompilationOutcome& o : outcomes) {
    if (!o.bitwise_equal()) continue;
    if (!compiler_name.empty() && o.comp.compiler.name != compiler_name) {
      continue;
    }
    if (best == nullptr || o.speedup > best->speedup) best = &o;
  }
  return best;
}

const CompilationOutcome* StudyResult::fastest_variable() const {
  const CompilationOutcome* best = nullptr;
  for (const CompilationOutcome& o : outcomes) {
    if (o.failed() || o.bitwise_equal()) continue;
    if (best == nullptr || o.speedup > best->speedup) best = &o;
  }
  return best;
}

std::optional<StudyResult::VariabilityStats> StudyResult::variability_stats()
    const {
  std::vector<long double> v;
  for (const CompilationOutcome& o : outcomes) {
    if (o.ok() && !o.bitwise_equal()) v.push_back(o.variability);
  }
  if (v.empty()) return std::nullopt;
  std::sort(v.begin(), v.end());
  VariabilityStats s;
  s.min = v.front();
  s.max = v.back();
  const std::size_t mid = v.size() / 2;
  s.median =
      v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0L;
  return s;
}

SpaceExplorer::SpaceExplorer(const fpsem::CodeModel* model,
                             toolchain::Compilation baseline,
                             toolchain::Compilation speed_reference,
                             unsigned jobs,
                             toolchain::CompilationCache* cache,
                             ProbeMemo* memo)
    : model_(model),
      baseline_(std::move(baseline)),
      speed_reference_(std::move(speed_reference)),
      cache_(cache != nullptr ? cache : &own_cache_),
      memo_(memo != nullptr ? memo : &own_memo_),
      build_(model, cache_),
      linker_(model),
      runner_(model) {
  set_jobs(jobs);
}

RunOutput SpaceExplorer::run_whole_program(
    const TestBase& test, const toolchain::Compilation& c) const {
  // The build key and the compile cache's lookup share one semantics
  // group.  An armed injector must see every item roll its compile, link
  // and run decisions, so faulted studies bypass the memo (as bisect
  // probes do).
  const std::uint64_t group = toolchain::CompilationCache::semantics_group(c);
  if (FaultInjector::global().any_armed()) {
    return build_link_run(test, c, group);
  }

  ProbeMemo::Answer answer =
      memo_->probe(ProbeMemo::key_of_build(test.name(), c, group), [&] {
        try {
          return ProbeMemo::Entry{false, {}, build_link_run(test, c, group)};
        } catch (const ExecutionCrash& e) {
          return ProbeMemo::Entry{true, e.what(), {}};
        }
      });
  if (obs::Tracer* tr = obs::tracer_if_enabled(); answer.hit && tr != nullptr) {
    // Spans stay logical: a hit emits the miss's events (same names, ticks
    // and cost), so which item of a key ran first never shows in a trace.
    { obs::Span span(tr, "build", "explore", c.str()); }
    { obs::Span span(tr, "link", "explore", c.str()); }
    obs::Span span(tr, "run", "explore", c.str());
    if (!answer.entry.crashed) span.set_cost(answer.entry.output.cycles);
  }
  if (answer.entry.crashed) throw ExecutionCrash(answer.entry.crash_reason);
  return std::move(answer.entry.output);
}

RunOutput SpaceExplorer::build_link_run(const TestBase& test,
                                        const toolchain::Compilation& c,
                                        std::uint64_t group) const {
  // The per-compilation phase breakdown: build/link/run spans stamped with
  // the calling thread's (shard, index, attempt) context.  Inert (a null
  // check) when tracing is off.
  obs::Tracer* tr = obs::tracer_if_enabled();
  // The interned objects link through a pointer line, uncopied; the
  // linker reads `c`, not the compilation that built a shared object.
  std::vector<toolchain::CompilationCache::ObjectPtr> objs;
  {
    obs::Span span(tr, "build", "explore", c.str());
    objs = build_.intern_all(c, /*fpic=*/false, /*injected=*/false, group);
  }
  std::vector<const toolchain::ObjectFile*> line;
  line.reserve(objs.size());
  for (const toolchain::CompilationCache::ObjectPtr& o : objs) {
    line.push_back(o.get());
  }
  toolchain::Executable exe;
  {
    obs::Span span(tr, "link", "explore", c.str());
    exe = linker_.link(line, c);
  }
  obs::Span span(tr, "run", "explore", c.str());
  RunOutput out = runner_.run(test, exe);
  span.set_cost(out.cycles);
  return out;
}

RunOutput SpaceExplorer::run_anchor(const TestBase& test,
                                    const toolchain::Compilation& c,
                                    const RetryPolicy& retry,
                                    const char* role) const {
  std::string last;
  for (int attempt = 0; attempt < retry.attempts(); ++attempt) {
    FaultInjector::ScopedTrial trial(test.name() + "|" + c.str(), attempt);
    obs::Span span(obs::tracer_if_enabled(), "anchor", role, c.str());
    obs::metrics().counter("explore.anchor_runs").add();
    try {
      return run_whole_program(test, c);
    } catch (const std::exception& e) {
      last = e.what();
    }
  }
  throw StudyAbort(std::string("explore: ") + role + " compilation '" +
                   c.str() + "' failed after " +
                   std::to_string(retry.attempts()) +
                   " attempt(s): " + last +
                   " (the study cannot classify outcomes without it)");
}

StudyResult SpaceExplorer::explore(
    const TestBase& test, std::span<const toolchain::Compilation> space,
    const ExploreOptions& opts) const {
  StudyResult result;
  result.test_name = test.name();

  for (const std::size_t p : opts.indices) {
    if (p >= space.size()) {
      throw std::invalid_argument(
          "explore: position " + std::to_string(p) + " is outside a " +
          std::to_string(space.size()) + "-item space");
    }
  }
  // Claimed items, and the space position of item k (its global identity).
  const std::size_t items =
      opts.indices.empty() ? space.size() : opts.indices.size();
  const auto position = [&](std::size_t k) {
    return opts.indices.empty() ? k : opts.indices[k];
  };

  // Study-level accounting.  Counter handles are stable across
  // MetricsRegistry::reset(), so the static lookups are safe; the
  // histogram accumulates in fixed-point, so its totals are independent of
  // the jobs count and scheduling.
  static obs::Counter& m_executed = obs::metrics().counter("explore.executed");
  static obs::Counter& m_resumed = obs::metrics().counter("explore.resumed");
  static obs::Counter& m_retried = obs::metrics().counter("explore.retried");
  static obs::Counter& m_quarantined =
      obs::metrics().counter("explore.quarantined");
  static obs::Counter& m_attempts = obs::metrics().counter("explore.attempts");
  static obs::Histogram& m_cycles =
      obs::metrics().histogram("explore.cycles", obs::cycle_buckets());
  obs::Span explore_span(obs::tracer_if_enabled(), "explore", "explore",
                         result.test_name);

  // The two anchor runs; when they are the same compilation (or appear
  // inside the space) the run is executed once and reused -- runs are
  // deterministic, so reuse is observationally identical to re-running.
  // Anchor failures are fatal: every outcome is classified against them.
  // The memo carries the anchors across repeated explore() calls for the
  // same test (the work-stealing engine issues one call per claim).
  if (!anchor_memo_.has_value() ||
      anchor_memo_->test_name != result.test_name) {
    AnchorMemo memo;
    memo.test_name = result.test_name;
    memo.base = run_anchor(test, baseline_, opts.retry, "baseline");
    memo.ref = speed_reference_ == baseline_
                   ? memo.base
                   : run_anchor(test, speed_reference_, opts.retry,
                                "speed-reference");
    anchor_memo_ = std::move(memo);
  }
  const RunOutput& base = anchor_memo_->base;
  const RunOutput& ref = anchor_memo_->ref;

  result.outcomes.resize(items);

  // Resume: prefill outcomes already recorded for this test (quarantined
  // rows included -- a failure that exhausted its retry budget once is
  // not re-run by a later study) and skip their execution.  Degraded rows
  // are the exception: the fleet supervisor records them when it ran out
  // of live ranks, so the item itself was never attempted -- a resume
  // re-runs it rather than locking the infrastructure failure in.
  std::vector<char> prefilled(items, 0);
  if (opts.db != nullptr && opts.resume) {
    for (std::size_t k = 0; k < items; ++k) {
      const toolchain::Compilation& c = space[position(k)];
      const auto row = opts.db->find(result.test_name, c.str());
      if (!row.has_value()) continue;
      if (row->status == OutcomeStatus::Degraded) continue;
      CompilationOutcome& o = result.outcomes[k];
      o.comp = c;
      o.speedup = row->speedup;
      o.variability = row->variability;
      o.status = row->status;
      o.reason = row->reason;
      prefilled[k] = 1;
      ++result.resumed;
      m_resumed.add();
    }
  }

  const auto run_item = [&](std::size_t k) {
    const toolchain::Compilation& c = space[position(k)];
    CompilationOutcome& o = result.outcomes[k];
    o.comp = c;

    const RunOutput* reused = nullptr;
    if (c == baseline_) {
      reused = &base;
    } else if (c == speed_reference_) {
      reused = &ref;
    }

    std::string reason;
    OutcomeStatus failure = OutcomeStatus::Crashed;
    const int attempts = opts.retry.attempts();
    m_executed.add();
    for (int attempt = 0; attempt < attempts; ++attempt) {
      FaultInjector::ScopedTrial trial(result.test_name + "|" + c.str(),
                                       attempt);
      // The telemetry stamp: the item's *global* identity (shard + space
      // position), mirroring the trial context above.
      obs::ScopedItem obs_item(opts.obs_shard, position(k), attempt);
      obs::Span span(obs::tracer_if_enabled(), "compilation", "explore",
                     c.str());
      m_attempts.add();
      try {
        RunOutput fresh;
        const RunOutput* run = reused;
        if (run == nullptr) {
          fresh = run_whole_program(test, c);
          run = &fresh;
        }
        o.variability = Runner::compare_outputs(test, base, *run);
        o.cycles = run->cycles;
        o.speedup = ref.cycles / run->cycles;
        o.status = attempt == 0 ? OutcomeStatus::Ok : OutcomeStatus::Retried;
        o.attempts = attempt + 1;
        o.reason = attempt == 0 ? std::string() : "recovered from: " + reason;
        span.set_cost(o.cycles);
        if (o.status == OutcomeStatus::Retried) m_retried.add();
        m_cycles.observe(o.cycles);
        return;
      } catch (const ExecutionCrash& e) {
        failure = OutcomeStatus::Crashed;
        reason = e.what();
        if (!opts.keep_going && attempt + 1 == attempts) throw;
      } catch (const std::exception& e) {
        failure = OutcomeStatus::BuildFailed;
        reason = e.what();
        if (!opts.keep_going && attempt + 1 == attempts) throw;
      }
    }
    // Quarantined: every attempt failed.
    m_quarantined.add();
    o.status = failure;
    o.attempts = attempts;
    o.reason = reason;
    o.variability = 0.0L;
    o.cycles = 0.0;
    o.speedup = 0.0;
  };

  ThreadPool pool(jobs_);
  const std::size_t batch =
      opts.db != nullptr && opts.checkpoint_batch > 0 ? opts.checkpoint_batch
                                                      : items;
  for (std::size_t start = 0; start < items; start += batch) {
    const std::size_t n = std::min(batch, items - start);
    pool.parallel_for(n, [&](std::size_t j) {
      const std::size_t k = start + j;
      if (!prefilled[k]) run_item(k);
    });

    if (opts.db == nullptr) continue;
    // Checkpoint the freshly computed slice (resumed rows are already on
    // disk), so a killed study loses at most one batch.
    StudyResult slice;
    slice.test_name = result.test_name;
    for (std::size_t k = start; k < start + n; ++k) {
      if (!prefilled[k]) slice.outcomes.push_back(result.outcomes[k]);
    }
    if (slice.outcomes.empty()) continue;
    opts.db->record(slice);
    if (FaultInjector::global().should_kill(opts.db->records())) {
      // The kill switch of the resume smoke test: die the way SIGKILL
      // would, after the checkpoint is durably on disk.
      std::fprintf(stderr,
                   "explore: injected kill after checkpoint batch %zu\n",
                   opts.db->records());
      std::fflush(nullptr);
      std::_Exit(137);
    }
  }
  return result;
}

}  // namespace flit::core
