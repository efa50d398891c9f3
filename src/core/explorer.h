#pragma once

// Levels 1 and 2 of the workflow (Fig. 1): run a test under every
// compilation of a space, classify each compilation as bitwise-equal or
// variable relative to the trusted baseline, and chart performance
// (speedup relative to a reference compilation) against reproducibility --
// the data behind Table 1 and Figures 4-6.
//
// The space is embarrassingly parallel, so explore() fans the compilations
// out over a ThreadPool (set_jobs / the jobs constructor argument) and
// merges outcomes by space index; the merged StudyResult is
// bitwise-identical to a serial run at any jobs count.  Per-file objects
// are memoized in a shared CompilationCache: most of the 244 triples
// collapse onto a handful of distinct per-file semantics.
//
// Whole-program runs are memoized too, in a single-flight ProbeMemo keyed
// before compile (ProbeMemo::key_of_build: test, semantics group, link-step
// libm): the 244 compilations of a test link only 78 distinct
// executables, and each is compiled, linked and run once per memo -- real
// runs equal distinct keys at any jobs count.  A hit still emits the
// item's build/link/run spans, with the stored cycles on its run span, so
// traces and every result byte are the same as without the memo.  While
// the fault injector is armed the memo is bypassed and every item rolls
// its own compile, link and run decisions.
//
// Failures are contained, not fatal: a compilation that crashes or fails
// to build is recorded in its outcome slot (status + reason) and the
// study completes -- the paper's evaluation depends on recording failed
// runs (Table 2), not on avoiding them.  Only the two anchor runs
// (baseline and speed reference) abort the study, with a StudyAbort
// naming the compilation.  With a ResultsDb attached, explore checkpoints
// outcomes incrementally and can resume a killed study, converging to a
// byte-identical database.

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/faults.h"
#include "core/probe_memo.h"
#include "core/runner.h"
#include "core/test_base.h"
#include "toolchain/build.h"
#include "toolchain/compile_cache.h"
#include "toolchain/compiler.h"
#include "toolchain/linker.h"

namespace flit::core {

class ResultsDb;

/// How a (test, compilation) study item ended.
enum class OutcomeStatus {
  Ok,           ///< ran cleanly on the first attempt
  Retried,      ///< ran cleanly after one or more failed attempts
  Crashed,      ///< the executable died with a signal on every attempt
  BuildFailed,  ///< the compile or link step failed on every attempt
  Degraded,     ///< never executed: the fleet supervisor ran out of live
                ///< ranks before the item's claim could run (an
                ///< infrastructure failure, not an item failure -- a
                ///< resume re-runs degraded rows, unlike quarantined ones)
};

[[nodiscard]] const char* to_string(OutcomeStatus s);
/// Inverse of to_string; nullopt for unrecognized names.
[[nodiscard]] std::optional<OutcomeStatus> outcome_status_from(
    const std::string& name);

struct CompilationOutcome {
  toolchain::Compilation comp;
  long double variability = 0.0L;  ///< compare() against the baseline
  double cycles = 0.0;             ///< modeled runtime
  double speedup = 0.0;            ///< reference cycles / cycles

  OutcomeStatus status = OutcomeStatus::Ok;
  int attempts = 1;    ///< attempts consumed (1 = first try succeeded)
  std::string reason;  ///< failure reason; for Retried, the transient
                       ///< fault the retry recovered from

  /// The item produced results (possibly after retries).
  [[nodiscard]] bool ok() const {
    return status == OutcomeStatus::Ok || status == OutcomeStatus::Retried;
  }
  /// The item is quarantined: every attempt failed.
  [[nodiscard]] bool failed() const { return !ok(); }

  [[nodiscard]] bool bitwise_equal() const {
    return ok() && variability == 0.0L;
  }
};

struct StudyResult {
  std::string test_name;
  std::vector<CompilationOutcome> outcomes;

  /// Outcomes the explore() call that returned this result restored from
  /// its database instead of running them (a resume).  Studies merged
  /// from several calls (the sharded engine's, the service's) leave it 0.
  std::size_t resumed = 0;

  /// Outcomes that ran and differ from the baseline (failures excluded).
  [[nodiscard]] std::size_t variable_count() const;

  /// Quarantined outcomes (crashed or failed to build on every attempt).
  [[nodiscard]] std::size_t failed_count() const;

  /// Outcomes that needed a retry to complete.
  [[nodiscard]] std::size_t retried_count() const;

  /// Outcomes the fleet supervisor marked degraded (never executed).
  /// A subset of failed_count().
  [[nodiscard]] std::size_t degraded_count() const;

  /// Fastest outcome that compares equal to the baseline, optionally
  /// restricted to one compiler (by name).
  [[nodiscard]] const CompilationOutcome* fastest_equal(
      const std::string& compiler_name = "") const;

  /// Fastest outcome exhibiting variability (any compiler).
  [[nodiscard]] const CompilationOutcome* fastest_variable() const;

  /// min / median / max of the nonzero variabilities.
  struct VariabilityStats {
    long double min = 0.0L, median = 0.0L, max = 0.0L;
  };
  [[nodiscard]] std::optional<VariabilityStats> variability_stats() const;
};

/// Thrown when an anchor run (baseline or speed reference) fails: without
/// it no outcome can be classified, so the study cannot proceed.
class StudyAbort : public std::runtime_error {
 public:
  explicit StudyAbort(const std::string& what) : std::runtime_error(what) {}
};

struct ExploreOptions {
  /// Per-item retry budget (bounded, deterministic; see RetryPolicy).
  RetryPolicy retry;

  /// true (default): contain per-item failures in their outcome slots.
  /// false: legacy behavior -- rethrow the lowest-index failure after the
  /// space completes (the ThreadPool contract).
  bool keep_going = true;

  /// Checkpoint target: when non-null, outcomes are recorded into the
  /// database after every completed batch, so a killed study loses at
  /// most one batch.  The injector's kill site (FLIT_FAULTS=kill:N) fires
  /// once the database has recorded N checkpoints, however many explore()
  /// calls recorded them.  Must outlive the explore() call.
  ResultsDb* db = nullptr;

  /// With `db`: skip claimed items whose (test, compilation) row is
  /// already recorded (including quarantined rows -- failures are not
  /// re-run), prefilling their outcomes from the database.
  bool resume = false;

  /// Rows per incremental checkpoint when `db` is set (0 = one final
  /// checkpoint).  Ignored without a database.
  std::size_t checkpoint_batch = 32;

  /// Telemetry stamping only -- strictly off the result path: the shard
  /// that owns this explore call.
  int obs_shard = 0;

  /// The claim: positions into the space, run and returned in this order;
  /// empty claims every position.  Item k runs space[indices[k]] and its
  /// trace events are stamped with indices[k], the item's global
  /// identity, however the sharded engine or the service cut the space
  /// (fault-injection identity is the "test|triple" string, which no cut
  /// can change).  explore() throws std::invalid_argument for a position
  /// outside the space.
  std::span<const std::size_t> indices{};
};

class SpaceExplorer {
 public:
  /// `baseline` is the trusted compilation results are compared against;
  /// `speed_reference` is the compilation speedups are relative to
  /// (g++ -O0 and g++ -O2 respectively in the MFEM study).  `jobs` is the
  /// number of parallel execution lanes explore() uses (1 = serial);
  /// `cache`, when non-null, replaces the explorer's internal compilation
  /// cache (e.g. to share one cache across an explorer and Bisect drivers)
  /// and must outlive the explorer.  `memo`, when non-null, likewise
  /// replaces the internal execution memo (e.g. one memo for every
  /// request of the study service); it must serve only explorers and
  /// drivers of `model`, and must outlive the explorer.
  SpaceExplorer(const fpsem::CodeModel* model,
                toolchain::Compilation baseline,
                toolchain::Compilation speed_reference, unsigned jobs = 1,
                toolchain::CompilationCache* cache = nullptr,
                ProbeMemo* memo = nullptr);

  /// Runs `test` under each compilation of `space` that `opts.indices`
  /// claims (every one by default) on `jobs()` lanes.  Whole-program
  /// builds: all files under the compilation, linked by its compiler.
  /// Compilations equal to the baseline or the speed reference reuse
  /// those runs instead of re-executing.  Outcomes are merged in claim
  /// order: the result is bitwise-identical at any jobs count, with or
  /// without faults, retries, or a resume in the middle.
  ///
  /// Per-item failures are contained per `opts.keep_going`; anchor
  /// failures throw StudyAbort.
  [[nodiscard]] StudyResult explore(const TestBase& test,
                                    std::span<const toolchain::Compilation>
                                        space,
                                    const ExploreOptions& opts) const;

  [[nodiscard]] StudyResult explore(
      const TestBase& test,
      std::span<const toolchain::Compilation> space) const {
    return explore(test, space, ExploreOptions{});
  }

  void set_jobs(unsigned jobs) { jobs_ = jobs >= 1 ? jobs : 1; }
  [[nodiscard]] unsigned jobs() const { return jobs_; }

  /// The compilation cache explore() compiles through (internal unless one
  /// was supplied at construction).
  [[nodiscard]] const toolchain::CompilationCache& cache() const {
    return *cache_;
  }

  /// The execution memo whole-program runs go through (internal unless
  /// one was supplied at construction).  Its stats are real runs
  /// (entries) and memo hits: scheduling-independent counts, yet kept off
  /// every byte-compared output.
  [[nodiscard]] const ProbeMemo& memo() const { return *memo_; }

 private:
  /// Runs one whole-program compilation of `test`, through the execution
  /// memo unless the fault injector is armed.  Throws ExecutionCrash when
  /// the executable crashes (on a hit too).
  [[nodiscard]] RunOutput run_whole_program(
      const TestBase& test, const toolchain::Compilation& c) const;

  /// Runs an anchor compilation with the retry budget; throws StudyAbort
  /// when every attempt fails.
  [[nodiscard]] RunOutput run_anchor(const TestBase& test,
                                     const toolchain::Compilation& c,
                                     const RetryPolicy& retry,
                                     const char* role) const;

  /// Compiles, links and runs `c` with its build/link/run spans (the
  /// memo's miss path, and the whole path while faults are armed).
  /// `group` is CompilationCache::semantics_group(c).
  [[nodiscard]] RunOutput build_link_run(const TestBase& test,
                                         const toolchain::Compilation& c,
                                         std::uint64_t group) const;

  const fpsem::CodeModel* model_;
  toolchain::Compilation baseline_;
  toolchain::Compilation speed_reference_;

  /// Anchor-run memo for the last explored test.  Runs are deterministic,
  /// so reusing an anchor run is observationally identical to re-running
  /// it; the memo makes repeated explore() calls against the same test --
  /// the work-stealing engine issues one per claim -- pay the
  /// two anchor runs once per explorer instead of once per call.  Accessed
  /// only from the thread driving explore() (item lanes never touch it).
  struct AnchorMemo {
    std::string test_name;
    RunOutput base;
    RunOutput ref;
  };
  mutable std::optional<AnchorMemo> anchor_memo_;

  mutable toolchain::CompilationCache own_cache_;
  toolchain::CompilationCache* cache_;  ///< own_cache_ or the external one
  mutable ProbeMemo own_memo_;
  ProbeMemo* memo_;  ///< own_memo_ or the external one
  toolchain::BuildSystem build_;
  toolchain::Linker linker_;
  Runner runner_;
  unsigned jobs_;
};

}  // namespace flit::core
