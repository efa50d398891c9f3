#pragma once

// The study service: a persistent, deterministic multi-tenant front end
// over the study engine.
//
// One-shot CLI runs pay a cold compilation cache per study and exit;
// the service admits a whole stream of StudyRequests, multiplexes them
// over a simulated fleet, and shares a single bounded CompilationCache
// across every tenant -- the throughput shape of the paper's own
// workflow, which is inherently many test x subspace sweeps over one
// toolchain set.
//
// Scheduling is the serial min-virtual-clock fleet emulation the
// distributed engine already trusts (dist/vclock.h): the fleet has
// `shards` lanes, each in-flight study exposes its next checkpoint-batch
// claim, and every step runs one claim of the minimum-clock study on the
// minimum-clock lane.  With `steal` off, studies are pinned round-robin
// to lanes (static tenancy); with it on, any lane takes the globally
// least-served study.  The loop is serial, so the whole schedule -- and
// every per-tenant accounting delta -- is a pure function of the request
// stream and the options.
//
// The hard guarantee (tested in tests/serve): a request's merged study,
// CSV, and converged results database are bitwise-identical to a solo
// one-shot run of the same request, no matter which tenants ran
// alongside it, what the cache budget was, or where eviction landed.
// The argument composes three established properties: (1) each request
// runs on its own SpaceExplorer whose outcomes are index-addressed
// merges of per-claim explore() calls (the work-stealing engine's
// contract); (2) claims of one study are issued in space order, so its
// database rows land in the same insertion order a solo run produces;
// (3) a cache hit hands out a fingerprint-equal interned object, which
// is linked under the requested compilation, and fingerprint equality
// implies binding equality -- so cache contents (shared, evicted, or
// cold) affect cycles, never bytes.
//
// Every request's explorer also runs through one shared execution memo
// (core::ProbeMemo, build keys): a (test, executable) any earlier request
// ran -- a filtered or `limit` request over a full-space one, a
// workflow over its own study -- is answered from memory without
// compiling, linking or running.  Memo answers are exact (probe_memo.h),
// so they too move wall time and cache tallies, never bytes.  The memo
// needs no budget: it holds at most (registered tests x distinct build
// keys of the canonical space) entries -- 19 x 78 of about 1 KB each for
// the MFEM stream.
//
// Incremental results: every executed claim emits a StudyEvent JSON line
// on the owning tenant's stream (plus an admission and a completion
// event), so a tenant watches its study converge instead of waiting for
// the end.  Event lines carry no wall-clock and no cache-dependent
// fields beyond the explicitly-labelled tallies.

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "core/probe_memo.h"
#include "fpsem/code_model.h"
#include "toolchain/compile_cache.h"
#include "toolchain/compiler.h"

namespace flit::serve {

struct StudyRequest;

struct ServeOptions {
  int shards = 1;     ///< fleet lanes studies are multiplexed over
  unsigned jobs = 1;  ///< parallel lanes inside each claim's explore()

  /// Lane policy: true (default) lets any lane take the least-served
  /// in-flight study; false pins each study to lane
  /// (admission ordinal % shards).  Either way the schedule is
  /// deterministic and results are bitwise-identical -- only lane
  /// utilization and cache traffic differ.
  bool steal = true;

  /// Studies in flight at once; further admitted requests queue and
  /// enter as slots free (admission order).  Must be >= 1.
  std::size_t max_inflight = 4;

  /// Items per scheduler claim == rows per durable checkpoint (the
  /// ExploreOptions meaning; one checkpoint ordinal per claim).
  std::size_t checkpoint_batch = 32;

  /// Shared-cache budget in approx_object_bytes (nullopt = unbounded,
  /// 0 = retain nothing).  See CompilationCache::set_budget.
  std::optional<std::uint64_t> cache_budget;

  /// Result/state directory: per-request converged database
  /// (`<id>.tsv`), study CSV (`<id>.csv`), and workflow report
  /// (`<id>.workflow.txt`).  Empty disables persistence (results are
  /// still returned in the ServeReport).
  std::filesystem::path state_dir;

  /// Per-tenant event streams (`<tenant>.jsonl`, append).  Empty
  /// disables file streaming; `event_sink` still fires.
  std::filesystem::path stream_dir;

  /// With `state_dir`: prefill each request from its `<id>.tsv`
  /// checkpoint, re-running only unrecorded rows -- the restart half of
  /// the kill/resume cycle.  Converges to the solo-run bytes.
  bool resume = false;

  /// Per-item fault-tolerance knobs applied inside every claim.
  core::RetryPolicy retry;
  bool keep_going = true;

  /// Observer for every emitted event line (tenant, one JSON object, no
  /// trailing newline).  Fires whether or not `stream_dir` is set.
  std::function<void(const std::string& tenant, const std::string& line)>
      event_sink;
};

/// What one request got: identity, tallies, attributed cache activity,
/// and the merged results.
struct RequestReport {
  std::string id;
  std::string tenant;
  std::string test;
  std::size_t items = 0;  ///< subspace size

  /// True when admission deduplicated this request onto `primary`'s
  /// execution: results are shared (byte-identical by construction) and
  /// the cache delta is attributed to the primary.
  bool deduplicated = false;
  std::string primary;

  std::size_t batches = 0;   ///< claims executed for this request
  std::size_t variable = 0;  ///< study.variable_count()
  std::size_t failed = 0;    ///< study.failed_count()

  /// Shared-cache activity attributed to this request: the snapshot
  /// delta around its claims (the scheduler is serial, so deltas are
  /// exact and sum to the aggregate).  Only items whose executable no
  /// earlier item ran reach the cache: memo hits skip compile.
  toolchain::CacheStats cache;

  core::StudyResult study;    ///< merged, space-ordered outcomes
  std::string csv;            ///< study_csv(study) bytes
  std::string workflow_text;  ///< workflow report (Workflow mode only)
  std::filesystem::path db_path;  ///< converged database (with state_dir)
};

struct ServeReport {
  std::vector<RequestReport> requests;  ///< admission order
  toolchain::CacheStats cache;          ///< aggregate shared-cache stats
  std::uint64_t cache_resident_bytes = 0;
  /// The shared execution memo after the run: entries plus escaped are
  /// real runs, hits the runs it saved (cumulative over the service's
  /// lifetime).
  core::ProbeMemo::Stats memo;
  double fleet_cycles = 0.0;  ///< max lane clock (modeled)
  std::size_t deduplicated = 0;
};

class StudyService {
 public:
  /// `space` is the canonical compilation space requests select their
  /// subspaces from (the 244-point MFEM space in the CLI); `baseline` /
  /// `speed_reference` anchor every request's explorer.  Throws
  /// std::invalid_argument for shards < 1, jobs < 1, max_inflight < 1,
  /// resume without state_dir, or an unwritable state/stream directory.
  StudyService(const fpsem::CodeModel* model,
               toolchain::Compilation baseline,
               toolchain::Compilation speed_reference,
               std::span<const toolchain::Compilation> space,
               ServeOptions opts);

  /// Validates, deduplicates, and runs every request to completion.
  /// Validation is all-or-nothing: an unknown test, an unknown compiler
  /// name, or an empty subspace throws std::invalid_argument naming the
  /// offending request before anything executes.
  [[nodiscard]] ServeReport run(std::span<const StudyRequest> requests);

  [[nodiscard]] const ServeOptions& options() const { return opts_; }

  /// The shared tenant-spanning compilation cache (budget applied).
  [[nodiscard]] const toolchain::CompilationCache& cache() const {
    return cache_;
  }

 private:
  const fpsem::CodeModel* model_;
  toolchain::Compilation baseline_;
  toolchain::Compilation speed_reference_;
  std::vector<toolchain::Compilation> space_;
  ServeOptions opts_;
  toolchain::CompilationCache cache_;
  core::ProbeMemo memo_;  ///< every request's explorer runs through it
};

}  // namespace flit::serve
