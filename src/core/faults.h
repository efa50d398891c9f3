#pragma once

// Deterministic fault injection for the study engine.
//
// The paper's evaluation survives failures rather than avoiding them
// (Table 2 reports bisection *failure rates*), so the engine has to be
// testable under faults it did not cause itself.  FaultInjector provides
// seed-driven injection sites at the three places a real study dies --
// the compiler invocation, the link step, and the program run -- plus a
// checkpoint kill switch used by the kill-then-resume smoke test, and two
// rank-level sites consumed by the fleet supervisor (src/dist): `shard`
// (a rank's explore lane throws mid-claim and the rank dies) and `stall`
// (a rank hangs on a claim and is detected at a modeled-cycle deadline on
// the supervisor's virtual clock -- no wall clock anywhere).
//
// Determinism is the whole point: a fault decision is a pure hash of
// (site, seed, trial context, operation key, attempt number).  The trial
// context and attempt are thread-local state installed by the retrying
// caller (SpaceExplorer sets "test|triple", BisectDriver sets a per-probe
// context), so the same study produces the same faults at any --jobs
// count and under any scheduling -- and a retried attempt re-rolls the
// dice deterministically, which is what makes "transient" faults
// recoverable without wall-clock backoff.  Because the trial context is
// the study item's *global* identity -- the (test, triple) pair, never a
// shard-local index -- the decision is also invariant under the sharded
// engine's partition (src/dist): the same study faults the same items at
// any --shards count.
//
// Configuration:
//   * programmatic: FaultInjector::global().configure("run:0.2:42");
//   * environment:  FLIT_FAULTS=site:rate[:seed][,site:rate[:seed]...]
//     where site is compile|link|run|kill|shard|stall, rate is a plain
//     decimal probability in [0, 1] (for kill: an unsigned integer, the
//     checkpoint count to die at), and seed is an optional unsigned
//     64-bit integer (default 0).  A site may appear at most once;
//     unknown or duplicate sites and out-of-grammar or out-of-range
//     values are rejected with a message naming the offending entry.
//
// This header is deliberately self-contained (standard library only) so
// the toolchain layer can consult the injector without depending on the
// rest of core; faults.cpp is compiled into flit_toolchain for the same
// reason (see src/toolchain/CMakeLists.txt).

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

namespace flit::core {

enum class FaultSite { Compile, Link, Run, Kill, Shard, Stall };

[[nodiscard]] const char* to_string(FaultSite s);

/// Thrown by an armed injector at the Compile and Link sites (the Run
/// site throws ExecutionCrash so existing crash paths treat it as a
/// signal).  Study drivers record it as a build failure.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(FaultSite site, const std::string& what)
      : std::runtime_error(what), site_(site) {}

  [[nodiscard]] FaultSite site() const { return site_; }

 private:
  FaultSite site_;
};

/// Bounded, deterministic retry: a study item is attempted up to
/// `max_attempts` times (>= 1) before it is quarantined.  No wall-clock
/// backoff -- runs are simulated and faults are attempt-seeded, so an
/// immediate retry already re-rolls the transient-fault dice.
struct RetryPolicy {
  int max_attempts = 1;

  [[nodiscard]] int attempts() const {
    return max_attempts < 1 ? 1 : max_attempts;
  }
};

class FaultInjector {
 public:
  /// Arms `site` with failure probability `rate` (clamped to [0, 1], NaN
  /// to 0; for the Kill site, `rate` is the checkpoint count to die at,
  /// at least 1) under `seed`.  Arming is not synchronized against concurrent
  /// decisions: configure before dispatching parallel work.
  void arm(FaultSite site, double rate, std::uint64_t seed = 0);

  /// Disarms every site.
  void disarm();

  [[nodiscard]] bool armed(FaultSite site) const;
  [[nodiscard]] bool any_armed() const;

  /// Parses and applies a FLIT_FAULTS-style spec ("run:0.2:42,link:0.1").
  /// Replaces the current configuration.  Throws std::invalid_argument on
  /// a malformed spec.
  void configure(const std::string& spec);

  /// True when the operation identified by `key` should fail at `site`
  /// under the calling thread's trial scope (context + attempt).  Pure:
  /// same (configuration, scope, key) -> same answer.
  [[nodiscard]] bool should_fail(FaultSite site, const std::string& key) const;

  /// Throws the site-appropriate exception if should_fail(site, key).
  void maybe_fail(FaultSite site, const std::string& key) const;

  /// Kill switch for the checkpoint/resume smoke test: true when the Kill
  /// site is armed and `checkpoints`, the number a database has recorded,
  /// has reached the configured threshold.  The caller is expected to
  /// _Exit.
  [[nodiscard]] bool should_kill(std::size_t checkpoints) const;

  /// The process-global injector, configured once from the FLIT_FAULTS
  /// environment variable on first access.
  static FaultInjector& global();

  /// RAII scope naming the current trial on this thread: `context`
  /// identifies the study item (e.g. "test|triple") and `attempt` its
  /// 0-based retry ordinal.  Scopes nest; the previous scope is restored
  /// on destruction.
  class ScopedTrial {
   public:
    ScopedTrial(std::string context, int attempt);
    ~ScopedTrial();
    ScopedTrial(const ScopedTrial&) = delete;
    ScopedTrial& operator=(const ScopedTrial&) = delete;

   private:
    std::string prev_context_;
    int prev_attempt_;
  };

  [[nodiscard]] static const std::string& current_context();
  [[nodiscard]] static int current_attempt();

 private:
  struct SiteSpec {
    bool armed = false;
    double rate = 0.0;
    std::uint64_t seed = 0;
  };

  [[nodiscard]] SiteSpec site_spec(FaultSite site) const;

  mutable std::mutex mu_;
  std::array<SiteSpec, 6> sites_{};
  // Fast path for the common disarmed case; written under mu_.
  std::atomic<bool> any_armed_{false};
};

}  // namespace flit::core
