#pragma once

// The execution memo: one single-flight cache of program runs, shared by
// the bisect campaigns (the blame-dedup driver of docs/blame-dedup.md) and
// the study engine.  Across the triples of one study the File and Symbol
// Bisect searches keep re-producing the *same linked executable* -- the
// same winning object subsets recur across every -O3 variant that shares a
// blame site -- and the derivation rules collapse the 244 whole-program
// compilations a study runs per test onto 78 distinct executables, so
// most runs are pure repeats.  The memo answers such runs from cache.
//
// Three key kinds, each led by its own tag byte so a key of one kind
// never equals a key of another.  One serializer writes the content and
// scoped keys:
//
//  * Content key (key_of, after link).  The linked executable's full
//    content: the test name plus every function's FnBinding, crash
//    verdict and injection provenance, not the compilation triple or its
//    semantics fingerprint.  Two triples may share a fingerprint yet
//    crash differently (the linker's hazard predicates hash raw
//    compilation strings), but two probes with equal content keys are
//    byte-equal binaries under the same deterministic runner.  About
//    2.4 KB per key on the 112-function link set.
//
//  * Scoped key (key_of_scoped, after link; bisect probes).  The same
//    fields for only the functions of the test's *scope*, plus the crash
//    verdict.  A test's scope is the set of functions its *scout* opens:
//    one run of the test under the strict, unit-cost map, made the first
//    time the memo meets the test's name (scout runs are not probes).
//    An MFEM example opens 1 to 20 of the 112 functions, so most of a
//    probe's bindings cannot change its run.  Linking still happens every
//    probe (it produces the key); only the run is skipped.
//
//  * Build key (key_of_build, before compile; study items).  The test
//    name, CompilationCache::semantics_group(c) and
//    link_step_fast_libm(c.compiler).  It names the executable of the
//    explorer's whole-program build: every file compiled under `c`
//    (non-fPIC, not injected) and linked by c's own compiler.  On such a
//    uniform link the build key determines the content key:
//      - equal fingerprints imply equal per-file bindings (the compile
//        cache's invariant);
//      - the link-step libm substitution is the only other input to the
//        executable's semantics map;
//      - neither run-time hazard can fire: the ABI hazard needs an Intel
//        object next to a GCC/Clang object, and the symbol-mix hazard
//        needs two copies of one file.
//    So a hit skips compile and link as well as the run.  The refinement
//    is pinned over the whole study space and the full link set by
//    tests/core/test_memo_keys.cpp.  About 20 bytes per key.
//
// Why a scoped answer is exact.  Without a hook a run reads its
// executable through two channels only: the crash verdict, and the
// binding of each function it opens an env for (EvalContext::fn is the
// map's only reader).  Every scoped run records the functions it opens.
// If executable E agrees with a stored E0 on the crash verdict and on
// every function E0's run opened, E's run is E0's run step for step: the
// first function outside that set E opened, E0 would have opened at the
// same point.  So a run whose opened set lies inside its test's scope S
// is stored under its scoped key, and a later probe with that key is
// answered exactly.  A run that opens a function outside S *escapes*:
// its answer goes back to its own prober, nothing is stored, and the
// claim is released.  Whether a run escapes depends only on its scoped
// key (two executables that agree on S run identically until the first
// call outside S), so every prober of an escaping key runs it itself,
// and real runs = stored entries + escaping runs at any schedule.  An id
// the scout did not open is outside the scope, including ids registered
// after the scout ran; the scope only decides what is keyed and what is
// stored, never what an answer is.  A scout that throws keeps the reach
// it recorded before the throw.
//
// Keys are never hashed: a content or scoped key is the serialized
// executable (or its scoped part), and a build key holds the 64-bit
// semantics group itself -- the fingerprint the compile cache already
// keys its objects by, so the memo trusts it no further than the cache
// does.  Keys assume one CodeModel: a memo must serve only drivers and
// explorers of a single model.  Its size is bounded by the distinct
// executables it sees: at most (tests x distinct build keys) study
// entries, each holding one RunOutput (about 1 KB for an MFEM example).
//
// Single flight: when concurrent probes miss on one key, the first
// prober claims it; later ones block until it is released and are
// answered from its entry, so real executions equal the number of
// distinct stored keys (plus escaping runs) at any concurrency.  The
// claim is released on every exit path: together with the store, without
// one for an escaping run, or before an exception from the run
// propagates; in the last two cases one waiter claims the key and runs
// it.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/runner.h"
#include "toolchain/linker.h"

namespace flit::core {

/// Thread-safe run-answer cache shared by many concurrent BisectDrivers
/// (wire it through BisectConfig::memo) and SpaceExplorers (the
/// constructor's `memo` argument).  Must outlive every user.
class ProbeMemo {
 public:
  /// One memoized probe answer: either the run's output or the
  /// ExecutionCrash it raised.
  struct Entry {
    bool crashed = false;
    std::string crash_reason;  ///< valid when crashed
    RunOutput output;          ///< valid when !crashed
  };

  struct Stats {
    std::uint64_t probes = 0;   ///< probe() and probe_scoped() calls
    std::uint64_t hits = 0;     ///< of which answered from cache
    std::uint64_t entries = 0;  ///< answers stored (real runs, escapes aside)
    std::uint64_t escaped = 0;  ///< scoped runs that left their scope
    std::uint64_t scouts = 0;   ///< scout runs (one per test name)
  };

  /// A probe() result: the entry, and whether it came from the memo
  /// (stored earlier, or by the concurrent prober this call waited for)
  /// rather than from this call's own run.
  struct Answer {
    Entry entry;
    bool hit = false;
  };

  /// Content key of linked executable `exe` under test `test_name`.
  /// Equal keys imply byte-equal binaries (collision-free by
  /// construction: the key *is* the serialized content).
  [[nodiscard]] static std::string key_of(const std::string& test_name,
                                          const toolchain::Executable& exe);

  /// Scoped key of `exe` under test `test_name` whose scope is `scope`
  /// (indexed by FunctionId; an id past its end is outside): key_of's
  /// fields for the functions of the scope only, then the crash verdict.
  /// Never equal to a key_of() or key_of_build() key.
  [[nodiscard]] static std::string key_of_scoped(
      const std::string& test_name, const toolchain::Executable& exe,
      const std::vector<bool>& scope);

  /// Build key of the uniform whole-program executable of `c` (every
  /// file compiled under `c`, non-fPIC and not injected, linked by
  /// c.compiler) under test `test_name`.  Equal build keys imply equal
  /// content keys of those executables (see the header comment); never
  /// equal to any key_of() key.
  [[nodiscard]] static std::string key_of_build(
      const std::string& test_name, const toolchain::Compilation& c);
  /// The same key from `group`, which must equal
  /// CompilationCache::semantics_group(c) (a caller that also builds `c`
  /// computes it once).
  [[nodiscard]] static std::string key_of_build(
      const std::string& test_name, const toolchain::Compilation& c,
      std::uint64_t group);

  /// Single-flight probe: answers `key` from the memo, waiting for an
  /// in-flight prober of the same key; otherwise claims it, calls `run`
  /// (which reports a crash in the Entry instead of throwing) and stores
  /// the result.  Counts a probe, and a hit unless `run` was called.
  /// Exceptions from `run` propagate after the claim is released.
  [[nodiscard]] Answer probe(const std::string& key,
                             const std::function<Entry()>& run);

  /// The bisect probe: answers `test` run by `runner` in `exe` (a crash
  /// reported in the Entry), single-flight under the scoped key.  Scouts
  /// `test` first if the memo has not met its name.  A run that opens a
  /// function outside the scope is answered but not stored.
  [[nodiscard]] Answer probe_scoped(const TestBase& test,
                                    const Runner& runner,
                                    const toolchain::Executable& exe);

  [[nodiscard]] Stats stats() const;

 private:
  /// probe()'s single flight: `run` sets its flag to false when its
  /// answer must not be stored.
  [[nodiscard]] Answer claim(const std::string& key,
                             const std::function<Entry(bool& store)>& run);

  /// Drops the claim on `key`, first storing `entry` if non-null and
  /// counting an escaped run if `escaped`, and wakes the probers waiting
  /// on it.
  void release(const std::string& key, const Entry* entry,
               bool escaped = false);

  /// The scope of `test`: the functions its scout run opened, under a
  /// strict map of `n_functions` functions on the first call per name.
  [[nodiscard]] const std::vector<bool>& scope_of(const TestBase& test,
                                                  const Runner& runner,
                                                  std::size_t n_functions);

  mutable std::mutex mu_;
  std::condition_variable landed_;  ///< an in-flight claim was released
  std::unordered_map<std::string, Entry> map_;
  std::unordered_set<std::string> in_flight_;  ///< claimed, not stored
  std::uint64_t probes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t escaped_ = 0;

  mutable std::mutex scout_mu_;
  /// Test name -> scope; nodes never move, so scope_of's references last.
  std::map<std::string, std::vector<bool>> scopes_;
  std::uint64_t scouts_ = 0;
};

}  // namespace flit::core
