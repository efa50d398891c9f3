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
// Two key kinds, each led by its own tag byte so a key of one kind never
// equals a key of the other:
//
//  * Content key (key_of, after link; bisect probes).  The linked
//    executable's full content: the test name plus every function's
//    FnBinding, crash verdict and injection provenance, not the
//    compilation triple or its semantics fingerprint.  Two triples may
//    share a fingerprint yet crash differently (the linker's hazard
//    predicates hash raw compilation strings), but two probes with equal
//    content keys are byte-equal binaries under the same deterministic
//    runner, so the cached answer is exact, not approximate.  Linking
//    still happens every probe (it produces the key); only the run is
//    skipped.  About 2.4 KB per key on the 112-function link set.
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
// Keys are never hashed: a content key is the serialized executable, and
// a build key holds the 64-bit semantics group itself -- the fingerprint
// the compile cache already keys its objects by, so the memo trusts it no
// further than the cache does.  Keys assume one CodeModel: a memo must
// serve only drivers and explorers of a single model.  Its size is
// bounded by the distinct executables it sees: at most (tests x distinct
// build keys) study entries, each holding one RunOutput (about 1 KB for
// an MFEM example).
//
// Single flight: when concurrent probes miss on one key, probe() runs it
// once.  The first prober claims the key; later ones block until its
// entry lands and are answered from it, so real executions equal the
// number of distinct keys at any concurrency.  The claim is released on
// every exit path: together with the store, or before an exception from
// the run propagates, in which case one waiter claims the key and runs it.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

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
    std::uint64_t probes = 0;   ///< probe() calls
    std::uint64_t hits = 0;     ///< of which answered from cache
    std::uint64_t entries = 0;  ///< distinct executables stored (real runs)
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

  /// Build key of the uniform whole-program executable of `c` (every
  /// file compiled under `c`, non-fPIC and not injected, linked by
  /// c.compiler) under test `test_name`.  Equal build keys imply equal
  /// content keys of those executables (see the header comment); never
  /// equal to any key_of() key.
  [[nodiscard]] static std::string key_of_build(
      const std::string& test_name, const toolchain::Compilation& c);

  /// Single-flight probe: answers `key` from the memo, waiting for an
  /// in-flight prober of the same key; otherwise claims it, calls `run`
  /// (which reports a crash in the Entry instead of throwing) and stores
  /// the result.  Counts a probe, and a hit unless `run` was called.
  /// Exceptions from `run` propagate after the claim is released.
  [[nodiscard]] Answer probe(const std::string& key,
                             const std::function<Entry()>& run);

  [[nodiscard]] Stats stats() const;

 private:
  /// Drops probe()'s claim on `key`, first storing `entry` if non-null,
  /// and wakes the probers waiting on it.
  void release(const std::string& key, const Entry* entry);

  mutable std::mutex mu_;
  std::condition_variable landed_;  ///< an in-flight claim was released
  std::unordered_map<std::string, Entry> map_;
  std::unordered_set<std::string> in_flight_;  ///< claimed, not stored
  std::uint64_t probes_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace flit::core
