#pragma once

// The simulated build system: compiles model source files into object
// files under a compilation triple, and provides the convenience "compile
// everything" entries the FLiT runner and Bisect drivers use.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fpsem/code_model.h"
#include "toolchain/compile_cache.h"
#include "toolchain/object.h"

namespace flit::toolchain {

class BuildSystem {
 public:
  /// `cache`, when non-null, interns per-file objects across semantically
  /// equivalent compilations; it may be shared with other BuildSystems and
  /// with other threads (CompilationCache is thread-safe).  The cache must
  /// outlive this BuildSystem.
  explicit BuildSystem(const fpsem::CodeModel* model,
                       CompilationCache* cache = nullptr)
      : model_(model), cache_(cache) {}

  /// Compiles one source file of the model under `c` into an owned copy
  /// stamped with `c`.  `fpic` models -fPIC (Symbol Bisect recompiles
  /// with it); `injected` marks the object as coming from the
  /// instrumented injection build.
  [[nodiscard]] ObjectFile compile(const std::string& file,
                                   const Compilation& c, bool fpic = false,
                                   bool injected = false) const;

  /// Compiles every file of the model under `c`, in model file order, as
  /// owned copies stamped with `c` (what objcopy and mixed link lines
  /// need).
  [[nodiscard]] std::vector<ObjectFile> compile_all(
      const Compilation& c, bool fpic = false, bool injected = false) const;

  /// The interned objects of every model file under `c`, in model file
  /// order: one fingerprint, one cache lookup for the set and a pointer
  /// per file, with no copy.  An object's `comp` is whichever equivalent
  /// compilation built it first, so link the line with
  /// Linker::link(line, c).  Tallies and fault rolls match compile_all's.
  /// `group`, when given, must be CompilationCache::semantics_group(c):
  /// a caller that already computed it (the execution memo's build key)
  /// passes it instead of having it computed again.
  [[nodiscard]] std::vector<CompilationCache::ObjectPtr> intern_all(
      const Compilation& c, bool fpic = false, bool injected = false,
      std::optional<std::uint64_t> group = std::nullopt) const;

  [[nodiscard]] const fpsem::CodeModel& model() const { return *model_; }

  [[nodiscard]] CompilationCache* cache() const { return cache_; }

 private:
  /// Interns model files [first, first + count) under `c`, whose
  /// semantics group is `group` (built fresh when there is no cache, which
  /// ignores `group`).
  [[nodiscard]] std::vector<CompilationCache::ObjectPtr> intern_files(
      const Compilation& c, bool fpic, bool injected, std::uint64_t group,
      std::size_t first, std::size_t count) const;

  [[nodiscard]] ObjectFile compile_uncached(std::size_t file,
                                            const Compilation& c, bool fpic,
                                            bool injected) const;

  const fpsem::CodeModel* model_;
  CompilationCache* cache_;
};

}  // namespace flit::toolchain
