#pragma once

// The simulated link step.
//
// Resolves symbols across object files using real linker rules (two strong
// definitions clash; a strong definition beats any number of weak ones;
// otherwise the first weak definition in link order wins), produces the
// executable's FunctionId -> FnBinding map, applies the link-step fast-libm
// substitution of vendor link drivers, and models the two run-time hazards
// the paper encountered: ABI-incompatible icpc/g++ mixes that segfault, and
// fragile strong/weak interposition in Symbol Bisect mixes.

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fpsem/env.h"
#include "toolchain/object.h"

namespace flit::toolchain {

/// Thrown for link-time errors (duplicate strong symbols, unresolved
/// symbols, files missing from the link line).
class LinkError : public std::runtime_error {
 public:
  enum class Kind { DuplicateStrong, Unresolved, MissingFile };

  LinkError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  [[nodiscard]] Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// A linked image: the per-function semantics map plus run-time hazard
/// state.  `crashes` means executing this binary terminates with a signal
/// (the paper's mixed-executable segfaults); callers must check it before
/// interpreting results.
struct Executable {
  fpsem::SemanticsMap map;
  bool crashes = false;
  std::string crash_reason;

  /// Functions whose winning definition came from an injection-
  /// instrumented object (see ObjectFile::injected).
  std::vector<bool> from_injected;
};

class Linker {
 public:
  explicit Linker(const fpsem::CodeModel* model) : model_(model) {}

  /// Links the borrowed objects of link line `objects` into an executable
  /// with link driver `link_compiler`.  Every source file of the code
  /// model must be covered by at least one object.  Throws LinkError on
  /// link-time failures.  Symbols resolve by FunctionId (names are unique
  /// in a CodeModel, so SymbolDef::fn identifies a symbol).  The hazard
  /// predicates read each object's own `comp`.
  [[nodiscard]] Executable link(std::span<const ObjectFile* const> objects,
                                const CompilerSpec& link_compiler) const;

  /// Same, over a contiguous array of objects (forwards through a
  /// pointer line).
  [[nodiscard]] Executable link(std::span<const ObjectFile> objects,
                                const CompilerSpec& link_compiler) const;

  /// Links a line whose every object was requested under `comp`, with
  /// `comp`'s compiler as link driver -- the line of interned objects
  /// BuildSystem::intern_all returns.  The hazard predicates read `comp`,
  /// never an object's stored `comp`, which names whichever equivalent
  /// compilation built the shared object first.
  [[nodiscard]] Executable link(std::span<const ObjectFile* const> objects,
                                const Compilation& comp) const;

 private:
  /// The shared body: `uniform`, when non-null, is every object's
  /// compilation for the hazard predicates; otherwise each object's own.
  [[nodiscard]] Executable link_line(
      std::span<const ObjectFile* const> objects,
      const CompilerSpec& link_compiler, const Compilation* uniform) const;

  const fpsem::CodeModel* model_;
};

}  // namespace flit::toolchain
