#pragma once

// Object files of the simulated toolchain.
//
// An ObjectFile is one translation unit compiled under one compilation
// triple: it defines strong (or, after objcopy, weak) symbols for the
// file's exported functions and carries the FnBinding each of the file's
// functions (exported and internal) executes with.
//
// Objects come in two kinds.  The CompilationCache interns one immutable
// object per (file, fingerprint, fpic, injected) and hands it out as a
// `shared_ptr<const ObjectFile>` to every compilation with that
// fingerprint; BuildSystem::compile and compile_all hand out owned
// copies, which objcopy may rewrite and mixed link lines combine.

#include <string>
#include <unordered_map>
#include <vector>

#include "fpsem/code_model.h"
#include "fpsem/semantics.h"
#include "toolchain/compiler.h"

namespace flit::toolchain {

struct SymbolDef {
  std::string name;
  fpsem::FunctionId fn = fpsem::kInvalidFunction;
  bool strong = true;
};

struct ObjectFile {
  std::string source_file;

  /// An owned copy carries the compilation it was requested under; the
  /// linker's hazard predicates hash this raw triple on mixed lines.  An
  /// interned object carries the compilation that first built it, which
  /// can belong to another compiler family than a later requester's, so
  /// interned lines are linked with the requested compilation instead
  /// (Linker::link(line, comp)).
  Compilation comp;
  bool fpic = false;

  /// True for objects produced by the injection framework's instrumented
  /// build; functions whose winning copy comes from such an object carry
  /// the injected instruction.
  bool injected = false;

  /// Exported symbols defined by this object.
  std::vector<SymbolDef> symbols;

  /// Internal (static / always-inlined) functions of the file, reachable
  /// only through their host symbols.
  std::vector<fpsem::FunctionId> internal_fns;

  /// Compiled behaviour of every function in the file.
  std::unordered_map<fpsem::FunctionId, fpsem::FnBinding> bindings;
};

}  // namespace flit::toolchain
