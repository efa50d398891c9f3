#include "toolchain/linker.h"

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/faults.h"
#include "toolchain/semantics_rules.h"

namespace flit::toolchain {

namespace {

/// "No object": an unresolved symbol, or a source file outside the model.
constexpr std::size_t kNone = ~std::size_t{0};

}  // namespace

Executable Linker::link(std::span<const ObjectFile> objects,
                        const CompilerSpec& link_compiler) const {
  std::vector<const ObjectFile*> line;
  line.reserve(objects.size());
  for (const ObjectFile& o : objects) line.push_back(&o);
  return link(line, link_compiler);
}

Executable Linker::link(std::span<const ObjectFile* const> objects,
                        const CompilerSpec& link_compiler) const {
  return link_line(objects, link_compiler, nullptr);
}

Executable Linker::link(std::span<const ObjectFile* const> objects,
                        const Compilation& comp) const {
  return link_line(objects, comp.compiler, &comp);
}

Executable Linker::link_line(std::span<const ObjectFile* const> objects,
                             const CompilerSpec& link_compiler,
                             const Compilation* uniform) const {
  if (core::FaultInjector::global().any_armed()) {
    core::FaultInjector::global().maybe_fail(
        core::FaultSite::Link, "link|" + link_compiler.name);
  }
  const std::size_t n_fns = model_->function_count();
  const std::vector<std::string>& files = model_->files();
  Executable exe;
  exe.map = fpsem::SemanticsMap(n_fns);
  exe.from_injected.assign(n_fns, false);

  // --- coverage check: every model file must appear on the link line ---
  // file_of[i] is the model file index of objects[i] (kNone outside it).
  std::vector<std::size_t> file_of(objects.size(), kNone);
  std::vector<char> covered(files.size(), 0);
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (const std::optional<std::size_t> f =
            model_->file_index(objects[i]->source_file)) {
      file_of[i] = *f;
      covered[*f] = 1;
    }
  }
  for (std::size_t f = 0; f < files.size(); ++f) {
    if (covered[f] == 0) {
      throw LinkError(LinkError::Kind::MissingFile,
                      "no object file provides " + files[f]);
    }
  }

  // --- symbol resolution -----------------------------------------------
  // winner[fn] = index of the object whose definition is kept: a strong
  // definition always wins, otherwise the first weak one in link order.
  std::vector<std::size_t> winner(n_fns, kNone);
  {
    std::vector<char> strong(n_fns, 0);
    for (std::size_t i = 0; i < objects.size(); ++i) {
      for (const SymbolDef& s : objects[i]->symbols) {
        if (s.strong) {
          if (strong.at(s.fn) != 0) {
            throw LinkError(LinkError::Kind::DuplicateStrong,
                            "duplicate strong symbol " + s.name);
          }
          strong[s.fn] = 1;
          winner[s.fn] = i;
        } else if (winner.at(s.fn) == kNone) {
          winner[s.fn] = i;
        }
      }
    }
  }

  // Every exported function of the model must be resolved.
  for (std::size_t id = 0; id < n_fns; ++id) {
    const auto& fi = model_->info(static_cast<fpsem::FunctionId>(id));
    if (fi.exported && winner[id] == kNone) {
      throw LinkError(LinkError::Kind::Unresolved,
                      "unresolved symbol " + fi.name);
    }
  }

  // --- bind resolved symbols to their winning object --------------------
  for (std::size_t id = 0; id < n_fns; ++id) {
    if (winner[id] == kNone) continue;
    const auto fid = static_cast<fpsem::FunctionId>(id);
    const ObjectFile& o = *objects[winner[id]];
    exe.map.binding(fid) = o.bindings.at(fid);
    exe.from_injected[fid] = o.injected;
  }

  // --- bind internal functions through their host symbol ----------------
  for (std::size_t id = 0; id < n_fns; ++id) {
    const auto fid = static_cast<fpsem::FunctionId>(id);
    const auto& fi = model_->info(fid);
    if (fi.exported) continue;
    const ObjectFile* home = nullptr;
    const fpsem::FnBinding* binding = nullptr;
    if (const fpsem::FunctionId host = model_->host_of(fid);
        host != fpsem::kInvalidFunction && winner[host] != kNone) {
      const ObjectFile& w = *objects[winner[host]];
      if (const auto it = w.bindings.find(fid); it != w.bindings.end()) {
        home = &w;  // host's copy of the file
        binding = &it->second;
      }
    }
    if (home == nullptr) {
      // Host symbol lives elsewhere; take the first object of our file.
      for (const ObjectFile* o : objects) {
        if (const auto it = o->bindings.find(fid); it != o->bindings.end()) {
          home = o;
          binding = &it->second;
          break;
        }
      }
    }
    if (home == nullptr) {
      throw LinkError(LinkError::Kind::Unresolved,
                      "internal function " + fi.name + " not linked");
    }
    exe.map.binding(fid) = *binding;
    exe.from_injected[fid] = home->injected;
  }

  // --- link-step libm substitution --------------------------------------
  if (link_step_fast_libm(link_compiler)) {
    for (std::size_t id = 0; id < n_fns; ++id) {
      const auto fid = static_cast<fpsem::FunctionId>(id);
      if (model_->info(fid).uses_libm) {
        exe.map.binding(fid).sem.fast_libm = true;
      }
    }
  }

  // --- run-time hazards --------------------------------------------------
  // The compilation each object was requested under.
  const auto comp_of = [uniform](const ObjectFile& o) -> const Compilation& {
    return uniform != nullptr ? *uniform : o.comp;
  };
  // (a) ABI mixing: an Intel-compiled object linked next to GCC/Clang
  //     objects segfaults when the (file, compilation) pair is toxic.
  bool has_gnu = false;
  for (const ObjectFile* o : objects) {
    const CompilerFamily family = comp_of(*o).compiler.family;
    if (family == CompilerFamily::GCC || family == CompilerFamily::Clang) {
      has_gnu = true;
    }
  }
  if (has_gnu) {
    for (const ObjectFile* o : objects) {
      if (abi_toxic(o->source_file, comp_of(*o))) {
        exe.crashes = true;
        exe.crash_reason = "SIGSEGV: ABI-incompatible object " +
                           o->source_file + " [" + comp_of(*o).str() + "]";
        break;
      }
    }
  }
  // (b) Symbol Bisect mixes: two copies of one file under different
  //     compilations in one image.  Each object is checked against the
  //     first object of its source file.
  if (!exe.crashes) {
    std::vector<const ObjectFile*> first_of_file(files.size(), nullptr);
    for (std::size_t i = 0; i < objects.size(); ++i) {
      const ObjectFile& o = *objects[i];
      const ObjectFile* first = nullptr;
      if (file_of[i] != kNone) {
        const ObjectFile*& slot = first_of_file[file_of[i]];
        if (slot == nullptr) slot = &o;
        first = slot;
      } else {
        // A source file outside the model: scan the earlier objects.
        for (std::size_t j = 0; first == nullptr; ++j) {
          if (objects[j]->source_file == o.source_file) first = objects[j];
        }
      }
      if (first != &o && !(comp_of(*first) == comp_of(o)) &&
          symbol_mix_toxic(o.source_file, comp_of(*first), comp_of(o))) {
        exe.crashes = true;
        exe.crash_reason =
            "SIGSEGV: fragile strong/weak interposition in " + o.source_file;
        break;
      }
    }
  }

  return exe;
}

}  // namespace flit::toolchain
