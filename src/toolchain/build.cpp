#include "toolchain/build.h"

#include <memory>
#include <optional>
#include <stdexcept>

#include "core/faults.h"
#include "toolchain/semantics_rules.h"

namespace flit::toolchain {

namespace {

/// Rolls the compile fault of one file.  The roll precedes the cache
/// lookup on purpose: an injected compiler crash must not depend on
/// whether a semantically equivalent object happens to be cached (cache
/// state varies with scheduling; the fault decision must not).
void roll_compile_fault(const std::string& file, const Compilation& c,
                        bool fpic, bool injected) {
  core::FaultInjector::global().maybe_fail(
      core::FaultSite::Compile, file + "|" + c.str() + (fpic ? "|fpic" : "") +
                                    (injected ? "|injected" : ""));
}

}  // namespace

ObjectFile BuildSystem::compile(const std::string& file, const Compilation& c,
                                bool fpic, bool injected) const {
  if (core::FaultInjector::global().any_armed()) {
    roll_compile_fault(file, c, fpic, injected);
  }
  const std::optional<std::size_t> f = model_->file_index(file);
  if (!f.has_value()) {
    throw std::invalid_argument("unknown source file: " + file);
  }
  if (cache_ == nullptr) return compile_uncached(*f, c, fpic, injected);
  ObjectFile obj = *intern_files(c, fpic, injected,
                                 CompilationCache::semantics_group(c), *f, 1)
                        .front();
  obj.comp = c;  // the hazard predicates of mixed lines hash the raw triple
  return obj;
}

std::vector<ObjectFile> BuildSystem::compile_all(const Compilation& c,
                                                 bool fpic,
                                                 bool injected) const {
  std::vector<ObjectFile> out;
  out.reserve(model_->files().size());
  if (cache_ == nullptr) {
    // Nothing is shared: build each owned object directly, uncopied.
    for (const std::string& f : model_->files()) {
      out.push_back(compile(f, c, fpic, injected));
    }
    return out;
  }
  for (const CompilationCache::ObjectPtr& o : intern_all(c, fpic, injected)) {
    out.push_back(*o);
    out.back().comp = c;
  }
  return out;
}

std::vector<CompilationCache::ObjectPtr> BuildSystem::intern_all(
    const Compilation& c, bool fpic, bool injected,
    std::optional<std::uint64_t> group) const {
  const std::vector<std::string>& files = model_->files();
  // Only a cache lookup reads the group: an uncached build skips it.
  const std::uint64_t g =
      cache_ == nullptr ? 0
      : group           ? *group
                        : CompilationCache::semantics_group(c);
  if (!core::FaultInjector::global().any_armed()) {
    return intern_files(c, fpic, injected, g, 0, files.size());
  }
  // Each file rolls its fault right before its own lookup, so a faulted
  // build leaves the tallies where per-file compiles would.
  std::vector<CompilationCache::ObjectPtr> out;
  out.reserve(files.size());
  for (std::size_t f = 0; f < files.size(); ++f) {
    roll_compile_fault(files[f], c, fpic, injected);
    out.push_back(intern_files(c, fpic, injected, g, f, 1).front());
  }
  return out;
}

std::vector<CompilationCache::ObjectPtr> BuildSystem::intern_files(
    const Compilation& c, bool fpic, bool injected, std::uint64_t group,
    std::size_t first, std::size_t count) const {
  const auto build = [&](std::size_t file) {
    return compile_uncached(file, c, fpic, injected);
  };
  if (cache_ == nullptr) {
    std::vector<CompilationCache::ObjectPtr> out;
    out.reserve(count);
    for (std::size_t f = first; f < first + count; ++f) {
      out.push_back(std::make_shared<const ObjectFile>(build(f)));
    }
    return out;
  }
  const CompilationCache::SetKey key{
      model_, fpic ? CompilationCache::fingerprint(c, true) : group, fpic,
      injected};
  return cache_->intern(key, group, first, count, build);
}

ObjectFile BuildSystem::compile_uncached(std::size_t file,
                                         const Compilation& c, bool fpic,
                                         bool injected) const {
  // The TU-level derivations are per object; each function's binding
  // only adjusts them.
  const fpsem::FpSemantics tu_sem = derive_semantics(c);
  const fpsem::CostFactors tu_cost = derive_cost(c);
  const std::vector<fpsem::FunctionId>& fns = model_->functions_at(file);
  ObjectFile obj;
  obj.source_file = model_->files()[file];
  obj.comp = c;
  obj.fpic = fpic;
  obj.injected = injected;
  for (fpsem::FunctionId id : fns) {
    const fpsem::FunctionInfo& fi = model_->info(id);
    obj.bindings.emplace(id, derive_binding(c, fi, fpic, tu_sem, tu_cost));
    if (fi.exported) {
      obj.symbols.push_back(SymbolDef{fi.name, id, /*strong=*/true});
    } else {
      obj.internal_fns.push_back(id);
    }
  }
  return obj;
}

}  // namespace flit::toolchain
