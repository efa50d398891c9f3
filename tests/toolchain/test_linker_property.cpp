// Property tests of the linker: randomized strong/weak symbol partitions
// must always bind each exported function to exactly the chosen side, and
// internal functions must always follow their host symbol.  A seeded
// differential test checks both link() overloads against a reference
// resolver keyed by symbol name.

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <unordered_map>

#include <gtest/gtest.h>

#include "fpsem/code_model.h"
#include "toolchain/build.h"
#include "toolchain/linker.h"
#include "toolchain/objcopy.h"
#include "toolchain/semantics_rules.h"

namespace {

using namespace flit::toolchain;
using flit::fpsem::CodeModel;
using flit::fpsem::FunctionId;

/// A file with `n_exported` exported functions, each hosting one internal.
CodeModel make_model(int n_exported) {
  CodeModel m;
  for (int i = 0; i < n_exported; ++i) {
    const std::string name = "p::f" + std::to_string(i);
    m.add({.name = name, .file = "p/impl.cpp"});
    m.add({.name = "p::detail" + std::to_string(i),
           .file = "p/impl.cpp",
           .exported = false,
           .host_symbol = name});
  }
  m.add({.name = "q::g", .file = "q/other.cpp"});
  return m;
}

Compilation base() { return {gcc(), OptLevel::O0, ""}; }
Compilation variant() {
  return {gcc(), OptLevel::O2, "-funsafe-math-optimizations"};
}

class LinkerPartitionTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(LinkerPartitionTest, EveryFunctionBindsToItsChosenSide) {
  const unsigned seed = GetParam();
  std::mt19937 rng(seed);
  const int n = 8;
  CodeModel m = make_model(n);
  BuildSystem build(&m);
  Linker linker(&m);

  // Random subset of exported symbols taken from the variant object.
  std::vector<std::string> chosen;
  for (int i = 0; i < n; ++i) {
    if (rng() % 2 == 0) chosen.push_back("p::f" + std::to_string(i));
  }

  const ObjectFile var = objcopy_weaken_complement(
      build.compile("p/impl.cpp", variant(), /*fpic=*/true), chosen);
  const ObjectFile bas = objcopy_weaken(
      build.compile("p/impl.cpp", base(), /*fpic=*/true), chosen);
  const std::vector<ObjectFile> objs{var, bas,
                                     build.compile("q/other.cpp", base())};
  const Executable exe = linker.link(objs, gcc());

  const auto var_sem = derive_semantics(variant());
  for (int i = 0; i < n; ++i) {
    const FunctionId f = *m.find("p::f" + std::to_string(i));
    const FunctionId d = *m.find("p::detail" + std::to_string(i));
    const bool is_chosen =
        std::find(chosen.begin(), chosen.end(),
                  "p::f" + std::to_string(i)) != chosen.end();
    // Note: with fpic, variant semantics may have been stripped for
    // inline candidates -- none here, so the check is exact.
    EXPECT_EQ(exe.map.binding(f).sem == var_sem, is_chosen) << i;
    // The internal detail function follows its host's side.
    EXPECT_EQ(exe.map.binding(d).sem == var_sem, is_chosen) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkerPartitionTest,
                         ::testing::Range(0u, 12u));

TEST(LinkerProperty, ResolutionIsLinkOrderIndependentForStrongSymbols) {
  CodeModel m = make_model(4);
  BuildSystem build(&m);
  Linker linker(&m);
  std::vector<ObjectFile> objs{build.compile("p/impl.cpp", variant()),
                               build.compile("q/other.cpp", base())};
  const Executable a = linker.link(objs, gcc());
  std::swap(objs[0], objs[1]);
  const Executable b = linker.link(objs, gcc());
  EXPECT_EQ(a.map, b.map);
}

TEST(LinkerProperty, AllWeakTakesTheFirstDefinitionInLinkOrder) {
  CodeModel m;
  m.add({.name = "w::f", .file = "w/a.cpp"});
  BuildSystem build(&m);
  Linker linker(&m);
  const auto weaken_all = [](ObjectFile o) {
    for (auto& s : o.symbols) s.strong = false;
    return o;
  };
  ObjectFile first = weaken_all(build.compile("w/a.cpp", variant()));
  ObjectFile second = weaken_all(build.compile("w/a.cpp", base()));
  const std::vector<ObjectFile> objs{first, second};
  const Executable exe = linker.link(objs, gcc());
  EXPECT_EQ(exe.map.binding(*m.find("w::f")).sem,
            derive_semantics(variant()));
}

// ------------------------------------------- differential vs. by-name

/// The linker's rules written over symbol and file *names*: two strong
/// definitions clash, strong beats weak, otherwise the first weak
/// definition in link order wins; internal functions follow their host's
/// winning object, else the first object that compiled them.  Throws
/// LinkError exactly where Linker::link must.
Executable reference_link(const CodeModel& m,
                          std::span<const ObjectFile* const> objects,
                          const CompilerSpec& link_compiler) {
  const std::size_t n_fns = m.function_count();
  Executable exe;
  exe.map = flit::fpsem::SemanticsMap(n_fns);
  exe.from_injected.assign(n_fns, false);

  std::set<std::string> covered;
  for (const ObjectFile* o : objects) covered.insert(o->source_file);
  for (const std::string& f : m.files()) {
    if (!covered.contains(f)) {
      throw LinkError(LinkError::Kind::MissingFile,
                      "no object file provides " + f);
    }
  }

  std::unordered_map<std::string, std::size_t> winner, strong_count;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    for (const SymbolDef& s : objects[i]->symbols) {
      if (s.strong) {
        if (++strong_count[s.name] > 1) {
          throw LinkError(LinkError::Kind::DuplicateStrong,
                          "duplicate strong symbol " + s.name);
        }
        winner[s.name] = i;
      } else if (!winner.contains(s.name)) {
        winner.emplace(s.name, i);
      }
    }
  }
  for (FunctionId id = 0; id < n_fns; ++id) {
    const auto& fi = m.info(id);
    if (fi.exported && !winner.contains(fi.name)) {
      throw LinkError(LinkError::Kind::Unresolved,
                      "unresolved symbol " + fi.name);
    }
  }
  for (const auto& [sym, i] : winner) {
    for (const SymbolDef& s : objects[i]->symbols) {
      if (s.name == sym) {
        exe.map.binding(s.fn) = objects[i]->bindings.at(s.fn);
        exe.from_injected[s.fn] = objects[i]->injected;
      }
    }
  }
  for (FunctionId id = 0; id < n_fns; ++id) {
    const auto& fi = m.info(id);
    if (fi.exported) continue;
    const ObjectFile* home = nullptr;
    if (const auto it = winner.find(fi.host_symbol); it != winner.end() &&
        objects[it->second]->bindings.contains(id)) {
      home = objects[it->second];
    }
    for (std::size_t i = 0; home == nullptr && i < objects.size(); ++i) {
      if (objects[i]->bindings.contains(id)) home = objects[i];
    }
    if (home == nullptr) {
      throw LinkError(LinkError::Kind::Unresolved,
                      "internal function " + fi.name + " not linked");
    }
    exe.map.binding(id) = home->bindings.at(id);
    exe.from_injected[id] = home->injected;
  }
  if (link_step_fast_libm(link_compiler)) {
    for (FunctionId id = 0; id < n_fns; ++id) {
      if (m.info(id).uses_libm) exe.map.binding(id).sem.fast_libm = true;
    }
  }

  const bool has_gnu = std::any_of(
      objects.begin(), objects.end(), [](const ObjectFile* o) {
        return o->comp.compiler.family == CompilerFamily::GCC ||
               o->comp.compiler.family == CompilerFamily::Clang;
      });
  for (const ObjectFile* o : objects) {
    if (has_gnu && abi_toxic(o->source_file, o->comp)) {
      exe.crashes = true;
      exe.crash_reason = "SIGSEGV: ABI-incompatible object " +
                         o->source_file + " [" + o->comp.str() + "]";
      return exe;
    }
  }
  std::map<std::string, const ObjectFile*> first_of_file;
  for (const ObjectFile* o : objects) {
    const auto [it, inserted] = first_of_file.try_emplace(o->source_file, o);
    if (!inserted && !(it->second->comp == o->comp) &&
        symbol_mix_toxic(o->source_file, it->second->comp, o->comp)) {
      exe.crashes = true;
      exe.crash_reason =
          "SIGSEGV: fragile strong/weak interposition in " + o->source_file;
      return exe;
    }
  }
  return exe;
}

/// One link's observable result: the executable, or the LinkError.
struct LinkResult {
  std::optional<Executable> exe;
  LinkError::Kind kind = LinkError::Kind::MissingFile;
  std::string error;
};

template <class Link>
LinkResult capture(Link&& link) {
  LinkResult r;
  try {
    r.exe = link();
  } catch (const LinkError& e) {
    r.kind = e.kind();
    r.error = e.what();
  }
  return r;
}

void expect_same(const LinkResult& got, const LinkResult& want) {
  ASSERT_EQ(got.exe.has_value(), want.exe.has_value()) << got.error;
  if (!want.exe.has_value()) {
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.error, want.error);
    return;
  }
  EXPECT_EQ(got.exe->map, want.exe->map);
  EXPECT_EQ(got.exe->from_injected, want.exe->from_injected);
  EXPECT_EQ(got.exe->crashes, want.exe->crashes);
  EXPECT_EQ(got.exe->crash_reason, want.exe->crash_reason);
}

/// Three files.  Some internal functions are registered before their
/// host, and `p::relay` is hosted by a symbol of another file, so its
/// host's winning object never compiled it.
CodeModel make_differential_model() {
  CodeModel m;
  m.add({.name = "p::detail0",
         .file = "p/impl.cpp",
         .exported = false,
         .host_symbol = "p::f0"});
  for (int i = 0; i < 5; ++i) {
    m.add({.name = "p::f" + std::to_string(i),
           .file = "p/impl.cpp",
           .uses_libm = i % 2 == 1});
  }
  m.add({.name = "p::detail3",
         .file = "p/impl.cpp",
         .exported = false,
         .host_symbol = "p::f3"});
  m.add({.name = "p::relay",
         .file = "p/impl.cpp",
         .exported = false,
         .host_symbol = "q::g"});
  m.add({.name = "q::g", .file = "q/other.cpp"});
  m.add({.name = "q::h", .file = "q/other.cpp", .uses_libm = true});
  m.add({.name = "r::k", .file = "r/third.cpp"});
  m.add({.name = "r::detail",
         .file = "r/third.cpp",
         .exported = false,
         .host_symbol = "r::k"});
  return m;
}

TEST(LinkerDifferential, BothOverloadsMatchTheNameKeyedReference) {
  const CodeModel m = make_differential_model();
  const BuildSystem build(&m);
  const Linker linker(&m);
  std::vector<Compilation> comps{
      {gcc(), OptLevel::O0, ""},
      {gcc(), OptLevel::O3, "-ffast-math"},
      {gcc(), OptLevel::O2, "-mavx2 -mfma"},
      {clang(), OptLevel::O1, "-ffp-contract=fast"},
      {icpc(), OptLevel::O2, "-fp-model fast=2"},
      {icpc(), OptLevel::O3, "-no-prec-div"},
      {xlc(), OptLevel::O3, ""},
  };
  // ABI toxicity is a hash of (file, compilation): add the first study
  // compilation that poisons one of the model's files.
  for (const Compilation& c : mfem_study_space()) {
    if (std::any_of(m.files().begin(), m.files().end(),
                    [&](const std::string& f) { return abi_toxic(f, c); })) {
      comps.push_back(c);
      break;
    }
  }
  const std::vector<std::string> symbols{"p::f0", "p::f1", "p::f2", "p::f3",
                                         "p::f4"};
  std::set<LinkError::Kind> kinds;
  int internal_unlinked = 0, abi_crashes = 0, mix_crashes = 0;

  for (unsigned seed = 0; seed < 400; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    const auto pick = [&](std::size_t n) { return rng() % n; };
    const Compilation& var = comps[pick(comps.size())];
    const Compilation& bas = comps[pick(comps.size())];

    // Symbol Bisect's shape: two -fPIC copies of p/impl.cpp with
    // complementary weakening, plus one object per other file.
    std::vector<std::string> chosen;
    for (const std::string& s : symbols) {
      if (pick(2) == 0) chosen.push_back(s);
    }
    std::vector<ObjectFile> objs{
        objcopy_weaken_complement(
            build.compile("p/impl.cpp", var, /*fpic=*/true, pick(4) == 0),
            chosen),
        objcopy_weaken(build.compile("p/impl.cpp", bas, /*fpic=*/true),
                       chosen),
        build.compile("q/other.cpp", comps[pick(comps.size())]),
        build.compile("r/third.cpp", comps[pick(comps.size())], false,
                      pick(4) == 0),
    };
    switch (pick(7)) {
      case 0:  // all weak: the first copy in link order wins
        for (ObjectFile& o : objs) {
          for (SymbolDef& s : o.symbols) s.strong = false;
        }
        break;
      case 1:  // both copies keep a strong definition
        objs[1].symbols[pick(symbols.size())].strong = true;
        objs[0].symbols = objs[1].symbols;
        break;
      case 2:  // a file missing from the line
        objs.erase(objs.begin() + 2 + static_cast<long>(pick(2)));
        break;
      case 3: {  // a symbol no object defines
        const std::string gone = symbols[pick(symbols.size())];
        for (ObjectFile& o : objs) {
          std::erase_if(o.symbols,
                        [&](const SymbolDef& s) { return s.name == gone; });
        }
        break;
      }
      case 4:  // an internal function no object compiled
        for (ObjectFile& o : objs) o.bindings.erase(*m.find("r::detail"));
        break;
      default:  // a well-formed line
        break;
    }
    if (pick(3) == 0) {  // a third, all-weak copy under another compilation
      ObjectFile third =
          build.compile("p/impl.cpp", comps[pick(comps.size())], true);
      for (SymbolDef& s : third.symbols) s.strong = false;
      objs.push_back(std::move(third));
    }
    std::shuffle(objs.begin(), objs.end(), rng);
    if (pick(3) == 0) objs.push_back(objs[pick(objs.size())]);

    std::vector<const ObjectFile*> line;
    for (const ObjectFile& o : objs) line.push_back(&o);
    const CompilerSpec& driver = comps[pick(comps.size())].compiler;

    const LinkResult want =
        capture([&] { return reference_link(m, line, driver); });
    expect_same(capture([&] { return linker.link(line, driver); }), want);
    expect_same(capture([&] {
                  return linker.link(std::span<const ObjectFile>(objs),
                                     driver);
                }),
                want);
    if (want.exe.has_value()) {
      const std::string& why = want.exe->crash_reason;
      abi_crashes += why.starts_with("SIGSEGV: ABI");
      mix_crashes += why.starts_with("SIGSEGV: fragile");
    } else {
      kinds.insert(want.kind);
      internal_unlinked += want.error.starts_with("internal function");
    }
  }
  // Every error path and both crash verdicts were exercised.
  EXPECT_EQ(kinds.size(), 3u);
  EXPECT_GT(internal_unlinked, 0);
  EXPECT_GT(abi_crashes, 0);
  EXPECT_GT(mix_crashes, 0);
}

}  // namespace
