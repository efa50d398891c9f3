// Soundness of the execution memo's build key.  The study engine answers a
// whole-program item from ProbeMemo::key_of_build -- (test, semantics
// group, link-step libm) -- before it compiles anything, which is exact
// only while equal build keys imply equal content keys (ProbeMemo::key_of,
// the linked executable itself).  This pins that refinement over every
// compilation of the MFEM study space plus both anchors, on the full
// application link set, so a derivation-rule change that breaks it fails
// here instead of silently answering an item with another executable's
// run.
//
// The link set is the one tools/flit links: the mini-MFEM, Laghos,
// LULESH, geometry and parallel-Poisson applications (plus the linear
// algebra they share) -- 26 source files and 112 functions in the global
// code model.  The tests constructed below pull every application's
// objects into this binary.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/probe_memo.h"
#include "geom/predicates.h"
#include "laghos/hydro.h"
#include "lulesh/domain.h"
#include "mfemini/examples.h"
#include "par/study.h"
#include "toolchain/build.h"
#include "toolchain/compile_cache.h"
#include "toolchain/compiler.h"
#include "toolchain/linker.h"

namespace {

using namespace flit;
using toolchain::Compilation;

/// The names of one test of every application (what a study keys on).
/// Constructing the tests behind TestBase pointers references their
/// vtables, which links each application's code into the model.
std::vector<std::string> application_test_names() {
  std::vector<std::unique_ptr<core::TestBase>> tests;
  tests.push_back(std::make_unique<mfemini::MfemExampleTest>(1));
  tests.push_back(std::make_unique<laghos::LaghosTest>());
  tests.push_back(std::make_unique<lulesh::LuleshTest>());
  tests.push_back(std::make_unique<geom::HullTest>());
  tests.push_back(std::make_unique<par::ParallelPoissonTest>(4));
  std::vector<std::string> names;
  for (const auto& t : tests) names.push_back(t->name());
  return names;
}

TEST(MemoKeys, TheLinkSetIsEveryApplication) {
  ASSERT_EQ(application_test_names().size(), 5u);
  const fpsem::CodeModel& model = fpsem::global_code_model();
  EXPECT_EQ(model.files().size(), 26u);
  EXPECT_EQ(model.function_count(), 112u);
}

TEST(MemoKeys, BuildKeysRefineContentKeysOverTheStudySpace) {
  const fpsem::CodeModel& model = fpsem::global_code_model();
  toolchain::CompilationCache cache;
  const toolchain::BuildSystem build(&model, &cache);
  const toolchain::Linker linker(&model);

  std::vector<Compilation> comps = toolchain::mfem_study_space();
  comps.push_back(toolchain::mfem_baseline());
  comps.push_back(toolchain::mfem_speed_reference());

  for (const std::string& test : application_test_names()) {
    // Build key -> (content key, triple) of its first compilation.
    std::map<std::string, std::pair<std::string, std::string>> first;
    std::set<std::string> contents;
    std::set<std::uint64_t> groups;
    for (const Compilation& c : comps) {
      const toolchain::Executable exe =
          linker.link(build.compile_all(c), c.compiler);
      // A uniform whole-program link never trips a run-time hazard.
      EXPECT_FALSE(exe.crashes) << c.str();
      const std::string build_key = core::ProbeMemo::key_of_build(test, c);
      const std::string content_key = core::ProbeMemo::key_of(test, exe);
      // The two key kinds can never collide.
      EXPECT_NE(build_key.front(), content_key.front());

      const auto it =
          first.try_emplace(build_key, content_key, c.str()).first;
      EXPECT_TRUE(it->second.first == content_key)
          << test << ": '" << c.str() << "' shares a build key with '"
          << it->second.second << "' but links another executable";
      contents.insert(content_key);
      groups.insert(toolchain::CompilationCache::semantics_group(c));
    }
    // The counts the memo runs at: 78 distinct executables by build key
    // (77 semantics groups, one of them linked with and without the
    // Intel link-step libm) over 75 distinct content keys.
    EXPECT_EQ(first.size(), 78u) << test;
    EXPECT_EQ(groups.size(), 77u) << test;
    EXPECT_EQ(contents.size(), 75u) << test;
  }
}

}  // namespace
