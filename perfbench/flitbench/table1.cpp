// The Table-1 study (19 mini-MFEM examples x the 244-compilation space,
// 4,636 items): its set-up, its pinned outputs, and the replay of its
// per-item chain through the public toolchain and runner.

#include "table1.h"

#include <array>
#include <cstdio>
#include <map>

#include "core/runner.h"
#include "core/report.h"
#include "fpsem/code_model.h"
#include "toolchain/build.h"
#include "toolchain/linker.h"

namespace flitbench {

using namespace flit;

namespace {

/// study_digest() of each example, index 0 = MFEM_ex1.
constexpr std::array<const char*, mfemini::kNumExamples> kStudyDigests = {
    "826ad353a3abfb8e", "c8eef17e421b5c25", "05359997b4717bcc",
    "8ff82e5632168c97", "a80afc110ea48fa5", "15a3748e27cdbb61",
    "db4de6636e58b639", "4c27edb08f7489ad", "1d8b5b4d3e330410",
    "2f8662aa9138ea9f", "dee972b3c1906297", "e00c3667ed34e363",
    "21f6e6a4707ab8e0", "078cab01b51c3a2e", "74aae655875dff95",
    "b7e1acdb73ab42c2", "8aae65671ab80b93", "cf8bd4e411b1b4a4",
    "718b959c5144f9b0"};

/// Variable runs / runs per compiler (Table 1).
struct CompilerPin {
  const char* name;
  long long variable;
  long long runs;
};
constexpr CompilerPin kCompilerPins[] = {
    {"g++", 117, 1292}, {"clang++", 90, 1368}, {"icpc", 1192, 1976}};

/// The study CSV plus the exact variability and modeled cycles of every
/// outcome (the CSV rounds both to six digits).
std::string study_digest(const core::StudyResult& s) {
  std::string bytes = s.test_name + "\n" + core::study_csv(s);
  char buf[96];
  for (const core::CompilationOutcome& o : s.outcomes) {
    std::snprintf(buf, sizeof buf, "%La %a\n", o.variability, o.cycles);
    bytes += buf;
  }
  return digest(bytes);
}

}  // namespace

Table1Setup make_table1_setup() {
  Table1Setup s;
  s.space = toolchain::mfem_study_space();
  for (int ex = 1; ex <= mfemini::kNumExamples; ++ex) {
    s.tests.push_back(std::make_unique<mfemini::MfemExampleTest>(ex));
  }
  s.explorer = std::make_unique<core::SpaceExplorer>(
      &fpsem::global_code_model(), toolchain::mfem_baseline(),
      toolchain::mfem_speed_reference(), kStudyLanes);
  return s;
}

std::vector<core::StudyResult> explore_all(const Table1Setup& s,
                                           Spans& spans) {
  std::vector<core::StudyResult> out;
  for (const auto& test : s.tests) {
    Spans::Scope span(spans, "core.explore");
    out.push_back(s.explorer->explore(*test, s.space));
  }
  return out;
}

void check_table1(const std::vector<core::StudyResult>& study, Result& r) {
  if (study.size() != kStudyDigests.size()) {
    r.check(false, 1, "table1: " + std::to_string(study.size()) + " studies");
    return;
  }
  std::map<std::string, std::pair<long long, long long>> per_compiler;
  for (std::size_t i = 0; i < study.size(); ++i) {
    r.check_eq(study[i].test_name + " study digest", kStudyDigests[i],
               study_digest(study[i]), study[i].outcomes.size());
    for (const core::CompilationOutcome& o : study[i].outcomes) {
      auto& [variable, runs] = per_compiler[o.comp.compiler.name];
      variable += o.bitwise_equal() ? 0 : 1;
      runs += 1;
    }
  }
  for (const CompilerPin& p : kCompilerPins) {
    const auto [variable, runs] = per_compiler[p.name];
    r.check_eq(std::string("table1 ") + p.name + " variable runs",
               std::to_string(p.variable) + "/" + std::to_string(p.runs),
               std::to_string(variable) + "/" + std::to_string(runs),
               static_cast<std::uint64_t>(runs));
  }
}

std::uint64_t reused_anchor_items(
    const std::vector<toolchain::Compilation>& subspace) {
  std::uint64_t n = 0;
  for (const toolchain::Compilation& c : subspace) {
    if (c == toolchain::mfem_baseline() ||
        c == toolchain::mfem_speed_reference()) {
      ++n;
    }
  }
  return n;
}

void replay_study(const Table1Setup& s,
                  const std::vector<core::StudyResult>& engine, Spans& spans,
                  Result& r) {
  const fpsem::CodeModel* model = &fpsem::global_code_model();
  toolchain::CompilationCache cache;
  const toolchain::BuildSystem build(model, &cache);
  const toolchain::Linker linker(model);
  const core::Runner runner(model);

  std::uint64_t crashes = 0;
  double cycles = 0.0;
  const auto run_chain = [&](const core::TestBase& test,
                             const toolchain::Compilation& c) {
    std::vector<toolchain::ObjectFile> objs;
    {
      Spans::Scope span(spans, "toolchain.compile");
      objs = build.compile_all(c);
    }
    toolchain::Executable exe;
    {
      Spans::Scope span(spans, "toolchain.link");
      exe = linker.link(objs, c.compiler);
    }
    Spans::Scope span(spans, "core.run");
    core::RunOutput out = runner.run(test, exe);
    cycles += out.cycles;
    return out;
  };

  for (std::size_t t = 0; t < s.tests.size(); ++t) {
    const core::TestBase& test = *s.tests[t];
    const core::RunOutput base =
        run_chain(test, toolchain::mfem_baseline());
    for (std::size_t i = 0; i < s.space.size(); ++i) {
      Spans::Scope item(spans, "replay.item");
      const core::CompilationOutcome& want = engine[t].outcomes[i];
      r.attempted += 1;
      try {
        const core::RunOutput out = run_chain(test, s.space[i]);
        long double variability = 0.0L;
        {
          Spans::Scope span(spans, "core.compare");
          variability = core::Runner::compare_outputs(test, base, out);
        }
        r.check(want.ok() && variability == want.variability &&
                    out.cycles == want.cycles,
                1,
                "table1 replay " + test.name() + " @ " + s.space[i].str());
      } catch (const core::ExecutionCrash&) {
        ++crashes;
        r.check(want.status == core::OutcomeStatus::Crashed, 1,
                "table1 replay crash " + test.name() + " @ " +
                    s.space[i].str());
      }
    }
  }
  layer_timing(r, spans, "toolchain.compile", "toolchain.compile", 1e6, "us");
  layer_timing(r, spans, "toolchain.link", "toolchain.link", 1e6, "us");
  layer_timing(r, spans, "core.run", "core.run", 1e6, "us");
  r.set("core.compare.busy_s", spans.busy_s("core.compare"), "s");
  const double run_busy = spans.busy_s("core.run");
  r.set("core.run.mcycles_per_s", run_busy > 0 ? cycles / run_busy / 1e6 : 0,
        "Mcycles/s");
  r.set("core.run.crashes", static_cast<double>(crashes), "count");
}

}  // namespace flitbench
