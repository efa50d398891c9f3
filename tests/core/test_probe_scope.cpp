// The execution memo's scoped key (ProbeMemo::probe_scoped): a bisect
// probe is keyed on the bindings of the functions its test reaches -- the
// functions one strict scout run opens -- so probes that differ only in
// functions the test never opens share one run, while a run that opens a
// function outside its scope is answered but never stored.
//
// The synthetic application has three functions in three files: A
// computes the FMA residual of x*y + (-(x*y)), B is opened only when that
// residual is nonzero (which takes a contracting compilation of A), and C
// is never opened.  A strict scout therefore scopes the test to {A}.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/hierarchy.h"
#include "core/parallel.h"
#include "core/probe_memo.h"
#include "core/runner.h"
#include "toolchain/compiler.h"
#include "toolchain/linker.h"

namespace {

using namespace flit;

struct ResidualApp {
  fpsem::CodeModel model;
  fpsem::FunctionId a = model.add({.name = "scope::residual",
                                   .file = "scope/residual.cpp"});
  fpsem::FunctionId b = model.add({.name = "scope::amplify",
                                   .file = "scope/amplify.cpp"});
  fpsem::FunctionId c = model.add({.name = "scope::unused",
                                   .file = "scope/unused.cpp"});
};

/// Opens A; opens B only when A's residual is nonzero.
class ResidualTest final : public core::TestBase {
 public:
  explicit ResidualTest(const ResidualApp& app) : app_(app) {}

  std::string name() const override { return "ResidualTest"; }
  std::size_t getInputsPerRun() const override { return 0; }
  std::vector<double> getDefaultInput() const override { return {}; }
  core::TestResult run_impl(const std::vector<double>&,
                            fpsem::EvalContext& ctx) const override {
    const double x = 0.1;
    const double y = 0.3;
    fpsem::FpEnv a = ctx.fn(app_.a);
    const double residual = a.mul_add(x, y, -(x * y));
    long double value = residual;
    if (residual != 0.0) {
      fpsem::FpEnv b = ctx.fn(app_.b);
      value += b.mul(residual, 1e18);
    }
    return value;
  }

 private:
  const ResidualApp& app_;
};

toolchain::Executable strict_exe(const ResidualApp& app) {
  toolchain::Executable exe;
  exe.map = fpsem::SemanticsMap(app.model.function_count());
  exe.from_injected.assign(app.model.function_count(), false);
  return exe;
}

/// The strict executable with A contracting, so the run opens B, and B
/// costing `b_scale` per operation.
toolchain::Executable escaping_exe(const ResidualApp& app, double b_scale) {
  toolchain::Executable exe = strict_exe(app);
  exe.map.binding(app.a).sem.contract_fma = true;
  exe.map.binding(app.b).cost.time_scale = b_scale;
  return exe;
}

TEST(ScopedMemo, TheScoutScopesTheTestToTheFunctionsItOpens) {
  const ResidualApp app;
  const ResidualTest test(app);
  const core::Runner runner(&app.model);
  std::vector<bool> reach;
  (void)runner.run(test, strict_exe(app), nullptr, &reach);
  EXPECT_EQ(reach, (std::vector<bool>{true, false, false}));
  (void)runner.run(test, escaping_exe(app, 1.0), nullptr, &reach);
  EXPECT_EQ(reach, (std::vector<bool>{true, true, false}))
      << "a contracted residual must reach B";
}

TEST(ScopedMemo, AnUnreachedBindingIsAHitAndAReachedOneIsAMiss) {
  const ResidualApp app;
  const ResidualTest test(app);
  const core::Runner runner(&app.model);
  core::ProbeMemo memo;

  const toolchain::Executable base = strict_exe(app);
  EXPECT_FALSE(memo.probe_scoped(test, runner, base).hit);

  // C is never opened: its binding is outside the key.
  toolchain::Executable c_differs = base;
  c_differs.map.binding(app.c).sem.contract_fma = true;
  c_differs.map.binding(app.c).cost.time_scale = 3.0;
  ASSERT_NE(core::ProbeMemo::key_of(test.name(), c_differs),
            core::ProbeMemo::key_of(test.name(), base));
  EXPECT_TRUE(memo.probe_scoped(test, runner, c_differs).hit);

  // A is opened: a different cost is a different run.
  toolchain::Executable a_differs = base;
  a_differs.map.binding(app.a).cost.time_scale = 2.0;
  const core::ProbeMemo::Answer a_answer =
      memo.probe_scoped(test, runner, a_differs);
  EXPECT_FALSE(a_answer.hit);
  EXPECT_EQ(a_answer.entry.output.cycles,
            runner.run(test, a_differs).cycles);
  EXPECT_NE(a_answer.entry.output.cycles, runner.run(test, base).cycles);

  const core::ProbeMemo::Stats s = memo.stats();
  EXPECT_EQ(s.probes, 3u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.escaped, 0u);
  EXPECT_EQ(s.scouts, 1u);

  // A scoped key never equals a content key, even over every function.
  const std::vector<bool> everything(app.model.function_count(), true);
  EXPECT_NE(core::ProbeMemo::key_of_scoped(test.name(), base, everything),
            core::ProbeMemo::key_of(test.name(), base));
}

/// Probes `exes` through one fresh memo on `jobs` lanes; every answer
/// must equal a direct run.  Returns the real runs (answers not hits)
/// and fills `stats`.
std::size_t probe_all(const ResidualApp& app,
                      const std::vector<toolchain::Executable>& exes,
                      unsigned jobs, core::ProbeMemo::Stats& stats) {
  const ResidualTest test(app);
  const core::Runner runner(&app.model);
  core::ProbeMemo memo;
  std::vector<core::ProbeMemo::Answer> answers(exes.size());
  core::ThreadPool pool(jobs);
  pool.parallel_for(exes.size(), [&](std::size_t i) {
    answers[i] = memo.probe_scoped(test, runner, exes[i]);
  });
  std::size_t real = 0;
  for (std::size_t i = 0; i < exes.size(); ++i) {
    const core::RunOutput direct = runner.run(test, exes[i]);
    EXPECT_FALSE(answers[i].entry.crashed) << i;
    EXPECT_EQ(answers[i].entry.output.cycles, direct.cycles) << i;
    EXPECT_EQ(answers[i].entry.output.results, direct.results) << i;
    real += answers[i].hit ? 0 : 1;
  }
  stats = memo.stats();
  return real;
}

TEST(ScopedMemo, EscapingRunsAreAnsweredExactlyAndNeverStored) {
  const ResidualApp app;
  // Three escaping executables share one scoped key (A contracted; B is
  // outside the scope) but run B at three costs, so a stored escape would
  // answer the others wrongly.  Each executable is probed twice.
  std::vector<toolchain::Executable> exes;
  for (int copy = 0; copy < 2; ++copy) {
    exes.push_back(strict_exe(app));
    for (const double b_scale : {1.0, 2.0, 4.0}) {
      exes.push_back(escaping_exe(app, b_scale));
    }
  }

  core::ProbeMemo::Stats serial{}, pooled{};
  const std::size_t serial_real = probe_all(app, exes, 1, serial);
  const std::size_t pooled_real = probe_all(app, exes, 4, pooled);

  EXPECT_EQ(serial.entries, 1u) << "only the strict run stays in scope";
  EXPECT_EQ(serial.escaped, 6u);
  EXPECT_EQ(serial_real, serial.entries + serial.escaped);
  EXPECT_EQ(pooled.entries, serial.entries);
  EXPECT_EQ(pooled.escaped, serial.escaped);
  EXPECT_EQ(pooled_real, serial_real);
}

TEST(ScopedMemo, BisectFindingsMatchAMemoLessSearch) {
  const ResidualApp app;
  const ResidualTest test(app);
  core::BisectConfig cfg;
  cfg.baseline = toolchain::mfem_baseline();
  cfg.variable = cfg.baseline;
  cfg.variable.opt = toolchain::OptLevel::O3;
  cfg.variable.flag = "-mavx2 -mfma";

  const core::HierarchicalOutcome plain =
      core::BisectDriver(&app.model, &test, cfg).run();
  core::ProbeMemo memo;
  cfg.memo = &memo;
  const core::HierarchicalOutcome memoized =
      core::BisectDriver(&app.model, &test, cfg).run();

  ASSERT_FALSE(plain.crashed) << plain.crash_reason;
  ASSERT_EQ(plain.findings.size(), 1u);
  EXPECT_EQ(plain.findings[0].file, "scope/residual.cpp");
  ASSERT_EQ(memoized.findings.size(), plain.findings.size());
  EXPECT_EQ(memoized.findings[0].file, plain.findings[0].file);
  EXPECT_EQ(memoized.findings[0].value, plain.findings[0].value);
  EXPECT_EQ(memoized.executions, plain.executions);
  EXPECT_GT(memo.stats().escaped, 0u) << "no probe contracted A";
  EXPECT_EQ(static_cast<std::uint64_t>(memoized.executions -
                                       memoized.memo_hits),
            memo.stats().entries + memo.stats().escaped);
}

}  // namespace
