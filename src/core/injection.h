#pragma once

// The controlled variability-injection framework of Sec. 3.5.
//
// Pass 1 enumerates every static floating-point instruction site an
// execution of the test reaches (the LLVM pass's "potential valid
// injection locations": a (file, function, instruction) tuple).  Pass 2
// builds the application with one site armed: the target instruction
// `x OP y` becomes `(x OP' eps) OP y` with eps drawn (deterministically
// per experiment) from U(0, 1).  FLiT Bisect then searches for the
// injected function; each report is classified exactly as in Table 5:
// exact find, indirect find (nearest exported host symbol of an internal
// function), wrong find, missed find, or not measurable.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/hierarchy.h"
#include "core/test_base.h"
#include "fpsem/injection_hook.h"
#include "toolchain/compiler.h"

namespace flit::core {

struct InjectionExperiment {
  fpsem::InjectionSite site;
  fpsem::InjectOp op = fpsem::InjectOp::Add;
  double eps = 0.0;
};

enum class InjectionVerdict {
  Exact,          ///< the injected function's own symbol was reported
  Indirect,       ///< the internal function's exported host was reported
  Wrong,          ///< a function not responsible was reported
  Missed,         ///< variability measurable but nothing reported
  NotMeasurable,  ///< the injection did not change the test output
};

[[nodiscard]] const char* to_string(InjectionVerdict v);

struct InjectionReport {
  InjectionExperiment exp;
  InjectionVerdict verdict = InjectionVerdict::NotMeasurable;
  int executions = 0;
  std::vector<std::string> reported_symbols;
  std::string expected_symbol;  ///< symbol Bisect should report
};

class InjectionCampaign {
 public:
  /// `build_comp` is the compilation both the clean and the instrumented
  /// builds use (the injection is the only difference between them).
  InjectionCampaign(const fpsem::CodeModel* model, const TestBase* test,
                    toolchain::Compilation build_comp);

  /// Restricts the Bisect search to these files (see BisectConfig::scope).
  void set_scope(std::vector<std::string> scope) {
    scope_ = std::move(scope);
  }

  /// Pass 1: the static FP instruction sites this test reaches.
  [[nodiscard]] std::vector<fpsem::InjectionSite> enumerate_sites() const;

  /// Pass 2 + Bisect for a single experiment.
  [[nodiscard]] InjectionReport run_one(const InjectionExperiment& e) const;

  /// Full campaign: every site x all four OP', eps ~ U(0,1) seeded
  /// deterministically per experiment.
  [[nodiscard]] std::vector<InjectionReport> run_all() const;

  /// Deterministic eps in (0, 1) for (site, op).  It hashes the site's
  /// repository-relative file name -- the suffix from the last `src/`
  /// path component -- so where the checkout lives does not move it.
  [[nodiscard]] static double draw_eps(const fpsem::InjectionSite& site,
                                       fpsem::InjectOp op);

  struct Summary {
    int exact = 0, indirect = 0, wrong = 0, missed = 0, not_measurable = 0;
    int total = 0;
    double avg_executions = 0.0;  ///< over measurable experiments

    [[nodiscard]] double precision() const;
    [[nodiscard]] double recall() const;

    /// Pools another summary in: tallies sum, avg_executions recombines
    /// weighted by each side's measurable-experiment count.  The
    /// generated-workload harness runs one campaign per kernel and folds
    /// the per-kernel summaries into per-mechanism and total pools.
    Summary& operator+=(const Summary& o);
  };
  [[nodiscard]] static Summary summarize(
      std::span<const InjectionReport> reports);

 private:
  const fpsem::CodeModel* model_;
  const TestBase* test_;
  toolchain::Compilation comp_;
  std::vector<std::string> scope_;
};

}  // namespace flit::core
