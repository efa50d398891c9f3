#pragma once

// The dual-level hierarchical Bisect of Sec. 2.3: first locate the source
// *files* whose variable compilation induces variability (File Bisect:
// link object files from the two compilations), then, inside each found
// file, locate the exported *symbols* responsible (Symbol Bisect:
// duplicate the object, objcopy-weaken complementary symbol subsets, link
// both copies).  Includes the -fPIC pre-check: if recompiling the found
// file with -fPIC makes the variability vanish, the search cannot go
// deeper and the file itself is reported.

#include <span>
#include <string>
#include <vector>

#include "core/bisect.h"
#include "core/runner.h"
#include "core/test_base.h"
#include "toolchain/build.h"
#include "toolchain/compiler.h"
#include "toolchain/linker.h"

namespace flit::core {

class ProbeMemo;

struct BisectConfig {
  toolchain::Compilation baseline;  ///< trusted compilation
  toolchain::Compilation variable;  ///< compilation under investigation

  /// Files to search over (the application under test).  Empty: every
  /// file of the code model.  Out-of-scope files are always linked from
  /// the baseline build.
  std::vector<std::string> scope;

  /// k > 0: BisectBiggest with this k;  k <= 0: BisectAll ("all").
  int k = 0;

  /// Restrict comparisons to this many significant decimal digits
  /// (<= 0: full precision).  Used by the Laghos study (Table 4).
  int digits = 0;

  /// Injection mode (Sec. 3.5), on when set: `hook` carries the armed
  /// perturbation, and the "variable" build is the same compilation as
  /// the baseline but produced by the instrumented injection build.  The
  /// hook only fires inside functions whose winning definition came from
  /// the instrumented objects.
  fpsem::InjectionHook* hook = nullptr;

  /// Shared (thread-safe) probe memo: probes whose linked executable
  /// agrees, on every function the test reaches, with one already run --
  /// by this driver or any other sharing the memo -- are answered from
  /// cache instead of re-running (ProbeMemo::probe_scoped; see
  /// probe_memo.h for the soundness argument).  Ignored in injection
  /// mode and while the fault injector is armed, where skipping a run
  /// would change behaviour.  Must outlive the driver.
  ProbeMemo* memo = nullptr;
};

struct SymbolFinding {
  std::string symbol;
  double value = 0.0;  ///< Test({symbol})
};

struct FileFinding {
  std::string file;
  double value = 0.0;  ///< Test({file})

  enum class SymbolStatus {
    Found,              ///< symbol-level culprits identified
    VanishedUnderFpic,  ///< -fPIC removed the variability; file-level only
    Crashed,            ///< mixed strong/weak executable crashed
    NotSearched,        ///< no exported symbols, or skipped by k-cutoff
  };
  SymbolStatus status = SymbolStatus::NotSearched;
  std::vector<SymbolFinding> symbols;
  std::string note;
};

struct HierarchicalOutcome {
  std::vector<FileFinding> findings;

  /// Test value of the full variable item set (the first Bisect probe);
  /// 0 means the whole-program difference is not measurable at all.
  double whole_value = 0.0;

  /// Logical program executions across the whole search, including the
  /// baseline run and the verification assertions -- the paper's headline
  /// cost metric ("14 executions" for Laghos).  Memoized probes still
  /// count (the search asked for them), so this number is identical with
  /// the probe memo on or off; real executions = executions - memo_hits.
  int executions = 0;

  /// Probes answered from the shared probe memo (0 without one).  Under
  /// concurrent drivers the split between hits and real runs depends on
  /// scheduling; `executions` does not.
  int memo_hits = 0;

  bool crashed = false;  ///< File Bisect itself crashed (ABI mixing)
  std::string crash_reason;

  /// Dynamic verification (Sec. 2.4) passed at the file level and at
  /// every symbol level searched.
  bool assumptions_verified = true;
  std::string diagnostic;

  /// File Bisect found nothing although the whole-program compilation was
  /// variable: the variability is not attributable to any translation
  /// unit (e.g. the Intel link-step libm substitution of Fig. 5).
  [[nodiscard]] bool nothing_found() const {
    return !crashed && findings.empty();
  }
};

/// Runs the hierarchical search for one (test, baseline, variable) triple.
class BisectDriver {
 public:
  /// `cache`, when non-null, memoizes per-file compilations -- bisects
  /// relink far more often than they need to recompile, and one shared
  /// (thread-safe) cache serves many concurrent drivers.  Must outlive the
  /// driver.
  BisectDriver(const fpsem::CodeModel* model, const TestBase* test,
               BisectConfig cfg, toolchain::CompilationCache* cache = nullptr);

  [[nodiscard]] HierarchicalOutcome run();

 private:
  [[nodiscard]] HierarchicalOutcome run_impl();
  [[nodiscard]] long double metric(const RunOutput& out) const;
  /// Links and runs one probe.  `line` borrows its objects (base_objs_,
  /// the variable build, Symbol Bisect's copies): no probe copies one.
  [[nodiscard]] RunOutput execute(
      std::span<const toolchain::ObjectFile* const> line);
  void symbol_phase(FileFinding& finding);

  const fpsem::CodeModel* model_;
  const TestBase* test_;
  BisectConfig cfg_;
  toolchain::BuildSystem build_;
  toolchain::Linker linker_;
  Runner runner_;

  std::vector<toolchain::ObjectFile> base_objs_;
  RunOutput baseline_out_;
  int executions_ = 0;
  int memo_hits_ = 0;
};

}  // namespace flit::core
