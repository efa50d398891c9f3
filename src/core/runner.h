#pragma once

// Executes a FLiT test inside a linked executable.
//
// Handles data-driven input splitting, the deterministic cycle counter
// (the performance axis), injection-hook installation (the hook only fires
// when the target function's winning definition came from the instrumented
// build), and crash propagation for the mixed-executable segfaults.

#include <optional>
#include <vector>

#include "core/test_base.h"
#include "fpsem/code_model.h"
#include "fpsem/injection_hook.h"
#include "toolchain/linker.h"

namespace flit::core {

/// Thrown when the executable under test dies with a signal; Bisect
/// drivers record these as failed searches (Table 2).
class ExecutionCrash : public std::runtime_error {
 public:
  explicit ExecutionCrash(const std::string& what)
      : std::runtime_error(what) {}
};

struct RunOutput {
  std::vector<TestResult> results;  ///< one entry per data-driven chunk
  double cycles = 0.0;              ///< modeled runtime
};

class Runner {
 public:
  explicit Runner(const fpsem::CodeModel* model) : model_(model) {}

  /// Runs `test` inside `exe`.  Throws ExecutionCrash if the binary is
  /// marked as crashing.  When `hook` is an injector, it is installed only
  /// if the target function's definition came from the injected build.
  /// A non-null `reach` receives, indexed by FunctionId, the functions
  /// the run opened (EvalContext::record_reach); on a throw it keeps what
  /// was opened before it, and a crashing binary opens nothing.
  [[nodiscard]] RunOutput run(const TestBase& test,
                              const toolchain::Executable& exe,
                              fpsem::InjectionHook* hook = nullptr,
                              std::vector<bool>* reach = nullptr) const;

  /// Maximum compare() metric across the data-driven chunks of two runs.
  [[nodiscard]] static long double compare_outputs(const TestBase& test,
                                                   const RunOutput& baseline,
                                                   const RunOutput& other);

 private:
  const fpsem::CodeModel* model_;
};

/// Rounds `v` to `digits` significant decimal digits (digits <= 0: no-op).
/// Used by the Laghos study's digit-restricted comparisons (Table 4).
[[nodiscard]] long double truncate_digits(long double v, int digits);

}  // namespace flit::core
