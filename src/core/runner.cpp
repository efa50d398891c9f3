#include "core/runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/faults.h"
#include "obs/session.h"

namespace flit::core {

RunOutput Runner::run(const TestBase& test, const toolchain::Executable& exe,
                      fpsem::InjectionHook* hook,
                      std::vector<bool>* reach) const {
  if (reach != nullptr) reach->clear();  // nothing opened yet
  // The run site throws ExecutionCrash (not InjectedFault) so every
  // existing crash path -- bisect failed-search recording, explore
  // containment -- treats an injected signal exactly like a real one.
  if (FaultInjector::global().any_armed() &&
      FaultInjector::global().should_fail(FaultSite::Run, test.name())) {
    obs::metrics().counter("faults.injected").add();
    obs::metrics().counter("faults.injected.run").add();
    throw ExecutionCrash("injected fault: simulated signal while running " +
                         test.name());
  }
  if (exe.crashes) throw ExecutionCrash(exe.crash_reason);

  fpsem::EvalContext ctx(exe.map);
  if (hook != nullptr) {
    const bool install =
        hook->mode() == fpsem::InjectionHook::Mode::Record ||
        (hook->target_fn() < exe.from_injected.size() &&
         exe.from_injected[hook->target_fn()]);
    if (install) ctx.set_injection_hook(hook);
  }
  if (reach != nullptr) ctx.record_reach(reach);

  const std::vector<double> input = test.getDefaultInput();
  const std::size_t per_run = test.getInputsPerRun();

  RunOutput out;
  if (per_run == 0 || input.size() <= per_run) {
    out.results.push_back(test.run_impl(input, ctx));
  } else {
    // Data-driven testing: split the input into per_run-sized chunks and
    // execute the test once per chunk.
    for (std::size_t i = 0; i + per_run <= input.size(); i += per_run) {
      std::vector<double> chunk(input.begin() + static_cast<std::ptrdiff_t>(i),
                                input.begin() +
                                    static_cast<std::ptrdiff_t>(i + per_run));
      out.results.push_back(test.run_impl(chunk, ctx));
    }
  }
  out.cycles = ctx.counter().cycles();
  return out;
}

long double Runner::compare_outputs(const TestBase& test,
                                    const RunOutput& baseline,
                                    const RunOutput& other) {
  if (baseline.results.size() != other.results.size()) return HUGE_VALL;
  long double worst = 0.0L;
  for (std::size_t i = 0; i < baseline.results.size(); ++i) {
    const long double v =
        test.compare_results(baseline.results[i], other.results[i]);
    if (std::isnan(static_cast<double>(v))) return HUGE_VALL;
    worst = std::max(worst, v);
  }
  return worst;
}

long double truncate_digits(long double v, int digits) {
  if (digits <= 0 || v == 0.0L || !std::isfinite(static_cast<double>(v))) {
    return v;
  }
  // Round through a decimal scientific rendering: exact decimal semantics,
  // no power-of-ten rounding artifacts.
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*Le", digits - 1, v);
  return strtold(buf, nullptr);
}

}  // namespace flit::core
