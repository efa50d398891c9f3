// injection-campaign: the Table-5 LULESH campaign (90 sites x 4 OP' =
// 360 experiments) plus gen::run_injection_campaign over a seeded
// generated corpus, run serially.  Injection mode bypasses the probe
// memo and arms the FpEnv injection hook on every run.

#include <memory>

#include "core/injection.h"
#include "core/runner.h"
#include "fpsem/code_model.h"
#include "gen/generator.h"
#include "gen/harness.h"
#include "harness.h"
#include "lulesh/domain.h"
#include "toolchain/build.h"
#include "toolchain/compiler.h"
#include "toolchain/linker.h"

namespace flitbench {

using namespace flit;

namespace {

/// Generated kernels per round (the corpus seed is the run's seed).
constexpr std::size_t kKernels = 128;

/// Table 5 as the code stands, built with repository-relative source
/// names (see CMakeLists.txt).  Each experiment's eps hashes its site's
/// source file name, so a build under an absolute path reports other
/// verdicts: 148/138/0/0/74, 148/137/0/0/75 and 148/136/0/0/76 were seen
/// from three checkout directories.
constexpr int kExact = 148, kIndirect = 135, kWrong = 0, kMissed = 0,
              kNotMeasurable = 77;

const toolchain::Compilation& build_comp() {
  static const toolchain::Compilation c{toolchain::gcc(),
                                        toolchain::OptLevel::O2, ""};
  return c;
}

lulesh::LuleshOptions table5_options() {
  lulesh::LuleshOptions o;
  o.num_elems = 16;
  o.stop_cycle = 15;
  return o;
}

/// The LULESH experiments' injected runs replayed through the public
/// toolchain and runner: one clean and one instrumented build, a clean
/// baseline run, then per experiment Runner::run with the injection hook
/// armed and Runner::compare_outputs against the baseline.  Each must
/// reproduce the campaign's measurable / not-measurable verdict.
void replay_injected_runs(const core::TestBase& test,
                          const std::vector<core::InjectionReport>& reports,
                          Spans& spans, Result& r) {
  const fpsem::CodeModel* model = &fpsem::global_code_model();
  const toolchain::BuildSystem build(model);
  const toolchain::Linker linker(model);
  const core::Runner runner(model);
  const toolchain::Compilation& c = build_comp();
  const core::RunOutput base =
      runner.run(test, linker.link(build.compile_all(c), c.compiler));
  const toolchain::Executable injected = linker.link(
      build.compile_all(c, /*fpic=*/false, /*injected=*/true), c.compiler);

  double cycles = 0.0;
  for (const core::InjectionReport& rep : reports) {
    auto hook =
        fpsem::InjectionHook::injector(rep.exp.site, rep.exp.op, rep.exp.eps);
    r.attempted += 1;
    try {
      core::RunOutput out;
      {
        Spans::Scope span(spans, "core.run");
        out = runner.run(test, injected, &hook);
      }
      cycles += out.cycles;
      const bool measurable =
          core::Runner::compare_outputs(test, base, out) != 0.0L;
      r.check(measurable ==
                  (rep.verdict != core::InjectionVerdict::NotMeasurable),
              1, "injection replay " + rep.expected_symbol);
    } catch (const core::ExecutionCrash&) {
      r.check(rep.verdict == core::InjectionVerdict::Missed, 1,
              "injection replay crash " + rep.expected_symbol);
    }
  }
  layer_timing(r, spans, "core.run", "core.run", 1e6, "us");
  const double run_busy = spans.busy_s("core.run");
  r.set("core.run.mcycles_per_s", run_busy > 0 ? cycles / run_busy / 1e6 : 0,
        "Mcycles/s");
}

}  // namespace

void run_injection(const Args& args, Result& r, Spans& spans) {
  gen::GenSpec spec;
  spec.seed = args.seed;
  spec.count = kKernels;
  const lulesh::LuleshTest lulesh_test(table5_options());
  std::vector<gen::GeneratedKernel> kernels;
  std::unique_ptr<core::InjectionCampaign> campaign;
  std::vector<fpsem::InjectionSite> sites;

  std::vector<core::InjectionReport> reports;
  std::vector<double> real_runs;
  std::uint64_t searches = 0, executions = 0;

  const auto setup = [&] {
    {
      Spans::Scope span(spans, "gen.generate");
      kernels = gen::generate(spec);  // validates every label
    }
    campaign = std::make_unique<core::InjectionCampaign>(
        &fpsem::global_code_model(), &lulesh_test, build_comp());
    campaign->set_scope(lulesh::lulesh_source_files());
    Spans::Scope span(spans, "core.injection.enumerate");
    sites = campaign->enumerate_sites();
  };

  const auto round = [&]() -> std::uint64_t {
    const std::uint64_t search0 = counter("bisect.searches");
    const std::uint64_t exec0 = counter("bisect.executions");

    // InjectionCampaign::run_all over the set-up's sites: the same
    // experiments in the same order, without enumerating them again.
    static constexpr fpsem::InjectOp kOps[] = {
        fpsem::InjectOp::Add, fpsem::InjectOp::Sub, fpsem::InjectOp::Mul,
        fpsem::InjectOp::Div};
    reports.clear();
    for (const fpsem::InjectionSite& s : sites) {
      for (const fpsem::InjectOp op : kOps) {
        Spans::Scope span(spans, "core.injection");
        reports.push_back(campaign->run_one(
            {s, op, core::InjectionCampaign::draw_eps(s, op)}));
      }
    }
    gen::GenCampaignResult gen_res;
    {
      Spans::Scope span(spans, "gen.campaign");
      gen_res = gen::run_injection_campaign(kernels, build_comp());
    }
    searches += counter("bisect.searches") - search0;
    executions += counter("bisect.executions") - exec0;
    // The memo is bypassed in injection mode, so every probe runs; each
    // generated kernel also runs once to enumerate its sites.
    real_runs.push_back(static_cast<double>(
        counter("bisect.executions") - exec0 + kernels.size()));

    const auto s = core::InjectionCampaign::summarize(reports);
    const auto n_lulesh = static_cast<std::uint64_t>(reports.size());
    r.check_eq("table5 exact/indirect/wrong/missed/not-measurable",
               std::to_string(kExact) + "/" + std::to_string(kIndirect) +
                   "/" + std::to_string(kWrong) + "/" +
                   std::to_string(kMissed) + "/" +
                   std::to_string(kNotMeasurable),
               std::to_string(s.exact) + "/" + std::to_string(s.indirect) +
                   "/" + std::to_string(s.wrong) + "/" +
                   std::to_string(s.missed) + "/" +
                   std::to_string(s.not_measurable),
               n_lulesh);
    r.check(s.precision() == 1.0 && s.recall() == 1.0, n_lulesh,
            "table5 precision/recall below 1");
    // Seed-independent: the generator guarantees every label, so bisect
    // must score every generated corpus perfectly.
    const auto& g = gen_res.total;
    const auto n_gen = static_cast<std::uint64_t>(gen_res.experiments);
    r.check(g.wrong == 0 && g.missed == 0 && g.precision() == 1.0 &&
                g.recall() == 1.0 &&
                gen_res.experiments == 4 * gen_res.sites &&
                static_cast<std::uint64_t>(g.total) == n_gen && n_gen > 0,
            n_gen, "generated corpus not scored at precision/recall 1");
    for (const gen::GeneratedKernel& k : kernels) {
      const gen::GroundTruthLabel label = k.label();
      r.check(gen::GroundTruthLabel::from_tsv_line(label.tsv_line()) == label,
              4, "label of " + k.name + " does not round-trip");
    }

    const std::uint64_t items = n_lulesh + n_gen;
    r.attempted += items;
    return items;
  };
  spans.set_enabled(args.trace);
  Loop loop;
  run_loop(args.seconds, 4, /*serial_round=*/true, spans, setup, round,
           loop);

  if (!args.trace) {
    end_to_end(r, loop, median(real_runs));
    return;
  }

  const double n = static_cast<double>(loop.rounds());
  const double experiments = static_cast<double>(loop.items()) / n;
  r.set("core.injection.experiments", experiments, "count");
  r.set("core.injection.executions_per_experiment",
        static_cast<double>(executions) / n / experiments, "count");
  r.set("core.injection.enumerate_s",
        median(spans.durations("core.injection.enumerate")), "s");
  r.set("core.bisect.searches", static_cast<double>(searches) / n, "count");
  r.set("core.bisect.executions", static_cast<double>(executions) / n,
        "count");
  r.set("gen.kernels", static_cast<double>(kernels.size()), "count");
  r.set("gen.generate_s", median(spans.durations("gen.generate")), "s");
  r.set("trace.overhead_ratio", loop.overhead_ratio(), "ratio");
  replay_injected_runs(lulesh_test, reports, spans, r);
}

}  // namespace flitbench
