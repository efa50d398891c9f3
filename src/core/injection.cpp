#include "core/injection.h"

#include <algorithm>
#include <string_view>

#include "toolchain/build.h"
#include "toolchain/linker.h"
#include "toolchain/semantics_rules.h"

namespace flit::core {

namespace {

/// The repository-relative form of a std::source_location file name: its
/// suffix from the last `src/` path component
/// ("/any/checkout/src/lulesh/eos.cpp" -> "src/lulesh/eos.cpp"), or the
/// name itself when it has none.
std::string_view repo_relative(std::string_view file) {
  for (std::size_t pos = file.rfind("src/"); pos != std::string_view::npos;
       pos = pos == 0 ? std::string_view::npos : file.rfind("src/", pos - 1)) {
    if (pos == 0 || file[pos - 1] == '/') return file.substr(pos);
  }
  return file;
}

}  // namespace

const char* to_string(InjectionVerdict v) {
  switch (v) {
    case InjectionVerdict::Exact: return "exact find";
    case InjectionVerdict::Indirect: return "indirect find";
    case InjectionVerdict::Wrong: return "wrong find";
    case InjectionVerdict::Missed: return "missed find";
    case InjectionVerdict::NotMeasurable: return "not measurable";
  }
  return "?";
}

InjectionCampaign::InjectionCampaign(const fpsem::CodeModel* model,
                                     const TestBase* test,
                                     toolchain::Compilation build_comp)
    : model_(model), test_(test), comp_(std::move(build_comp)) {}

std::vector<fpsem::InjectionSite> InjectionCampaign::enumerate_sites() const {
  toolchain::BuildSystem build(model_);
  toolchain::Linker linker(model_);
  Runner runner(model_);

  auto hook = fpsem::InjectionHook::recorder();
  const auto objs = build.compile_all(comp_);
  const toolchain::Executable exe = linker.link(objs, comp_.compiler);
  (void)runner.run(*test_, exe, &hook);
  return hook.sites();
}

double InjectionCampaign::draw_eps(const fpsem::InjectionSite& site,
                                   fpsem::InjectOp op) {
  const std::string key = std::string(repo_relative(site.file)) + ":" +
                          std::to_string(site.line) + ":" +
                          std::to_string(site.column) + ":" +
                          std::to_string(static_cast<int>(op));
  const std::uint64_t h = toolchain::stable_hash(key);
  // Map to (0, 1), never exactly 0.
  return (static_cast<double>(h % 1000000007ULL) + 1.0) / 1000000008.0;
}

InjectionReport InjectionCampaign::run_one(
    const InjectionExperiment& e) const {
  InjectionReport report;
  report.exp = e;

  const fpsem::FunctionInfo& fi = model_->info(e.site.fn);
  report.expected_symbol = fi.exported ? fi.name : fi.host_symbol;

  auto hook = fpsem::InjectionHook::injector(e.site, e.op, e.eps);

  BisectConfig cfg;
  cfg.baseline = comp_;
  cfg.variable = comp_;
  cfg.scope = scope_;
  cfg.hook = &hook;

  BisectDriver driver(model_, test_, cfg);
  const HierarchicalOutcome out = driver.run();
  report.executions = out.executions;

  if (out.crashed) {
    report.verdict = InjectionVerdict::Missed;
    return report;
  }
  if (out.whole_value == 0.0) {
    report.verdict = InjectionVerdict::NotMeasurable;
    return report;
  }
  for (const FileFinding& ff : out.findings) {
    if (ff.status == FileFinding::SymbolStatus::Found) {
      for (const SymbolFinding& sf : ff.symbols) {
        report.reported_symbols.push_back(sf.symbol);
      }
    } else {
      // File-level-only report: treat the file name as the reported unit.
      report.reported_symbols.push_back(ff.file);
    }
  }

  if (report.reported_symbols.empty()) {
    report.verdict = InjectionVerdict::Missed;
  } else if (fi.exported &&
             std::find(report.reported_symbols.begin(),
                       report.reported_symbols.end(),
                       fi.name) != report.reported_symbols.end()) {
    report.verdict = InjectionVerdict::Exact;
  } else if (!fi.exported &&
             std::find(report.reported_symbols.begin(),
                       report.reported_symbols.end(),
                       fi.host_symbol) != report.reported_symbols.end()) {
    report.verdict = InjectionVerdict::Indirect;
  } else if (std::find(report.reported_symbols.begin(),
                       report.reported_symbols.end(),
                       fi.file) != report.reported_symbols.end()) {
    // Only the right file could be reported (e.g. no exported symbols).
    report.verdict = InjectionVerdict::Indirect;
  } else {
    report.verdict = InjectionVerdict::Wrong;
  }
  return report;
}

std::vector<InjectionReport> InjectionCampaign::run_all() const {
  std::vector<InjectionReport> reports;
  const auto sites = enumerate_sites();
  static constexpr fpsem::InjectOp kOps[] = {
      fpsem::InjectOp::Add, fpsem::InjectOp::Sub, fpsem::InjectOp::Mul,
      fpsem::InjectOp::Div};
  reports.reserve(sites.size() * 4);
  for (const fpsem::InjectionSite& s : sites) {
    for (fpsem::InjectOp op : kOps) {
      InjectionExperiment e{s, op, draw_eps(s, op)};
      reports.push_back(run_one(e));
    }
  }
  return reports;
}

double InjectionCampaign::Summary::precision() const {
  const int reported = exact + indirect + wrong;
  if (reported == 0) return 1.0;
  return static_cast<double>(exact + indirect) / reported;
}

double InjectionCampaign::Summary::recall() const {
  const int measurable = exact + indirect + missed;
  if (measurable == 0) return 1.0;
  return static_cast<double>(exact + indirect) / measurable;
}

InjectionCampaign::Summary& InjectionCampaign::Summary::operator+=(
    const Summary& o) {
  const int mine = total - not_measurable;
  const int theirs = o.total - o.not_measurable;
  if (mine + theirs > 0) {
    avg_executions = (avg_executions * mine + o.avg_executions * theirs) /
                     (mine + theirs);
  }
  exact += o.exact;
  indirect += o.indirect;
  wrong += o.wrong;
  missed += o.missed;
  not_measurable += o.not_measurable;
  total += o.total;
  return *this;
}

InjectionCampaign::Summary InjectionCampaign::summarize(
    std::span<const InjectionReport> reports) {
  Summary s;
  double exec_sum = 0.0;
  int exec_n = 0;
  for (const InjectionReport& r : reports) {
    ++s.total;
    switch (r.verdict) {
      case InjectionVerdict::Exact: ++s.exact; break;
      case InjectionVerdict::Indirect: ++s.indirect; break;
      case InjectionVerdict::Wrong: ++s.wrong; break;
      case InjectionVerdict::Missed: ++s.missed; break;
      case InjectionVerdict::NotMeasurable: ++s.not_measurable; break;
    }
    if (r.verdict != InjectionVerdict::NotMeasurable) {
      exec_sum += r.executions;
      ++exec_n;
    }
  }
  s.avg_executions = exec_n > 0 ? exec_sum / exec_n : 0.0;
  return s;
}

}  // namespace flit::core
