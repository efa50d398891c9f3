#include "core/report.h"

#include <sstream>

namespace flit::core {

namespace {

const char* status_name(FileFinding::SymbolStatus s) {
  switch (s) {
    case FileFinding::SymbolStatus::Found: return "symbols found";
    case FileFinding::SymbolStatus::VanishedUnderFpic:
      return "file-level only (-fPIC removed the variability)";
    case FileFinding::SymbolStatus::Crashed:
      return "symbol search crashed";
    case FileFinding::SymbolStatus::NotSearched: return "not searched";
  }
  return "?";
}

}  // namespace

std::string study_csv(const StudyResult& r) {
  std::ostringstream os;
  os << "compilation,speedup,variability,bitwise_equal,status,reason\n";
  for (const CompilationOutcome& o : r.outcomes) {
    std::string reason = o.reason;
    for (char& c : reason) {
      if (c == ',' || c == '"' || c == '\n') c = ';';
    }
    os << '"' << o.comp.str() << "\"," << o.speedup << ','
       << static_cast<double>(o.variability) << ','
       << (o.bitwise_equal() ? 1 : 0) << ',' << to_string(o.status) << ','
       << reason << '\n';
  }
  return os.str();
}

std::string failure_report(const StudyResult& r) {
  std::ostringstream os;
  const std::size_t failed = r.failed_count();
  const std::size_t retried = r.retried_count();
  const std::size_t degraded = r.degraded_count();
  if (failed == 0 && retried == 0) return os.str();
  // Degraded cells were never attempted (the fleet ran out of live
  // ranks), so they are reported apart from the quarantined items whose
  // every attempt failed.  With none, the line is byte-identical to the
  // historical format.  No line prints an attempt count: the database
  // does not store it, so a resumed study could not print the same one.
  os << "failure accounting: " << failed - degraded << " of "
     << r.outcomes.size() << " compilations quarantined, " << retried
     << " recovered by retry";
  if (degraded > 0) os << ", " << degraded << " degraded";
  os << '\n';
  for (const CompilationOutcome& o : r.outcomes) {
    if (o.status == OutcomeStatus::Degraded) {
      os << "  DEGRADED " << o.comp.str() << ": " << o.reason << '\n';
    } else if (o.failed()) {
      os << "  QUARANTINED " << o.comp.str() << " [" << to_string(o.status)
         << "]: " << o.reason << '\n';
    } else if (o.status == OutcomeStatus::Retried) {
      os << "  retried " << o.comp.str() << ": " << o.reason << '\n';
    }
  }
  return os.str();
}

std::string study_summary(const StudyResult& r) {
  std::ostringstream os;
  os << "test " << r.test_name << ": " << r.outcomes.size()
     << " compilations, " << r.variable_count() << " variable";
  if (const std::size_t failed = r.failed_count(); failed > 0) {
    os << ", " << failed << " failed";
  }
  if (const std::size_t degraded = r.degraded_count(); degraded > 0) {
    os << " (" << degraded << " degraded)";
  }
  if (const std::size_t retried = r.retried_count(); retried > 0) {
    os << ", " << retried << " retried";
  }
  if (const auto* fe = r.fastest_equal()) {
    os << "; fastest bitwise-equal " << fe->comp.str() << " (speedup "
       << fe->speedup << ")";
  } else {
    os << "; no bitwise-equal compilation";
  }
  if (const auto* fv = r.fastest_variable()) {
    os << "; fastest variable " << fv->comp.str() << " (speedup "
       << fv->speedup << ", variability "
       << static_cast<double>(fv->variability) << ")";
  }
  if (const auto stats = r.variability_stats()) {
    os << "; variability range [" << static_cast<double>(stats->min) << ", "
       << static_cast<double>(stats->max) << "]";
  }
  return os.str();
}

std::string bisect_report(const HierarchicalOutcome& out) {
  std::ostringstream os;
  if (out.crashed) {
    os << "bisect FAILED after " << out.executions
       << " executions: " << out.crash_reason << '\n';
    return os.str();
  }
  if (out.nothing_found()) {
    os << "no variability attributable to any translation unit ("
       << out.executions
       << " executions); suspect the link step or external libraries\n";
    return os.str();
  }
  os << "blame list (" << out.executions << " program executions"
     << (out.assumptions_verified ? ", assumptions verified"
                                  : ", ASSUMPTIONS NOT VERIFIED")
     << "):\n";
  for (const FileFinding& ff : out.findings) {
    os << "  " << ff.file << "  [Test " << ff.value << "] -- "
       << status_name(ff.status) << '\n';
    for (const SymbolFinding& sf : ff.symbols) {
      os << "    " << sf.symbol << "  [Test " << sf.value << "]\n";
    }
    if (!ff.note.empty()) os << "    note: " << ff.note << '\n';
  }
  if (!out.diagnostic.empty()) os << "  diagnostic: " << out.diagnostic << '\n';
  return os.str();
}

std::string workflow_report_text(const WorkflowReport& report) {
  std::ostringstream os;
  os << study_summary(report.study) << '\n';
  os << failure_report(report.study);
  if (const std::size_t fb = report.failed_bisect_count(); fb > 0) {
    os << "failed searches: " << fb << " of " << report.bisects.size()
       << " bisects ended without a blame list (Table 2 failure mode)\n";
  }
  if (report.bisects_skipped > 0) {
    os << report.bisects_skipped
       << " variable compilation(s) not bisected (--max-bisects "
       << report.max_bisects << ")\n";
  }
  if (report.fastest_reproducible != nullptr) {
    os << "recommendation: " << report.fastest_reproducible->comp.str()
       << " is the fastest reproducible compilation (speedup "
       << report.fastest_reproducible->speedup << ")\n";
  } else {
    os << "recommendation: no reproducible compilation exists; review the "
          "blame lists below\n";
  }
  for (const VariableCompilationReport& vb : report.bisects) {
    os << "--- " << vb.outcome.comp.str() << " (variability "
       << static_cast<double>(vb.outcome.variability) << ")\n"
       << bisect_report(vb.bisect);
  }
  return os.str();
}

}  // namespace flit::core
