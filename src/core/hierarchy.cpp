#include "core/hierarchy.h"

#include <algorithm>
#include <span>
#include <utility>

#include "core/bisect_biggest.h"
#include "core/faults.h"
#include "core/probe_memo.h"
#include "obs/session.h"
#include "toolchain/objcopy.h"

namespace flit::core {

namespace {

RunOutput truncated(RunOutput out, int digits) {
  if (digits <= 0) return out;
  for (TestResult& r : out.results) {
    if (auto* v = std::get_if<long double>(&r)) {
      *v = truncate_digits(*v, digits);
    }
  }
  return out;
}

/// The culprits of one Bisect level, largest Test value first, plus
/// BisectAll's verification diagnostic (empty when both assertions held;
/// BisectBiggest cannot verify).
struct Culprits {
  std::vector<std::pair<std::string, double>> found;
  std::string diagnostic;
};

/// The culprit search both levels share: BisectBiggest when k > 0, else
/// BisectAll, whose culprits are then valued by their singleton Test.
Culprits find_culprits(MemoizedTest<std::string>& test,
                       const std::vector<std::string>& items, int k) {
  Culprits out;
  if (k > 0) {
    for (RankedFinding<std::string>& rf :
         bisect_biggest(test, items, k).found) {
      out.found.emplace_back(std::move(rf.element), rf.value);
    }
  } else {
    BisectOutcome<std::string> all = bisect_all(test, items);
    out.diagnostic = std::move(all.diagnostic);
    for (std::string& e : all.found) {
      const double value = test({e});
      out.found.emplace_back(std::move(e), value);
    }
  }
  std::sort(out.found.begin(), out.found.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

}  // namespace

BisectDriver::BisectDriver(const fpsem::CodeModel* model, const TestBase* test,
                           BisectConfig cfg,
                           toolchain::CompilationCache* cache)
    : model_(model),
      test_(test),
      cfg_(std::move(cfg)),
      build_(model, cache),
      linker_(model),
      runner_(model) {}

long double BisectDriver::metric(const RunOutput& out) const {
  return Runner::compare_outputs(*test_, baseline_out_,
                                 truncated(out, cfg_.digits));
}

RunOutput BisectDriver::execute(
    std::span<const toolchain::ObjectFile* const> line) {
  ++executions_;
  // Per-probe fault scope: decisions vary deterministically across the
  // probes of one search (the execution ordinal is driver-local, so the
  // sequence is identical at any --jobs count) instead of dooming every
  // probe of a test at once.
  FaultInjector::ScopedTrial trial(
      "bisect|" + cfg_.variable.str() + "#" + std::to_string(executions_),
      0);
  const toolchain::Executable exe =
      linker_.link(line, cfg_.baseline.compiler);
  // The memo only short-circuits plain runs: an injection hook's output is
  // not a function of the binary alone, and an armed fault injector must
  // see every probe roll its run-site decision.
  if (cfg_.memo == nullptr || cfg_.hook != nullptr ||
      FaultInjector::global().any_armed()) {
    return runner_.run(*test_, exe, cfg_.hook);
  }
  ProbeMemo::Answer answer = cfg_.memo->probe_scoped(*test_, runner_, exe);
  if (answer.hit) ++memo_hits_;
  if (answer.entry.crashed) throw ExecutionCrash(answer.entry.crash_reason);
  return std::move(answer.entry.output);
}

HierarchicalOutcome BisectDriver::run() {
  // The search itself is untouched (run_impl); the wrapper only accounts
  // for it.  The span cost is the search's headline metric -- real program
  // executions -- so a trace shows at a glance which searches were cheap
  // and which burned the budget.
  static obs::Counter& m_searches = obs::metrics().counter("bisect.searches");
  static obs::Counter& m_executions =
      obs::metrics().counter("bisect.executions");
  static obs::Counter& m_memo_hits =
      obs::metrics().counter("bisect.memo_hits");
  m_searches.add();
  obs::Span span(obs::tracer_if_enabled(), "bisect", "bisect",
                 cfg_.variable.str());
  HierarchicalOutcome out = run_impl();
  out.executions = executions_;
  out.memo_hits = memo_hits_;
  m_executions.add(static_cast<std::uint64_t>(
      out.executions > 0 ? out.executions : 0));
  m_memo_hits.add(
      static_cast<std::uint64_t>(out.memo_hits > 0 ? out.memo_hits : 0));
  span.set_cost(static_cast<double>(out.executions));
  return out;
}

HierarchicalOutcome BisectDriver::run_impl() {
  HierarchicalOutcome out;

  // base_objs_[i] is the baseline object of model file i.
  base_objs_ = build_.compile_all(cfg_.baseline);
  std::vector<const toolchain::ObjectFile*> line;
  line.reserve(base_objs_.size());
  for (const toolchain::ObjectFile& o : base_objs_) line.push_back(&o);
  baseline_out_ = truncated(execute(line), cfg_.digits);

  // Variable-compilation objects, one per in-scope file (compilation is a
  // one-time cost; linking dominates searches).
  const std::vector<std::string>& all_files = model_->files();
  const std::vector<std::string> files =
      cfg_.scope.empty() ? all_files : cfg_.scope;
  std::vector<toolchain::ObjectFile> var_objs;
  var_objs.reserve(files.size());
  for (const std::string& f : files) {
    var_objs.push_back(build_.compile(f, cfg_.variable, /*fpic=*/false,
                                      cfg_.hook != nullptr));
  }
  // var_of[i]: the variable object of model file i (null out of scope).
  std::vector<const toolchain::ObjectFile*> var_of(all_files.size(), nullptr);
  for (std::size_t k = 0; k < files.size(); ++k) {
    const std::size_t i = *model_->file_index(files[k]);
    if (var_of[i] == nullptr) var_of[i] = &var_objs[k];
  }

  // ---- File Bisect ------------------------------------------------------
  MemoizedTest<std::string> file_test(
      [&](const std::vector<std::string>& subset) -> double {
        for (std::size_t i = 0; i < all_files.size(); ++i) {
          const bool variable =
              std::find(subset.begin(), subset.end(), all_files[i]) !=
              subset.end();
          line[i] = variable ? var_of[i] : &base_objs_[i];
        }
        return static_cast<double>(metric(execute(line)));
      });

  try {
    out.whole_value = file_test(files);
    Culprits culprits = find_culprits(file_test, files, cfg_.k);
    if (!culprits.diagnostic.empty()) {
      out.assumptions_verified = false;
      out.diagnostic += "[file] " + culprits.diagnostic;
    }
    for (auto& [file, value] : culprits.found) {
      out.findings.push_back(FileFinding{std::move(file), value});
    }
  } catch (const ExecutionCrash& e) {
    out.crashed = true;
    out.crash_reason = e.what();
    return out;
  }

  // ---- Symbol Bisect per found file --------------------------------------
  std::vector<SymbolFinding> global_symbols;  // for the k-mode early exit
  for (FileFinding& ff : out.findings) {
    if (cfg_.k > 0 && static_cast<int>(global_symbols.size()) >= cfg_.k) {
      // Early exit (Sec. 2.5): this file cannot beat the k-th symbol.
      std::sort(global_symbols.begin(), global_symbols.end(),
                [](const SymbolFinding& a, const SymbolFinding& b) {
                  return a.value > b.value;
                });
      if (ff.value <=
          global_symbols[static_cast<std::size_t>(cfg_.k) - 1].value) {
        ff.status = FileFinding::SymbolStatus::NotSearched;
        ff.note = "skipped by BisectBiggest early exit";
        continue;
      }
    }
    symbol_phase(ff);
    for (const SymbolFinding& sf : ff.symbols) global_symbols.push_back(sf);
  }

  // Re-derive the verification flag from symbol phases' notes.
  for (const FileFinding& ff : out.findings) {
    if (ff.status == FileFinding::SymbolStatus::Found && !ff.note.empty()) {
      out.assumptions_verified = false;
      out.diagnostic += "[" + ff.file + "] " + ff.note;
    }
  }
  return out;
}

void BisectDriver::symbol_phase(FileFinding& finding) {
  const std::string& file = finding.file;
  const std::vector<std::string> symbols = model_->exported_symbols_of(file);
  if (symbols.empty()) {
    finding.status = FileFinding::SymbolStatus::NotSearched;
    finding.note = "file exports no symbols";
    return;
  }

  // Recompile the file with -fPIC under both compilations (Sec. 2.3).
  const toolchain::ObjectFile var_fpic = build_.compile(
      file, cfg_.variable, /*fpic=*/true, cfg_.hook != nullptr);
  const toolchain::ObjectFile base_fpic =
      build_.compile(file, cfg_.baseline, /*fpic=*/true);

  // Every baseline object but the file's own, then the probe's copies.
  std::vector<const toolchain::ObjectFile*> line;
  for (const toolchain::ObjectFile& o : base_objs_) {
    if (o.source_file != file) line.push_back(&o);
  }
  const std::size_t others = line.size();
  const auto line_with = [&](const toolchain::ObjectFile& a,
                             const toolchain::ObjectFile* b = nullptr) {
    line.resize(others);
    line.push_back(&a);
    if (b != nullptr) line.push_back(b);
    return std::span<const toolchain::ObjectFile* const>(line);
  };

  try {
    // -fPIC pre-check: does the variability survive the recompile?
    if (metric(execute(line_with(var_fpic))) == 0.0L) {
      finding.status = FileFinding::SymbolStatus::VanishedUnderFpic;
      finding.note = "variability removed by -fPIC; reporting file only";
      return;
    }

    // The two objcopy'd copies, re-weakened in place by every probe.
    toolchain::ObjectFile v = var_fpic;
    toolchain::ObjectFile b = base_fpic;
    MemoizedTest<std::string> sym_test(
        [&](const std::vector<std::string>& chosen) -> double {
          // Variable copy: chosen symbols strong, others weak.
          // Baseline copy: chosen symbols weak, others strong.
          toolchain::objcopy_weaken_complement_into(v, var_fpic, chosen);
          toolchain::objcopy_weaken_into(b, base_fpic, chosen);
          return static_cast<double>(metric(execute(line_with(v, &b))));
        });

    Culprits culprits = find_culprits(sym_test, symbols, cfg_.k);
    finding.note = std::move(culprits.diagnostic);
    for (auto& [symbol, value] : culprits.found) {
      finding.symbols.push_back(SymbolFinding{std::move(symbol), value});
    }
    finding.status = FileFinding::SymbolStatus::Found;
  } catch (const ExecutionCrash& e) {
    finding.status = FileFinding::SymbolStatus::Crashed;
    finding.note = e.what();
  }
}

}  // namespace flit::core
