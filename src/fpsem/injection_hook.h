#pragma once

// Reproduction of the paper's LLVM perturbation-injection pass (Sec. 3.5).
//
// A static injection *site* is one floating-point instruction, identified
// by (function, source file, line, column) -- we get the instruction
// identity from std::source_location at the FpEnv call site, which plays
// the role of the LLVM IR instruction address.  Pass 1 (Record mode)
// enumerates every site an execution reaches; pass 2 (Inject mode) arms a
// single site with `x OP' eps` applied to the first operand before the
// original `x OP y`, exactly the paper's transformation.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <source_location>
#include <string>
#include <unordered_set>
#include <vector>

#include "fpsem/code_model.h"

namespace flit::fpsem {

/// The four basic operations the paper injects with (OP').
enum class InjectOp : std::uint8_t { Add, Sub, Mul, Div };

[[nodiscard]] constexpr const char* to_string(InjectOp op) {
  switch (op) {
    case InjectOp::Add: return "+";
    case InjectOp::Sub: return "-";
    case InjectOp::Mul: return "*";
    case InjectOp::Div: return "/";
  }
  return "?";
}

/// One static floating-point instruction of the simulated application.
struct InjectionSite {
  FunctionId fn = kInvalidFunction;
  std::string file;       ///< host source file (from source_location)
  std::uint32_t line = 0;
  std::uint32_t column = 0;

  friend auto operator<=>(const InjectionSite&, const InjectionSite&) =
      default;
};

/// Record-or-inject hook consulted by every FpEnv basic operation.
class InjectionHook {
 public:
  enum class Mode { Record, Inject };

  /// Pass 1: enumerate reachable sites.
  static InjectionHook recorder() { return InjectionHook(Mode::Record); }

  /// Pass 2: arm `site` with perturbation `x -> x OP' eps`.
  static InjectionHook injector(InjectionSite site, InjectOp op, double eps) {
    InjectionHook h(Mode::Inject);
    h.target_ = std::move(site);
    h.op_ = op;
    h.eps_ = eps;
    return h;
  }

  [[nodiscard]] Mode mode() const { return mode_; }

  /// Function containing the armed site (Inject mode only).
  [[nodiscard]] FunctionId target_fn() const { return target_.fn; }

  /// Called by FpEnv for operand `x` of every basic FP instruction.  Kept
  /// out of line: FpEnv inlines into every kernel, and only hooked
  /// operations pay for this call.
  [[nodiscard, gnu::noinline]] double visit(
      FunctionId fn, double x, const std::source_location& loc) {
    if (mode_ == Mode::Record) {
      reached_.insert(
          ReachedSite{fn, loc.file_name(), loc.line(), loc.column()});
      return x;
    }
    if (fn == target_.fn && loc.line() == target_.line &&
        loc.column() == target_.column && target_.file == loc.file_name()) {
      ++hits_;
      switch (op_) {
        case InjectOp::Add: return x + eps_;
        case InjectOp::Sub: return x - eps_;
        case InjectOp::Mul: return x * eps_;
        case InjectOp::Div: return x / eps_;
      }
    }
    return x;
  }

  /// Sites discovered in Record mode, in deterministic order.
  [[nodiscard]] std::vector<InjectionSite> sites() const {
    std::vector<InjectionSite> out;
    out.reserve(reached_.size());
    for (const ReachedSite& r : reached_) {
      out.push_back(InjectionSite{r.fn, r.file, r.line, r.column});
    }
    // One source file can reach visit() under two file-name pointers
    // (e.g. a header inlined into two translation units): merge by content.
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  /// Number of dynamic executions of the armed site (Inject mode).
  [[nodiscard]] std::uint64_t hits() const { return hits_; }

 private:
  /// A site as visit() sees it, its file name kept by pointer so that
  /// recording an operation builds no string.
  struct ReachedSite {
    FunctionId fn;
    const char* file;
    std::uint32_t line;
    std::uint32_t column;

    friend bool operator==(const ReachedSite&, const ReachedSite&) = default;
  };
  struct ReachedSiteHash {
    std::size_t operator()(const ReachedSite& s) const noexcept {
      constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
      std::uint64_t h = std::hash<const char*>{}(s.file);
      h = (h ^ (std::uint64_t{s.line} << 32 | s.column)) * kMul;
      h = (h ^ s.fn) * kMul;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };

  explicit InjectionHook(Mode m) : mode_(m) {}

  Mode mode_;
  std::unordered_set<ReachedSite, ReachedSiteHash> reached_;
  InjectionSite target_;
  InjectOp op_ = InjectOp::Add;
  double eps_ = 0.0;
  std::uint64_t hits_ = 0;
};

}  // namespace flit::fpsem
