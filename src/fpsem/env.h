#pragma once

// FpEnv: the per-function floating-point evaluation environment.
//
// A linked binary in this reproduction is a SemanticsMap: FunctionId ->
// FnBinding.  When a kernel runs it opens an FpEnv for its own FunctionId
// and performs all arithmetic through it; the env applies the semantics the
// function was "compiled" with (FMA contraction, lane reassociation,
// extended precision, unsafe rewrites, FTZ, fast libm), feeds the
// deterministic cost model, and gives the injection framework a chance to
// perturb each static instruction.  This is what makes FLiT's mixed
// ("Franken") binaries meaningful: two functions in one execution can run
// under different compilers' floating-point behaviour.
//
// Every program run evaluates each of its operations here, so the
// per-operation path is kept short.  An env copies what its operations
// read from the binding into value members when it opens, and decides
// once whether anything can act on a scalar operation: an armed
// injection hook (which may perturb the first operand) or FTZ (which may
// flush the result).  When neither can, add/sub/mul/div/mul_add just
// tally and compute; otherwise they also probe, through an out-of-line
// call into the hook, and flush.  Both paths run one source copy of each
// operation's arithmetic and tally, so results and modeled cycles never
// depend on the path taken.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <source_location>
#include <span>
#include <type_traits>
#include <vector>

#include "fpsem/code_model.h"
#include "fpsem/injection_hook.h"
#include "fpsem/op_counter.h"
#include "fpsem/semantics.h"

namespace flit::fpsem {

/// FunctionId -> FnBinding table describing one linked executable.
class SemanticsMap {
 public:
  SemanticsMap() = default;
  explicit SemanticsMap(std::size_t n_functions) : bindings_(n_functions) {}

  /// Every function bound to the same compilation.
  static SemanticsMap uniform(std::size_t n_functions, FnBinding b) {
    SemanticsMap m(n_functions);
    for (auto& x : m.bindings_) x = b;
    return m;
  }

  [[nodiscard]] std::size_t size() const { return bindings_.size(); }
  [[nodiscard]] const FnBinding& binding(FunctionId id) const {
    return bindings_.at(id);
  }
  FnBinding& binding(FunctionId id) { return bindings_.at(id); }

  friend bool operator==(const SemanticsMap&, const SemanticsMap&) = default;

 private:
  std::vector<FnBinding> bindings_;
};

class FpEnv;

/// Mutable execution state for one run of the application: the binary's
/// semantics map, the cycle counter, and an optional injection hook.
class EvalContext {
 public:
  explicit EvalContext(SemanticsMap map) : map_(std::move(map)) {}

  /// Opens the evaluation environment for function `id`.  A recorder hook
  /// reaches every env; an injector only its target function's.
  [[nodiscard]] FpEnv fn(FunctionId id);

  [[nodiscard]] const SemanticsMap& map() const { return map_; }
  [[nodiscard]] OpCounter& counter() { return counter_; }
  [[nodiscard]] const OpCounter& counter() const { return counter_; }

  void set_injection_hook(InjectionHook* hook) { hook_ = hook; }
  [[nodiscard]] InjectionHook* injection_hook() const { return hook_; }

  /// From now on, sets `(*reach)[id]` for each id fn() opens; `reach` is
  /// first sized to the map, all false.  fn() is the map's only reader, so
  /// without a hook a run depends on exactly the bindings it reached.
  void record_reach(std::vector<bool>* reach) {
    reach->assign(map_.size(), false);
    reach_ = reach;
  }

 private:
  SemanticsMap map_;
  OpCounter counter_;
  InjectionHook* hook_ = nullptr;
  std::vector<bool>* reach_ = nullptr;  ///< set by record_reach()
};

class FpEnv {
 public:
  FpEnv(const FnBinding& b, OpCounter& cnt, InjectionHook* hook,
        FunctionId fn)
      : sem_(b.sem),
        time_scale_(b.cost.time_scale),
        bulk_scale_(b.cost.bulk_scale),
        lanes_(b.sem.reassoc_width > 1
                   ? static_cast<std::size_t>(b.sem.reassoc_width)
                   : 1),
        cnt_(&cnt),
        hook_(hook),
        fn_(fn),
        checked_(hook != nullptr || b.sem.flush_subnormals) {}

  [[nodiscard]] const FpSemantics& sem() const { return sem_; }
  [[nodiscard]] FunctionId fn() const { return fn_; }

  // ---- scalar basic operations (injection-probed) --------------------

  double add(double a, double b, std::source_location loc =
                                     std::source_location::current()) {
    return basic(a, loc, [this, b](double x) {
      tally(OpClass::Add, 1, OpCosts::kAdd);
      return wide() ? narrow(widen(x) + widen(b)) : x + b;
    });
  }

  double sub(double a, double b, std::source_location loc =
                                     std::source_location::current()) {
    return basic(a, loc, [this, b](double x) {
      tally(OpClass::Sub, 1, OpCosts::kAdd);
      return wide() ? narrow(widen(x) - widen(b)) : x - b;
    });
  }

  double mul(double a, double b, std::source_location loc =
                                     std::source_location::current()) {
    return basic(a, loc, [this, b](double x) {
      tally(OpClass::Mul, 1, OpCosts::kMul);
      return wide() ? narrow(widen(x) * widen(b)) : x * b;
    });
  }

  double div(double a, double b, std::source_location loc =
                                     std::source_location::current()) {
    return basic(a, loc, [this, b](double x) {
      if (sem_.unsafe_math) {
        tally(OpClass::Div, 1, OpCosts::kDivFast);
        return x * (1.0 / b);
      }
      tally(OpClass::Div, 1, OpCosts::kDiv);
      return wide() ? narrow(widen(x) / widen(b)) : x / b;
    });
  }

  /// a*b + c, contracted to fused multiply-add when the semantics allow.
  double mul_add(double a, double b, double c,
                 std::source_location loc =
                     std::source_location::current()) {
    return basic(a, loc, [this, b, c](double x) {
      if (sem_.contract_fma) {
        tally(OpClass::Fma, 1, OpCosts::kFma);
        return std::fma(x, b, c);
      }
      tally(OpClass::Fma, 1, OpCosts::kMul + OpCosts::kAdd);
      return wide() ? narrow(widen(x) * widen(b) + widen(c)) : x * b + c;
    });
  }

  // ---- irrational / transcendental operations ------------------------

  double sqrt(double x) {
    if (sem_.unsafe_math) {
      // Reciprocal-sqrt seeded in single precision, two Newton steps:
      // accurate to ~1e-13 relative -- the subtle kind of deviation
      // -mrecip / -fp-model fast introduce.
      tally(OpClass::Sqrt, 1, OpCosts::kSqrtFast);
      if (x == 0.0) return finish(x);
      double r = static_cast<double>(1.0f / std::sqrt(static_cast<float>(x)));
      r = r * (1.5 - 0.5 * x * r * r);
      r = r * (1.5 - 0.5 * x * r * r);
      return finish(x * r);
    }
    tally(OpClass::Sqrt, 1, OpCosts::kSqrt);
    return finish(std::sqrt(x));
  }

  double exp(double x) { return libm1(x, [](double v) { return std::exp(v); },
                                      [](float v) { return std::exp(v); }); }
  double log(double x) { return libm1(x, [](double v) { return std::log(v); },
                                      [](float v) { return std::log(v); }); }
  double sin(double x) { return libm1(x, [](double v) { return std::sin(v); },
                                      [](float v) { return std::sin(v); }); }
  double cos(double x) { return libm1(x, [](double v) { return std::cos(v); },
                                      [](float v) { return std::cos(v); }); }

  double pow(double x, double y) {
    if (sem_.unsafe_math) {
      // exp(y * log(x)) rewrite (value-unsafe for many corner cases).
      return exp(mul(y, log(x)));
    }
    if (sem_.fast_libm) {
      tally(OpClass::Libm, 1, OpCosts::kLibmFast);
      return finish(static_cast<double>(
          std::pow(static_cast<float>(x), static_cast<float>(y))));
    }
    tally(OpClass::Libm, 1, OpCosts::kLibm);
    return finish(std::pow(x, y));
  }

  // ---- bulk (vectorizable) operations ---------------------------------
  //
  // Reductions honour the lane count: a strict compilation accumulates
  // left-to-right; a reassociating one keeps `reassoc_width` stride-w
  // partial sums, exactly the transformation a SIMD vectorizer performs.

  double sum(std::span<const double> v,
             std::source_location loc = std::source_location::current()) {
    tally_bulk(OpClass::Add, v.size(), OpCosts::kAdd);
    if (wide()) return finish(narrow(sum_impl<long double>(v, loc)));
    return finish(sum_impl<double>(v, loc));
  }

  double dot(std::span<const double> a, std::span<const double> b,
             std::source_location loc = std::source_location::current()) {
    const double per =
        sem_.contract_fma ? OpCosts::kFma : OpCosts::kMul + OpCosts::kAdd;
    tally_bulk(sem_.contract_fma ? OpClass::Fma : OpClass::Mul, a.size(),
               per);
    if (wide()) return finish(narrow(dot_impl<long double>(a, b, loc)));
    return finish(dot_impl<double>(a, b, loc));
  }

  /// y += alpha * x, elementwise.
  void axpy(double alpha, std::span<const double> x, std::span<double> y,
            std::source_location loc = std::source_location::current()) {
    const double per =
        sem_.contract_fma ? OpCosts::kFma : OpCosts::kMul + OpCosts::kAdd;
    tally_bulk(sem_.contract_fma ? OpClass::Fma : OpClass::Mul, x.size(),
               per);
    with_operand(loc, [&](auto operand) {
      for (std::size_t i = 0; i < x.size(); ++i) {
        const double xi = operand(x[i]);
        double r;
        if (sem_.contract_fma) {
          r = std::fma(alpha, xi, y[i]);
        } else if (wide()) {
          r = narrow(widen(alpha) * widen(xi) + widen(y[i]));
        } else {
          r = alpha * xi + y[i];
        }
        y[i] = finish(r);
      }
    });
  }

  /// x *= alpha, elementwise.
  void scal(double alpha, std::span<double> x,
            std::source_location loc = std::source_location::current()) {
    tally_bulk(OpClass::Mul, x.size(), OpCosts::kMul);
    with_operand(loc, [&](auto operand) {
      for (auto& xi : x) xi = finish(operand(xi) * alpha);
    });
  }

  /// sqrt(dot(v, v)) under this function's semantics.
  double norm2(std::span<const double> v,
               std::source_location loc = std::source_location::current()) {
    return sqrt(dot(v, v, loc));
  }

 private:
  /// Reductions up to this many lanes keep their accumulators on the
  /// stack; wider ones fall back to the heap.
  static constexpr std::size_t kStackLanes = 16;

  /// Evaluates a scalar basic operation whose first operand is `a`:
  /// `f` tallies the operation and computes it.  With nothing to act on
  /// the operation (no hook armed, no FTZ) `f` runs on `a` as is;
  /// otherwise on the probed operand, with the result flushed.  The only
  /// call either path makes is the hook's out-of-line visit(), which is
  /// never handed the env: an env whose address escapes to no call can
  /// stay in registers across the kernel it is inlined into.
  template <typename F>
  double basic(double a, const std::source_location& loc, F f) {
    if (!checked_) [[likely]] return f(a);
    return finish(f(probe(a, loc)));
  }

  /// Runs `body(operand)`, where `operand` maps each element a bulk
  /// operation reads as its first operand: the injection probe when a
  /// hook is armed, the identity otherwise.  The choice is made once per
  /// call, so unhooked loops carry no per-element check.
  template <typename Body>
  void with_operand(const std::source_location& loc, Body body) {
    if (hook_ == nullptr) {
      body([](double x) { return x; });
    } else {
      body([&](double x) { return hook_->visit(fn_, x, loc); });
    }
  }

  template <typename Acc>
  Acc sum_impl(std::span<const double> v, const std::source_location& loc) {
    Acc total{0};
    with_operand(loc, [&](auto operand) {
      total = reduce<Acc>(v.size(), [&](Acc& lane, std::size_t i) {
        lane += static_cast<Acc>(operand(v[i]));
      });
    });
    return total;
  }

  template <typename Acc>
  Acc dot_impl(std::span<const double> a, std::span<const double> b,
               const std::source_location& loc) {
    const bool fma = sem_.contract_fma;
    Acc total{0};
    with_operand(loc, [&](auto operand) {
      total = reduce<Acc>(a.size(), [&](Acc& lane, std::size_t i) {
        const double ai = operand(a[i]);
        if constexpr (std::is_same_v<Acc, double>) {
          lane = fma ? std::fma(ai, b[i], lane) : lane + ai * b[i];
        } else {
          // extended precision dominates: products and sums both wide
          lane += static_cast<Acc>(ai) * static_cast<Acc>(b[i]);
        }
      });
    });
    return total;
  }

  /// Deals element i of [0, n) to lane i mod w, over the w = lanes_
  /// accumulators, via `step(lane, i)`; then combines lanes 0..w-1, in
  /// order, into Acc{0}.
  template <typename Acc, typename Step>
  Acc reduce(std::size_t n, Step step) const {
    Acc stack[kStackLanes];
    std::vector<Acc> heap;
    Acc* acc = stack;
    if (lanes_ > kStackLanes) {
      heap.resize(lanes_);
      acc = heap.data();
    }
    std::fill_n(acc, lanes_, Acc{0});
    for (std::size_t i = 0, lane = 0; i < n; ++i) {
      step(acc[lane], i);
      if (++lane == lanes_) lane = 0;
    }
    Acc total{0};
    for (std::size_t l = 0; l < lanes_; ++l) total += acc[l];
    return total;
  }

  template <typename F, typename Ff>
  double libm1(double x, F precise, Ff fast) {
    if (sem_.fast_libm) {
      tally(OpClass::Libm, 1, OpCosts::kLibmFast);
      return finish(static_cast<double>(fast(static_cast<float>(x))));
    }
    tally(OpClass::Libm, 1, OpCosts::kLibm);
    return finish(precise(x));
  }

  [[nodiscard]] bool wide() const { return sem_.extended_precision; }

  [[nodiscard]] static long double widen(double x) {
    return static_cast<long double>(x);
  }
  [[nodiscard]] static double narrow(long double x) {
    return static_cast<double>(x);
  }

  double probe(double x, const std::source_location& loc) {
    return hook_ ? hook_->visit(fn_, x, loc) : x;
  }

  double finish(double r) const {
    if (sem_.flush_subnormals && r != 0.0 && std::fpclassify(r) == FP_SUBNORMAL) {
      return std::copysign(0.0, r);
    }
    return r;
  }

  // Modeled cycles are an in-order double sum: every operation adds its
  // own n * per_op * time_scale [/ bulk_scale] as it runs.
  void tally(OpClass cls, std::uint64_t n, double per_op) {
    cnt_->tally(cls, n, static_cast<double>(n) * per_op * time_scale_);
  }
  void tally_bulk(OpClass cls, std::uint64_t n, double per_op) {
    cnt_->tally(cls, n,
                static_cast<double>(n) * per_op * time_scale_ / bulk_scale_);
  }

  FpSemantics sem_;
  double time_scale_;
  double bulk_scale_;
  std::size_t lanes_;  ///< reduction lanes: reassoc_width, at least 1
  OpCounter* cnt_;
  InjectionHook* hook_;
  FunctionId fn_;
  bool checked_;  ///< a hook is armed or FTZ is on: probe and flush
};

inline FpEnv EvalContext::fn(FunctionId id) {
  // An injector perturbs its target function only: visit() returns every
  // other function's operands unchanged and counts no hit there, so those
  // functions run unhooked.  A recorder sees every function.
  InjectionHook* hook = hook_;
  if (hook != nullptr && hook->mode() == InjectionHook::Mode::Inject &&
      hook->target_fn() != id) {
    hook = nullptr;
  }
  const FnBinding& b = map_.binding(id);
  if (reach_ != nullptr) (*reach_)[id] = true;
  return FpEnv(b, counter_, hook, id);
}

/// Context in which every registered function runs under strict IEEE
/// semantics at unit cost -- the "trusted baseline binary".
inline EvalContext strict_context() {
  return EvalContext(SemanticsMap(global_code_model().function_count()));
}

/// Context in which every registered function runs under `b`.
inline EvalContext uniform_context(const FnBinding& b) {
  return EvalContext(
      SemanticsMap::uniform(global_code_model().function_count(), b));
}

}  // namespace flit::fpsem
