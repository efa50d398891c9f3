// Unit and property tests for the floating-point semantics engine: strict
// IEEE behaviour of the baseline, and each variability mechanism (FMA
// contraction, lane reassociation, extended precision, unsafe rewrites,
// FTZ, fast libm) changing results in the expected, bounded way.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fpsem/env.h"

namespace {

using namespace flit::fpsem;

FunctionId test_fn() {
  static const FunctionId id = register_fn({
      .name = "test::env_ops_fn",
      .file = "test/env_ops.cpp",
  });
  return id;
}

EvalContext make_ctx(FpSemantics sem, CostFactors cost = {}) {
  const FunctionId id = test_fn();  // ensure registration before sizing
  SemanticsMap map(global_code_model().function_count());
  map.binding(id) = FnBinding{sem, cost};
  return EvalContext(std::move(map));
}

TEST(EnvScalarOps, StrictMatchesIeee) {
  EvalContext ctx = make_ctx({});
  FpEnv env = ctx.fn(test_fn());
  EXPECT_EQ(env.add(0.1, 0.2), 0.1 + 0.2);
  EXPECT_EQ(env.sub(1.0, 0.3), 1.0 - 0.3);
  EXPECT_EQ(env.mul(0.1, 0.3), 0.1 * 0.3);
  EXPECT_EQ(env.div(1.0, 3.0), 1.0 / 3.0);
  EXPECT_EQ(env.sqrt(2.0), std::sqrt(2.0));
  EXPECT_EQ(env.exp(1.5), std::exp(1.5));
  EXPECT_EQ(env.log(1.5), std::log(1.5));
  EXPECT_EQ(env.sin(1.5), std::sin(1.5));
  EXPECT_EQ(env.cos(1.5), std::cos(1.5));
  EXPECT_EQ(env.pow(1.5, 2.5), std::pow(1.5, 2.5));
}

TEST(EnvScalarOps, MulAddStrictIsTwoRoundings) {
  EvalContext ctx = make_ctx({});
  FpEnv env = ctx.fn(test_fn());
  const double a = 1.0 + 1e-15, b = 1.0 - 1e-15, c = -1.0;
  EXPECT_EQ(env.mul_add(a, b, c), a * b + c);
}

TEST(EnvScalarOps, MulAddContractsToFma) {
  FpSemantics sem;
  sem.contract_fma = true;
  EvalContext ctx = make_ctx(sem);
  FpEnv env = ctx.fn(test_fn());
  const double a = 1.0 + 1e-15, b = 1.0 - 1e-15, c = -1.0;
  EXPECT_EQ(env.mul_add(a, b, c), std::fma(a, b, c));
  // The classic case where contraction changes the value.
  EXPECT_NE(env.mul_add(a, b, c), a * b + c);
}

TEST(EnvScalarOps, UnsafeDivisionUsesReciprocal) {
  FpSemantics sem;
  sem.unsafe_math = true;
  EvalContext ctx = make_ctx(sem);
  FpEnv env = ctx.fn(test_fn());
  EXPECT_EQ(env.div(2.0, 3.0), 2.0 * (1.0 / 3.0));
  // Reciprocal rounding differs from direct division for some pairs.
  int differing = 0;
  for (double x : {3.0, 7.0, 10.0, 11.0, 13.0}) {
    for (double y : {7.0, 49.0, 81.0, 1.3, 2.7}) {
      if (env.div(x, y) != x / y) ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(EnvScalarOps, UnsafeSqrtIsCloseButNotExact) {
  FpSemantics sem;
  sem.unsafe_math = true;
  EvalContext ctx = make_ctx(sem);
  FpEnv env = ctx.fn(test_fn());
  int differing = 0;
  for (double x : {2.0, 3.0, 5.0, 7.0, 11.0, 0.3, 123.456}) {
    const double approx = env.sqrt(x);
    EXPECT_NEAR(approx, std::sqrt(x), 1e-11 * std::sqrt(x)) << x;
    if (approx != std::sqrt(x)) ++differing;
  }
  EXPECT_GT(differing, 0);  // it is an approximation, not a relabeling
  EXPECT_EQ(env.sqrt(0.0), 0.0);
}

TEST(EnvScalarOps, FastLibmIsLowAccuracy) {
  FpSemantics sem;
  sem.fast_libm = true;
  EvalContext ctx = make_ctx(sem);
  FpEnv env = ctx.fn(test_fn());
  EXPECT_NEAR(env.exp(1.0), std::exp(1.0), 1e-6);
  EXPECT_NE(env.exp(1.0), std::exp(1.0));
  EXPECT_NEAR(env.sin(1.0), std::sin(1.0), 1e-6);
  EXPECT_NE(env.sin(1.0), std::sin(1.0));
}

TEST(EnvScalarOps, UnsafePowGoesThroughExpLog) {
  FpSemantics sem;
  sem.unsafe_math = true;
  EvalContext ctx = make_ctx(sem);
  FpEnv env = ctx.fn(test_fn());
  const double v = env.pow(1.7, 2.3);
  EXPECT_NEAR(v, std::pow(1.7, 2.3), 1e-10);
}

TEST(EnvScalarOps, FlushSubnormalsToZero) {
  FpSemantics sem;
  sem.flush_subnormals = true;
  EvalContext ctx = make_ctx(sem);
  FpEnv env = ctx.fn(test_fn());
  const double tiny = 1e-310;  // subnormal
  EXPECT_EQ(env.mul(tiny, 0.5), 0.0);
  EXPECT_EQ(env.mul(-tiny, 0.5), 0.0);
  EXPECT_TRUE(std::signbit(env.mul(-tiny, 0.5)));
  // Normal results untouched.
  EXPECT_EQ(env.mul(2.0, 3.0), 6.0);
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 0.1 * static_cast<double>(i + 1) + 1.0 / (i + 3.0);
  }
  return v;
}

TEST(EnvReductions, StrictSumIsLeftToRight) {
  EvalContext ctx = make_ctx({});
  FpEnv env = ctx.fn(test_fn());
  const auto v = ramp(101);
  double expect = 0.0;
  for (double x : v) expect += x;
  EXPECT_EQ(env.sum(v), expect);
}

TEST(EnvReductions, ReassociationChangesSum) {
  FpSemantics sem;
  sem.reassoc_width = 4;
  EvalContext ctx = make_ctx(sem);
  FpEnv env = ctx.fn(test_fn());
  const auto v = ramp(101);
  double strict = 0.0;
  for (double x : v) strict += x;
  const double lanes = env.sum(v);
  EXPECT_NE(lanes, strict);
  EXPECT_NEAR(lanes, strict, 1e-10 * std::fabs(strict));
}

class ReassocWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(ReassocWidthTest, MatchesExplicitLaneModel) {
  const int w = GetParam();
  FpSemantics sem;
  sem.reassoc_width = w;
  EvalContext ctx = make_ctx(sem);
  FpEnv env = ctx.fn(test_fn());
  const auto v = ramp(57);
  std::vector<double> acc(static_cast<std::size_t>(w), 0.0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    acc[i % static_cast<std::size_t>(w)] += v[i];
  }
  double expect = 0.0;
  for (double a : acc) expect += a;
  EXPECT_EQ(env.sum(v), expect);
}

INSTANTIATE_TEST_SUITE_P(Widths, ReassocWidthTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 17));

TEST(EnvReductions, ExtendedPrecisionSumDiffersAndIsMoreAccurate) {
  FpSemantics sem;
  sem.extended_precision = true;
  EvalContext ctx = make_ctx(sem);
  FpEnv env = ctx.fn(test_fn());
  // A sum with heavy cancellation: extended precision keeps more bits.
  std::vector<double> v;
  for (int i = 0; i < 50; ++i) {
    v.push_back(1e16);
    v.push_back(1.0);
    v.push_back(-1e16);
  }
  double strict = 0.0;
  for (double x : v) strict += x;
  const double wide = env.sum(v);
  EXPECT_NE(wide, strict);
  EXPECT_EQ(wide, 50.0);  // exact in 80-bit accumulation
}

TEST(EnvReductions, DotWithFmaDiffersFromStrict) {
  const auto a = ramp(64);
  const auto b = ramp(64);
  EvalContext strict_ctx = make_ctx({});
  FpSemantics sem;
  sem.contract_fma = true;
  EvalContext fma_ctx = make_ctx(sem);
  const double ds = strict_ctx.fn(test_fn()).dot(a, b);
  const double df = fma_ctx.fn(test_fn()).dot(a, b);
  EXPECT_NE(ds, df);
  EXPECT_NEAR(ds, df, 1e-12 * std::fabs(ds));
}

TEST(EnvReductions, DotStrictMatchesManual) {
  const auto a = ramp(33);
  const auto b = ramp(33);
  EvalContext ctx = make_ctx({});
  double expect = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) expect += a[i] * b[i];
  EXPECT_EQ(ctx.fn(test_fn()).dot(a, b), expect);
}

TEST(EnvBulkOps, AxpyAndScalMatchManual) {
  EvalContext ctx = make_ctx({});
  FpEnv env = ctx.fn(test_fn());
  auto x = ramp(17);
  auto y = ramp(17);
  auto y2 = y;
  env.axpy(0.5, x, y);
  for (std::size_t i = 0; i < x.size(); ++i) y2[i] = 0.5 * x[i] + y2[i];
  EXPECT_EQ(y, y2);
  env.scal(2.0, y);
  for (auto& v : y2) v *= 2.0;
  EXPECT_EQ(y, y2);
}

TEST(EnvBulkOps, Norm2MatchesSqrtDot) {
  EvalContext ctx = make_ctx({});
  const auto v = ramp(29);
  const double n = ctx.fn(test_fn()).norm2(v);
  double dd = 0.0;
  for (double x : v) dd += x * x;
  EXPECT_EQ(n, std::sqrt(dd));
}

TEST(EnvDeterminism, SameSemanticsSameResult) {
  FpSemantics sem;
  sem.contract_fma = true;
  sem.reassoc_width = 4;
  sem.unsafe_math = true;
  const auto v = ramp(200);
  EvalContext c1 = make_ctx(sem);
  EvalContext c2 = make_ctx(sem);
  EXPECT_EQ(c1.fn(test_fn()).sum(v), c2.fn(test_fn()).sum(v));
  EXPECT_EQ(c1.fn(test_fn()).dot(v, v), c2.fn(test_fn()).dot(v, v));
}

TEST(EnvCost, OpsAreTalliedWithTimeScale) {
  EvalContext ctx = make_ctx({}, CostFactors{2.0, 1.0});
  FpEnv env = ctx.fn(test_fn());
  (void)env.add(1.0, 2.0);
  EXPECT_EQ(ctx.counter().count(OpClass::Add), 1u);
  EXPECT_DOUBLE_EQ(ctx.counter().cycles(), OpCosts::kAdd * 2.0);
  (void)env.div(1.0, 3.0);
  EXPECT_DOUBLE_EQ(ctx.counter().cycles(),
                   (OpCosts::kAdd + OpCosts::kDiv) * 2.0);
}

TEST(EnvCost, BulkOpsScaleWithVectorWidth) {
  EvalContext narrow = make_ctx({}, CostFactors{1.0, 1.0});
  EvalContext wide = make_ctx({}, CostFactors{1.0, 4.0});
  const auto v = ramp(64);
  (void)narrow.fn(test_fn()).sum(v);
  (void)wide.fn(test_fn()).sum(v);
  EXPECT_DOUBLE_EQ(narrow.counter().cycles(), 64.0 * OpCosts::kAdd);
  EXPECT_DOUBLE_EQ(wide.counter().cycles(), 64.0 * OpCosts::kAdd / 4.0);
}

TEST(EnvCost, UnsafeDivIsNotMoreExpensive) {
  // Reciprocal division's latency win is absorbed by memory-bound kernels:
  // the model charges it no more than a precise division.
  EvalContext strict_ctx = make_ctx({});
  FpSemantics sem;
  sem.unsafe_math = true;
  EvalContext fast_ctx = make_ctx(sem);
  (void)strict_ctx.fn(test_fn()).div(1.0, 3.0);
  (void)fast_ctx.fn(test_fn()).div(1.0, 3.0);
  EXPECT_LE(fast_ctx.counter().cycles(), strict_ctx.counter().cycles());
}

TEST(EnvCost, FastLibmIsCheaper) {
  EvalContext strict_ctx = make_ctx({});
  FpSemantics sem;
  sem.fast_libm = true;
  EvalContext fast_ctx = make_ctx(sem);
  (void)strict_ctx.fn(test_fn()).exp(1.0);
  (void)fast_ctx.fn(test_fn()).exp(1.0);
  EXPECT_LT(fast_ctx.counter().cycles(), strict_ctx.counter().cycles());
}

// ---- the fast path and the checked path agree ------------------------
//
// An env with no hook and no FTZ evaluates its scalar operations on an
// inline fast path with no probe and no flush; the same env under a
// pass-through recorder takes the checked path.  Every public operation
// must give the same result bits, per-class counts and cycles on both.

/// Signed zeros, subnormals, infinities, NaN and ordinary values across
/// the exponent range.
std::vector<double> edge_operands() {
  using L = std::numeric_limits<double>;
  return {0.0,       -0.0,    L::denorm_min(), -1e-310, 1e-310,
          L::min(),  -L::min(), L::infinity(), -L::infinity(),
          L::quiet_NaN(), 1.0, -1.0, 0.1, -2.5, 3.0, 7.0, 1e16, -1e-300,
          1e300,     0.7};
}

/// `n` finite values of mixed sign and magnitude, seeded.
std::vector<double> finite_operands(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> v(n);
  for (double& x : v) {
    const double unit = static_cast<double>(rng() >> 11) * 0x1p-53 - 0.5;
    x = std::ldexp(unit, static_cast<int>(rng() % 41) - 20);
  }
  return v;
}

/// Calls every public FpEnv operation of `ctx`'s test function over edge
/// and finite operands; returns the bits of every result in call order.
/// NaNs are recorded as one value: IEEE 754 leaves open which operand's
/// NaN an operation returns, and the host compiler may commute `x + y`
/// differently in two inlined copies of the same expression.
std::vector<std::uint64_t> every_op_bits(EvalContext& ctx) {
  FpEnv env = ctx.fn(test_fn());
  std::vector<std::uint64_t> bits;
  const auto put = [&](double r) {
    bits.push_back(std::isnan(r) ? ~std::uint64_t{0}
                                 : std::bit_cast<std::uint64_t>(r));
  };
  const std::vector<double> edges = edge_operands();
  for (double a : edges) {
    put(env.sqrt(a));
    put(env.exp(a));
    put(env.log(a));
    put(env.sin(a));
    put(env.cos(a));
    for (double b : edges) {
      put(env.add(a, b));
      put(env.sub(a, b));
      put(env.mul(a, b));
      put(env.div(a, b));
      put(env.pow(a, b));
      for (double c : {0.0, -0.0, 1e-310, -1.0, edges[7]}) {
        put(env.mul_add(a, b, c));
      }
    }
  }
  // Lengths below, at and above the widest stack-held lane count.
  std::vector<std::vector<double>> vecs = {{}, edges};
  for (std::size_t n : {5u, 16u, 17u, 57u}) {
    vecs.push_back(finite_operands(n, 1000 + n));
  }
  for (const std::vector<double>& v : vecs) {
    const std::vector<double> r(v.rbegin(), v.rend());
    put(env.sum(v));
    put(env.dot(v, r));
    put(env.norm2(v));
    std::vector<double> y = r;
    env.axpy(0.3, v, y);
    env.scal(-1.7, y);
    for (double x : y) put(x);
  }
  return bits;
}

struct PathCase {
  FpSemantics sem;
  CostFactors cost;
};

std::string describe(const PathCase& c) {
  const FpSemantics& s = c.sem;
  return "fma=" + std::to_string(s.contract_fma) +
         " w=" + std::to_string(s.reassoc_width) +
         " ext=" + std::to_string(s.extended_precision) +
         " unsafe=" + std::to_string(s.unsafe_math) +
         " ftz=" + std::to_string(s.flush_subnormals) +
         " fastlibm=" + std::to_string(s.fast_libm) +
         " ub=" + std::to_string(s.exploits_ub) +
         " time=" + std::to_string(c.cost.time_scale) +
         " bulk=" + std::to_string(c.cost.bulk_scale);
}

/// Each flag alone, all of them together, and seeded combinations, under
/// non-dyadic cost factors so any reordered tally would show in cycles.
std::vector<PathCase> path_cases() {
  const CostFactors costs[] = {
      {1.0, 1.0}, {2.9, 1.0}, {0.96, 1.3}, {1.0 / 3.0, 1.15}, {3.1, 0.7}};
  const int widths[] = {1, 2, 3, 4, 8, 16, 17};
  std::vector<FpSemantics> sems(1);
  const auto with = [&](auto set) {
    FpSemantics s;
    set(s);
    sems.push_back(s);
  };
  with([](FpSemantics& s) { s.contract_fma = true; });
  for (int w : widths) with([w](FpSemantics& s) { s.reassoc_width = w; });
  with([](FpSemantics& s) { s.extended_precision = true; });
  with([](FpSemantics& s) { s.unsafe_math = true; });
  with([](FpSemantics& s) { s.flush_subnormals = true; });
  with([](FpSemantics& s) { s.fast_libm = true; });
  with([](FpSemantics& s) { s.exploits_ub = true; });
  with([](FpSemantics& s) {
    s = {true, 4, true, true, true, true, true};
  });
  std::mt19937_64 rng(20190622);
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t r = rng();
    with([&](FpSemantics& s) {
      s.contract_fma = (r & 1) != 0;
      s.extended_precision = (r & 2) != 0;
      s.unsafe_math = (r & 4) != 0;
      s.flush_subnormals = (r & 8) != 0;
      s.fast_libm = (r & 16) != 0;
      s.exploits_ub = (r & 32) != 0;
      s.reassoc_width = widths[(r >> 8) % std::size(widths)];
    });
  }
  std::vector<PathCase> cases;
  for (std::size_t i = 0; i < sems.size(); ++i) {
    cases.push_back({sems[i], costs[i % std::size(costs)]});
  }
  return cases;
}

TEST(EnvPaths, FastPathMatchesCheckedPathBitForBit) {
  for (const PathCase& c : path_cases()) {
    SCOPED_TRACE(describe(c));
    EvalContext fast = make_ctx(c.sem, c.cost);
    EvalContext checked = make_ctx(c.sem, c.cost);
    auto recorder = InjectionHook::recorder();
    checked.set_injection_hook(&recorder);

    const std::vector<std::uint64_t> want = every_op_bits(checked);
    const std::vector<std::uint64_t> got = every_op_bits(fast);
    ASSERT_EQ(got.size(), want.size());
    std::size_t differing = 0, first = got.size();
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i] == want[i]) continue;
      ++differing;
      if (first == got.size()) first = i;
    }
    EXPECT_EQ(differing, 0u) << "first differing result: #" << first;
    for (std::size_t k = 0; k < static_cast<std::size_t>(OpClass::kCount);
         ++k) {
      const auto cls = static_cast<OpClass>(k);
      EXPECT_EQ(fast.counter().count(cls), checked.counter().count(cls))
          << "op class " << k;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.counter().cycles()),
              std::bit_cast<std::uint64_t>(checked.counter().cycles()));
    EXPECT_FALSE(recorder.sites().empty());  // the checked run did probe
  }
}

TEST(EnvSemantics, StrictPredicate) {
  EXPECT_TRUE(FpSemantics{}.strict());
  FpSemantics s;
  s.contract_fma = true;
  EXPECT_FALSE(s.strict());
  s = {};
  s.reassoc_width = 2;
  EXPECT_FALSE(s.strict());
}

}  // namespace
