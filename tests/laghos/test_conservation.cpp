// Physical invariants of the mini-Laghos scheme, checked across
// compilations: Lagrangian mass conservation is exact, total energy
// (internal + kinetic) is conserved up to the viscosity/floor dissipation
// budget, and the domain stays ordered (no tangled mesh).

#include <cmath>

#include <gtest/gtest.h>

#include "laghos/hydro.h"
#include "toolchain/semantics_rules.h"

namespace flit::toolchain {

// gtest prints a parameter it cannot format as its raw bytes, which hold
// the Compilation's string pointers: the ctest names would then change
// from build to build.
void PrintTo(const Compilation& c, std::ostream* os) { *os << c.str(); }

}  // namespace flit::toolchain

namespace {

using namespace flit;
using laghos::HydroOptions;
using laghos::HydroState;

double total_internal(const HydroState& s) {
  double e = 0.0;
  for (std::size_t z = 0; z < s.e.size(); ++z) e += s.m[z] * s.e[z];
  return e;
}

double total_kinetic(const HydroState& s) {
  double k = 0.0;
  for (std::size_t i = 0; i < s.v.size(); ++i) {
    double nm = 0.0;
    if (i > 0) nm += 0.5 * s.m[i - 1];
    if (i < s.m.size()) nm += 0.5 * s.m[i];
    k += 0.5 * nm * s.v[i] * s.v[i];
  }
  return k;
}

class LaghosSemanticsTest
    : public ::testing::TestWithParam<toolchain::Compilation> {};

TEST_P(LaghosSemanticsTest, MassIsExactlyConserved) {
  auto ctx = fpsem::uniform_context(
      fpsem::FnBinding{toolchain::derive_semantics(GetParam()), {}});
  HydroOptions opts;
  opts.steps = 200;
  const HydroState s = laghos::simulate(ctx, opts);
  // Lagrangian masses never change; rho * dx must reproduce them.
  for (std::size_t z = 0; z < s.e.size(); ++z) {
    EXPECT_NEAR(s.rho[z] * (s.x[z + 1] - s.x[z]), s.m[z], 1e-12) << z;
  }
}

TEST_P(LaghosSemanticsTest, MeshStaysOrdered) {
  auto ctx = fpsem::uniform_context(
      fpsem::FnBinding{toolchain::derive_semantics(GetParam()), {}});
  HydroOptions opts;
  opts.steps = 400;
  const HydroState s = laghos::simulate(ctx, opts);
  for (std::size_t i = 0; i + 1 < s.x.size(); ++i) {
    EXPECT_LT(s.x[i], s.x[i + 1]) << "tangled mesh at node " << i;
  }
}

TEST_P(LaghosSemanticsTest, TotalEnergyStaysBounded) {
  auto ctx = fpsem::uniform_context(
      fpsem::FnBinding{toolchain::derive_semantics(GetParam()), {}});
  HydroOptions opts;
  opts.steps = 300;
  const HydroState initial = laghos::initial_state(opts.zones);
  const HydroState s = laghos::simulate(ctx, opts);
  const double e0 = total_internal(initial);  // starts at rest
  const double e1 = total_internal(s) + total_kinetic(s);
  // Fixed walls do no work; the explicit scheme and the viscosity floor
  // exchange a bounded fraction of the budget.
  EXPECT_GT(e1, 0.5 * e0);
  EXPECT_LT(e1, 1.5 * e0);
}

INSTANTIATE_TEST_SUITE_P(
    Compilations, LaghosSemanticsTest,
    ::testing::Values(toolchain::laghos_trusted_gcc(),
                      toolchain::laghos_trusted_xlc(),
                      toolchain::laghos_variable_xlc(),
                      toolchain::laghos_strict_xlc()),
    [](const auto& info) {
      std::string n = info.param.str();
      for (char& c : n) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n;
    });

TEST(LaghosConservation, PressureDrivesVelocityTowardTheLowSide) {
  auto ctx = fpsem::strict_context();
  HydroOptions opts;
  opts.steps = 5;
  const HydroState s = laghos::simulate(ctx, opts);
  // The diaphragm node (middle) must have started moving right.
  EXPECT_GT(s.v[s.e.size() / 2], 0.0);
}

}  // namespace
