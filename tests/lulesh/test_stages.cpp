// Stage-level properties of the mini-LULESH kernels: viscosity limiter
// bounds, EOS predictor-corrector behaviour, cutoff semantics, and the
// time-constraint interplay.

#include <cmath>

#include <gtest/gtest.h>

#include "lulesh/domain.h"

namespace {

using namespace flit;
using lulesh::Domain;
using lulesh::LuleshOptions;

fpsem::EvalContext strict() { return fpsem::strict_context(); }

Domain evolved(int cycles) {
  auto ctx = strict();
  LuleshOptions o;
  o.stop_cycle = cycles;
  return lulesh::run_lulesh(ctx, o);
}

TEST(LuleshStages, ViscosityIsNonNegativeAndCompressionOnly) {
  const Domain d = evolved(40);
  for (std::size_t k = 0; k < d.numElem(); ++k) {
    EXPECT_GE(d.q[k], 0.0) << k;
    if (d.vdov[k] >= 0.0) {
      EXPECT_EQ(d.q[k], 0.0) << k;
    }
    EXPECT_GE(d.qq[k], 0.0) << k;
    EXPECT_GE(d.ql[k], 0.0) << k;
  }
}

TEST(LuleshStages, PressureStaysNonNegativeAndTracksEnergy) {
  const Domain d = evolved(40);
  for (std::size_t k = 0; k < d.numElem(); ++k) {
    EXPECT_GE(d.p[k], 0.0) << k;
    if (d.e[k] <= 1e-9) {
      EXPECT_LE(d.p[k], 1e-6) << k;
    }
  }
  // The shocked region has both energy and pressure.
  EXPECT_GT(d.p[0] + d.p[1], 0.0);
}

TEST(LuleshStages, EnergyFloorAndCutoffsHold) {
  const Domain d = evolved(60);
  for (std::size_t k = 0; k < d.numElem(); ++k) {
    EXPECT_GE(d.e[k], 1e-9) << k;  // emin floor
  }
}

TEST(LuleshStages, SoundSpeedIsPositiveEverywhere) {
  const Domain d = evolved(40);
  for (std::size_t k = 0; k < d.numElem(); ++k) {
    EXPECT_GT(d.ss[k], 0.0) << k;
    EXPECT_TRUE(std::isfinite(d.ss[k])) << k;
  }
}

TEST(LuleshStages, TimeConstraintsBoundTheStep) {
  auto ctx = strict();
  Domain d = lulesh::build_domain({});
  lulesh::calc_time_constraints(ctx, d);
  EXPECT_GT(d.dtcourant, 0.0);
  EXPECT_LT(d.dtcourant, 1e20);
  lulesh::time_increment(ctx, d);
  EXPECT_LE(d.deltatime, d.dtcourant + 1e-18);
}

TEST(LuleshStages, VelocityCutoffSnapsTinyVelocities) {
  auto ctx = strict();
  Domain d = lulesh::build_domain({});
  lulesh::calc_time_constraints(ctx, d);
  // One step: nodes far from the origin get force 0 -> velocity exactly 0
  // (thanks to the u_cut snap, even tiny accelerations cannot creep in).
  lulesh::time_step(ctx, d);
  EXPECT_EQ(d.xd[d.numNode() - 2], 0.0);
}

TEST(LuleshStages, TotalEnergyIsBoundedByTheDeposit) {
  const Domain initial = lulesh::build_domain({});
  double deposit = 0.0;
  for (std::size_t k = 0; k < initial.numElem(); ++k) {
    deposit += initial.elem_mass[k] * initial.e[k];
  }
  const Domain d = evolved(80);
  double internal = 0.0;
  for (std::size_t k = 0; k < d.numElem(); ++k) {
    internal += d.elem_mass[k] * d.e[k];
  }
  double kinetic = 0.0;
  for (std::size_t i = 0; i < d.numNode(); ++i) {
    kinetic += 0.5 * d.nodal_mass[i] * d.xd[i] * d.xd[i];
  }
  EXPECT_GT(internal + kinetic, 0.1 * deposit);
  EXPECT_LT(internal + kinetic, 1.5 * deposit);
}

TEST(LuleshStages, MoreElementsMoreInjectionSurface) {
  // The static instruction count is size-independent (same code), but a
  // larger domain must still run and stay finite -- guard against
  // size-dependent indexing bugs.
  auto ctx = strict();
  LuleshOptions o;
  o.num_elems = 64;
  o.stop_cycle = 20;
  const Domain d = lulesh::run_lulesh(ctx, o);
  EXPECT_EQ(d.numElem(), 64u);
  for (double e : d.e) EXPECT_TRUE(std::isfinite(e));
}

TEST(LuleshStages, ExtendedPrecisionChangesButDoesNotBreak) {
  fpsem::FpSemantics sem;
  sem.extended_precision = true;
  auto ctx = fpsem::uniform_context(fpsem::FnBinding{sem, {}});
  LuleshOptions o;
  o.stop_cycle = 60;
  const Domain d = lulesh::run_lulesh(ctx, o);
  for (double e : d.e) {
    EXPECT_TRUE(std::isfinite(e));
    EXPECT_GE(e, 0.0);
  }
}

}  // namespace
