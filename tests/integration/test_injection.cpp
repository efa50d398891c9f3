// The Sec. 3.5 injection framework end-to-end on mini-LULESH: site
// enumeration, single-experiment classification, and the paper's headline
// property -- zero wrong finds and zero missed finds.

#include <gtest/gtest.h>

#include "core/injection.h"
#include "lulesh/domain.h"
#include "toolchain/compiler.h"

namespace {

using namespace flit;
using core::InjectionCampaign;
using core::InjectionExperiment;
using core::InjectionVerdict;

lulesh::LuleshOptions small_opts() {
  lulesh::LuleshOptions o;
  o.num_elems = 16;
  o.stop_cycle = 12;
  return o;
}

toolchain::Compilation build_comp() {
  return {toolchain::gcc(), toolchain::OptLevel::O2, ""};
}

InjectionCampaign make_campaign(const lulesh::LuleshTest& test) {
  InjectionCampaign c(&fpsem::global_code_model(), &test, build_comp());
  c.set_scope(lulesh::lulesh_source_files());
  return c;
}

TEST(InjectionCampaign, EnumeratesAHealthyNumberOfSites) {
  lulesh::LuleshTest test(small_opts());
  auto campaign = make_campaign(test);
  const auto sites = campaign.enumerate_sites();
  EXPECT_GE(sites.size(), 60u);   // mini-LULESH has O(100) FP instructions
  EXPECT_LE(sites.size(), 400u);
  // All sites belong to lulesh functions.
  auto& model = fpsem::global_code_model();
  for (const auto& s : sites) {
    const auto& file = model.info(s.fn).file;
    EXPECT_TRUE(file.starts_with("lulesh/")) << file;
  }
}

TEST(InjectionCampaign, EnumerationIsDeterministic) {
  lulesh::LuleshTest test(small_opts());
  auto campaign = make_campaign(test);
  EXPECT_EQ(campaign.enumerate_sites(), campaign.enumerate_sites());
}

TEST(InjectionCampaign, EpsDrawIsDeterministicAndInUnitInterval) {
  lulesh::LuleshTest test(small_opts());
  auto campaign = make_campaign(test);
  const auto sites = campaign.enumerate_sites();
  ASSERT_FALSE(sites.empty());
  for (auto op : {fpsem::InjectOp::Add, fpsem::InjectOp::Mul}) {
    const double e1 = InjectionCampaign::draw_eps(sites[0], op);
    const double e2 = InjectionCampaign::draw_eps(sites[0], op);
    EXPECT_EQ(e1, e2);
    EXPECT_GT(e1, 0.0);
    EXPECT_LT(e1, 1.0);
  }
}

TEST(InjectionCampaign, EpsDrawIgnoresWhereTheCheckoutLives) {
  // std::source_location names a site's file absolutely in a default
  // build and repository-relatively under -fmacro-prefix-map; both must
  // draw the same eps, or Table 5 depends on the checkout path.
  fpsem::InjectionSite relative{0, "src/lulesh/eos.cpp", 41, 17};
  fpsem::InjectionSite absolute = relative;
  absolute.file = "/home/someone/work/src/flit/src/lulesh/eos.cpp";
  for (auto op : {fpsem::InjectOp::Add, fpsem::InjectOp::Div}) {
    EXPECT_EQ(InjectionCampaign::draw_eps(absolute, op),
              InjectionCampaign::draw_eps(relative, op));
  }
  // Other sites still draw other values.
  fpsem::InjectionSite other = relative;
  other.file = "src/lulesh/force.cpp";
  EXPECT_NE(InjectionCampaign::draw_eps(other, fpsem::InjectOp::Add),
            InjectionCampaign::draw_eps(relative, fpsem::InjectOp::Add));
}

TEST(InjectionCampaign, SampledExperimentsHaveNoWrongOrMissedFinds) {
  // A strided sample of the full campaign (the complete 4 * |sites| sweep
  // is bench_table5_injection); precision and recall must already be
  // perfect on the sample.
  lulesh::LuleshTest test(small_opts());
  auto campaign = make_campaign(test);
  const auto sites = campaign.enumerate_sites();
  std::vector<core::InjectionReport> reports;
  const fpsem::InjectOp ops[] = {fpsem::InjectOp::Add, fpsem::InjectOp::Sub,
                                 fpsem::InjectOp::Mul, fpsem::InjectOp::Div};
  for (std::size_t i = 0; i < sites.size(); i += 7) {
    const auto op = ops[(i / 7) % 4];
    reports.push_back(campaign.run_one(InjectionExperiment{
        sites[i], op, InjectionCampaign::draw_eps(sites[i], op)}));
  }
  const auto summary = InjectionCampaign::summarize(reports);
  EXPECT_EQ(summary.wrong, 0);
  EXPECT_EQ(summary.missed, 0);
  EXPECT_GT(summary.exact + summary.indirect, 0);
  EXPECT_DOUBLE_EQ(summary.precision(), 1.0);
  EXPECT_DOUBLE_EQ(summary.recall(), 1.0);
  EXPECT_GT(summary.avg_executions, 0.0);
  EXPECT_LT(summary.avg_executions, 40.0);  // paper: ~15 on average
}

TEST(InjectionCampaign, InternalFunctionInjectionIsAnIndirectFind) {
  lulesh::LuleshTest test(small_opts());
  auto campaign = make_campaign(test);
  const auto sites = campaign.enumerate_sites();
  auto& model = fpsem::global_code_model();
  bool saw_internal = false;
  for (const auto& s : sites) {
    if (model.info(s.fn).exported) continue;
    const auto report = campaign.run_one(InjectionExperiment{
        s, fpsem::InjectOp::Mul,
        InjectionCampaign::draw_eps(s, fpsem::InjectOp::Mul)});
    if (report.verdict == InjectionVerdict::NotMeasurable) continue;
    EXPECT_EQ(report.verdict, InjectionVerdict::Indirect)
        << model.info(s.fn).name;
    saw_internal = true;
    break;
  }
  EXPECT_TRUE(saw_internal);
}

TEST(InjectionCampaign, TinyPerturbationIsNotMeasurable) {
  lulesh::LuleshTest test(small_opts());
  auto campaign = make_campaign(test);
  const auto sites = campaign.enumerate_sites();
  ASSERT_FALSE(sites.empty());
  // An additive 1e-300 is absorbed by every double in the program.
  const auto report = campaign.run_one(
      InjectionExperiment{sites[0], fpsem::InjectOp::Add, 1e-300});
  EXPECT_EQ(report.verdict, InjectionVerdict::NotMeasurable);
  EXPECT_TRUE(report.reported_symbols.empty());
}

TEST(InjectionCampaign, VerdictNamesAreStable) {
  EXPECT_STREQ(to_string(InjectionVerdict::Exact), "exact find");
  EXPECT_STREQ(to_string(InjectionVerdict::Indirect), "indirect find");
  EXPECT_STREQ(to_string(InjectionVerdict::Wrong), "wrong find");
  EXPECT_STREQ(to_string(InjectionVerdict::Missed), "missed find");
  EXPECT_STREQ(to_string(InjectionVerdict::NotMeasurable), "not measurable");
}

}  // namespace
