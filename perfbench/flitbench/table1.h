#pragma once

// The Table-1 study (19 mini-MFEM examples x the 244-compilation space)
// as the workloads use it: blame-table1 enumerates its cells from a live
// study, and serve-mixed checks every served outcome against it and, in
// the traced run, replays its per-item chain.

#include <memory>
#include <vector>

#include "core/explorer.h"
#include "harness.h"
#include "mfemini/examples.h"
#include "toolchain/compiler.h"

namespace flitbench {

/// Lanes of every study explorer.  Serial: on the shared 4-vCPU
/// reference host a run's speed at 4 lanes tracked how many vCPUs the
/// host left free, not the code (see perfbench/README.md, Noise).
inline constexpr unsigned kStudyLanes = 1;

/// What a study needs before its first item: the space, the tests and
/// an explorer with a cold compilation cache.
struct Table1Setup {
  std::vector<flit::toolchain::Compilation> space;
  std::vector<std::unique_ptr<flit::mfemini::MfemExampleTest>> tests;
  std::unique_ptr<flit::core::SpaceExplorer> explorer;
};

[[nodiscard]] Table1Setup make_table1_setup();

/// Explores every example through the setup's explorer, one after the
/// other, each call a "core.explore" span.
[[nodiscard]] std::vector<flit::core::StudyResult> explore_all(
    const Table1Setup& s, Spans& spans);

/// Checks a full study against the pinned Table-1 outputs: the
/// per-compiler variable-run counts and every example's study digest
/// (its CSV plus the exact variability and modeled cycles of every
/// outcome).  Each mismatching item counts as one failure.
void check_table1(const std::vector<flit::core::StudyResult>& study,
                  Result& r);

/// The engine's per-item chain -- BuildSystem::compile_all ->
/// Linker::link -> Runner::run -> Runner::compare_outputs -- replayed
/// serially over one cache, with a span around each call, for every item
/// of `engine` (a study explored from `s`).  Each item must reproduce the
/// engine's variability and modeled cycles.  Fills the compile, link,
/// run and compare layer metrics.
void replay_study(const Table1Setup& s,
                  const std::vector<flit::core::StudyResult>& engine,
                  Spans& spans, Result& r);

/// Items of `subspace` that reuse an anchor run instead of executing:
/// the baseline and the speed-reference compilations.
[[nodiscard]] std::uint64_t reused_anchor_items(
    const std::vector<flit::toolchain::Compilation>& subspace);

}  // namespace flitbench
