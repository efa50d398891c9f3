// Reproduces Figure 5: for every MFEM example, the fastest bitwise-equal
// compilation per compiler (three bars) and the fastest variable
// compilation overall (fourth bar).  Missing bars mean no results in that
// category -- in particular the Intel bar is absent wherever the Intel
// link step makes every icpc compilation variable.

#include <cstdio>
#include <string>

#include "mfem_study_common.h"

using namespace flit;

int main() {
  const bench::MfemStudy study = bench::run_mfem_study();

  std::printf(
      "Figure 5: fastest bitwise-equal executable per compiler vs fastest "
      "variable, per example\n");
  std::printf("%-4s %-12s %-12s %-12s %-12s %s\n", "ex", "clang++ eq",
              "g++ eq", "icpc eq", "any variable", "winner");

  // A variable compilation is "noticeably" faster (the paper's word)
  // when it beats the best bitwise-equal bar by more than this factor.
  constexpr double kNoticeably = 1.05;

  int equal_wins = 0, variable_wins = 0, no_variable = 0, missing_icpc = 0;
  int noticeably_faster = 0;
  std::string noticeable_examples;
  for (int ex = 1; ex <= mfemini::kNumExamples; ++ex) {
    const core::StudyResult& r = study.results[static_cast<std::size_t>(ex - 1)];
    const auto* c = r.fastest_equal("clang++");
    const auto* g = r.fastest_equal("g++");
    const auto* i = r.fastest_equal("icpc");
    const auto* v = r.fastest_variable();
    const auto cell = [](const core::CompilationOutcome* o) {
      static char buf[4][16];
      static int n = 0;
      char* b = buf[n = (n + 1) % 4];
      if (o == nullptr) {
        std::snprintf(b, 16, "--");
      } else {
        std::snprintf(b, 16, "%.3f", o->speedup);
      }
      return b;
    };
    const double best_eq =
        std::max({c != nullptr ? c->speedup : 0.0,
                  g != nullptr ? g->speedup : 0.0,
                  i != nullptr ? i->speedup : 0.0});
    const char* winner = "equal";
    if (v == nullptr) {
      winner = "no variable compilation";
      ++no_variable;
      ++equal_wins;
    } else if (v->speedup > best_eq) {
      winner = "VARIABLE";
      ++variable_wins;
      if (v->speedup > kNoticeably * best_eq) {
        noticeable_examples +=
            (noticeably_faster++ == 0 ? "" : ", ") + std::to_string(ex);
      }
    } else {
      ++equal_wins;
    }
    if (i == nullptr) ++missing_icpc;
    std::printf("%-4d %-12s %-12s %-12s %-12s %s\n", ex, cell(c), cell(g),
                cell(i), cell(v), winner);
  }
  std::printf(
      "\nfastest-overall is bitwise equal on %d of %d examples (paper: 14 "
      "of 19)\n",
      equal_wins, mfemini::kNumExamples);
  std::printf("examples with no variable compilation: %d (paper: 2 -- "
              "examples 12 and 18)\n",
              no_variable);
  std::printf(
      "examples missing the icpc bitwise-equal bar (Intel link step): %d "
      "(paper: 5 -- examples 4, 5, 9, 10, 15)\n",
      missing_icpc);
  std::printf(
      "examples whose fastest variable compilation beats the best "
      "bitwise-equal bar by more than 5%%: %d (examples %s; paper: 2 "
      "noticeably faster)\n",
      noticeably_faster, noticeable_examples.c_str());
  return 0;
}
