// ResultsDb files under hostile edits: every cut inside the last row (what
// a kill mid-append leaves), and a seeded mutation fuzzer whose inputs
// must each be rejected with an error naming a line or the header, or
// load and round-trip: the rewrite is the rendering of the loaded rows,
// and loads back as the same rows.

#include <filesystem>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../core/resultsdb_text.h"
#include "core/resultsdb.h"

namespace {

using namespace flit;
using core::OutcomeStatus;
using core::ResultRow;
using core::ResultsDb;

namespace fs = std::filesystem;

fs::path scratch_path() {
  return fs::temp_directory_path() /
         ("flit_resultsdb_fuzz_" +
          std::string(::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name()));
}

core::StudyResult two_rows() {
  core::StudyResult s;
  s.test_name = "MFEM_ex5";
  core::CompilationOutcome ok;
  ok.comp = {toolchain::gcc(), toolchain::OptLevel::O2, ""};
  ok.speedup = 1.0625;
  s.outcomes.push_back(ok);
  core::CompilationOutcome retried;
  retried.comp = {toolchain::icpc(), toolchain::OptLevel::O3,
                  "-fp-model fast=2"};
  retried.speedup = 1.2345678901234567;
  retried.variability = 1.234567890123456789e-13L;
  retried.status = OutcomeStatus::Retried;
  retried.reason = "recovered from: injected fault";  // 30 characters
  s.outcomes.push_back(retried);
  return s;
}

TEST(ResultsDbFuzz, EveryCutInsideTheLastRowDropsIt) {
  const fs::path path = scratch_path();
  fs::remove(path);
  { ResultsDb(path).record(two_rows()); }
  const std::string full = test::file_text(path);
  const std::vector<ResultRow> both = ResultsDb(path).rows();
  ASSERT_EQ(both.size(), 2u);
  const std::vector<ResultRow> first_only(both.begin(), both.begin() + 1);
  const std::size_t last_row = full.rfind('\n', full.size() - 2) + 1;

  // A cut keeps at least one byte of the last row and loses its '\n'.
  core::StudyResult next = two_rows();
  next.test_name = "Laghos";
  for (std::size_t cut = last_row + 1; cut < full.size(); ++cut) {
    test::write_file(path, full.substr(0, cut));
    ResultsDb db(path);
    EXPECT_EQ(db.rows(), first_only) << "cut at byte " << cut;
    db.record(next);  // the next record rewrites the file whole
    EXPECT_EQ(test::file_text(path), test::render(db.rows()))
        << "cut at byte " << cut;
  }
  fs::remove(path);
}

/// Rows equal field by field, the numbers by their written text (a NaN
/// loads back as a NaN, never as an equal one).
bool same_rows(const std::vector<ResultRow>& a,
               const std::vector<ResultRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].test_name != b[i].test_name ||
        a[i].compilation != b[i].compilation ||
        a[i].status != b[i].status || a[i].reason != b[i].reason ||
        test::numbers_text(a[i]) != test::numbers_text(b[i])) {
      return false;
    }
  }
  return true;
}

/// One random edit: a byte flip, a byte overwritten with a character the
/// format or its numbers give meaning to, an inserted or deleted TAB or
/// newline, a truncation, or a duplicated line.
void mutate(std::string* bytes, std::mt19937_64* rng) {
  const auto below = [&](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>((*rng)() % n);
  };
  const auto erase_one = [&](char c) {
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < bytes->size(); ++i) {
      if ((*bytes)[i] == c) at.push_back(i);
    }
    if (!at.empty()) bytes->erase(at[below(at.size())], 1);
  };
  switch ((*rng)() % 8) {
    case 0:
      if (!bytes->empty()) {
        (*bytes)[below(bytes->size())] ^=
            static_cast<char>(1 + (*rng)() % 255);
      }
      break;
    case 1:
      if (!bytes->empty()) {
        static constexpr char kTokens[] = {'\r', '\0', ' ', '.',
                                           '-',  'e',  'n'};
        (*bytes)[below(bytes->size())] = kTokens[below(sizeof kTokens)];
      }
      break;
    case 2:
      bytes->insert(below(bytes->size() + 1), 1, '\t');
      break;
    case 3:
      erase_one('\t');
      break;
    case 4:
      bytes->insert(below(bytes->size() + 1), 1, '\n');
      break;
    case 5:
      erase_one('\n');
      break;
    case 6:
      bytes->resize(below(bytes->size() + 1));
      break;
    default: {
      std::vector<std::size_t> starts{0};
      for (std::size_t i = 0; i + 1 < bytes->size(); ++i) {
        if ((*bytes)[i] == '\n') starts.push_back(i + 1);
      }
      const std::size_t k = below(starts.size());
      const std::size_t end = bytes->find('\n', starts[k]);
      const std::string line = bytes->substr(
          starts[k], end == std::string::npos ? end : end + 1 - starts[k]);
      bytes->insert(starts[k], line);
      break;
    }
  }
}

TEST(ResultsDbFuzz, MutatedFilesAreRejectedByLineOrRoundTrip) {
  const fs::path path = scratch_path();
  std::vector<ResultRow> rows = {
      {"MFEM_ex5", "g++ -O2", 1.0625, 0.0L, OutcomeStatus::Ok, ""},
      {"MFEM_ex5", "icpc -O3 -fp-model fast=2", 1.2345678901234567,
       1.234567890123456789e-13L, OutcomeStatus::Retried,
       "recovered from: injected fault"},
      {"MFEM_ex5", "clang++ -O3 -ffast-math", 0.0, 0.0L,
       OutcomeStatus::Crashed, "injected fault: simulated signal"},
      {"Laghos", "g++ -O1 -mavx2 -mfma", 0.0, 0.0L,
       OutcomeStatus::BuildFailed, "link failed"},
      {"Laghos", "g++ -O0", 0.0, 0.0L, OutcomeStatus::Degraded, ""},
      {"Laghos", "icpc -O2", 2.5e-300, 7.5e+200L, OutcomeStatus::Ok, ""},
  };
  const std::vector<std::string> seeds = {
      test::render(rows),
      "test\tcompilation\tspeedup\tvariability\n"
      "MFEM_ex5\tg++ -O2\t1.0625\t0\n"
      "MFEM_ex5\ticpc -O3\t2\t1e-12\n"
      "Laghos\tg++ -O3\t1.25\t0\n",
  };

  // A fixed budget of inputs, so the suite's time and verdict never move.
  constexpr int kInputs = 2500;
  std::mt19937_64 rng(20190624);
  int rejected = 0;
  int round_tripped = 0;
  for (int input = 0; input < kInputs; ++input) {
    std::string bytes = seeds[rng() % seeds.size()];
    for (int edits = 1 + static_cast<int>(rng() % 3); edits > 0; --edits) {
      mutate(&bytes, &rng);
    }
    test::write_file(path, bytes);
    std::vector<ResultRow> loaded;
    try {
      ResultsDb db(path);
      loaded = db.rows();
      db.record(core::StudyResult{});  // rewrites the file
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_TRUE(what.find(" at line") != std::string::npos ||
                  what.find("header in") != std::string::npos)
          << "input " << input << ": " << what;
      ++rejected;
      continue;
    }
    EXPECT_EQ(test::file_text(path), test::render(loaded))
        << "input " << input;
    EXPECT_TRUE(same_rows(ResultsDb(path).rows(), loaded))
        << "input " << input << " does not round-trip";
    ++round_tripped;
  }
  // Both verdicts are exercised, or the mutations are too weak or too
  // strong to test anything.
  EXPECT_GT(rejected, kInputs / 10);
  EXPECT_GT(round_tripped, kInputs / 10);
  fs::remove(path);
}

}  // namespace
