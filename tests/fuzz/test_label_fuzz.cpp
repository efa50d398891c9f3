// Generated-kernel label lines under hostile edits: a seeded mutation
// fuzzer whose inputs must each be rejected with a std::invalid_argument
// whose message starts "label", or parse into a label whose tsv_line() is
// the input with leading zeros dropped from its three numeric columns.

#include <cstddef>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generator.h"

namespace {

using namespace flit;

/// The numeric columns of a label line: hazard_sites, seed, index.
constexpr std::size_t kNumericColumns[] = {3, 4, 5};

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> cols;
  std::size_t start = 0;
  for (std::size_t tab; (tab = line.find('\t', start)) != std::string::npos;
       start = tab + 1) {
    cols.push_back(line.substr(start, tab - start));
  }
  cols.push_back(line.substr(start));
  return cols;
}

/// `line` with leading zeros dropped from its numeric columns (a lone
/// "0" stays): what an accepted line's tsv_line() must read.
std::string canonical(const std::string& line) {
  std::vector<std::string> cols = split_tabs(line);
  if (cols.size() == 8) {
    for (const std::size_t c : kNumericColumns) {
      const std::size_t nonzero = cols[c].find_first_not_of('0');
      cols[c] = nonzero == std::string::npos ? "0" : cols[c].substr(nonzero);
    }
  }
  std::string out;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (i > 0) out += '\t';
    out += cols[i];
  }
  return out;
}

/// One random edit: a byte flip, an inserted or deleted tab, a long digit
/// run (inserted, or replacing a numeric column), or a truncation.
void mutate(std::string* bytes, std::mt19937_64* rng) {
  const auto below = [&](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>((*rng)() % n);
  };
  const auto digit_run = [&] {
    // Around the int, size_t and uint64 limits, and beyond them.
    static const char* const kEdges[] = {
        "2147483647",           "2147483648",           "4294967297",
        "18446744073709551615", "18446744073709551616",
        "99999999999999999999999", "0000000000000000000000042"};
    if ((*rng)() % 2 == 0) return std::string(kEdges[below(std::size(kEdges))]);
    std::string run(1 + below(30), '0');
    for (char& c : run) c = static_cast<char>('0' + below(10));
    return run;
  };
  switch ((*rng)() % 6) {
    case 0:
      if (!bytes->empty()) {
        (*bytes)[below(bytes->size())] ^=
            static_cast<char>(1 + (*rng)() % 255);
      }
      break;
    case 1:
      bytes->insert(below(bytes->size() + 1), 1, '\t');
      break;
    case 2: {
      std::vector<std::size_t> tabs;
      for (std::size_t i = 0; i < bytes->size(); ++i) {
        if ((*bytes)[i] == '\t') tabs.push_back(i);
      }
      if (!tabs.empty()) bytes->erase(tabs[below(tabs.size())], 1);
      break;
    }
    case 3:
      bytes->insert(below(bytes->size() + 1), digit_run());
      break;
    case 4: {
      std::vector<std::string> cols = split_tabs(*bytes);
      if (cols.size() != 8) break;
      cols[kNumericColumns[below(3)]] = digit_run();
      std::string out;
      for (std::size_t i = 0; i < cols.size(); ++i) {
        if (i > 0) out += '\t';
        out += cols[i];
      }
      *bytes = out;
      break;
    }
    default:
      bytes->resize(below(bytes->size() + 1));
  }
}

TEST(LabelFuzz, MutatedLinesAreRejectedOrRoundTrip) {
  gen::GenSpec spec;
  spec.seed = 9;
  spec.count = 12;
  std::vector<std::string> seeds;
  for (const gen::GeneratedKernel& k : gen::generate(spec)) {
    seeds.push_back(k.label().tsv_line());
  }

  // A fixed budget of inputs, so the suite's time and verdict never move.
  constexpr int kInputs = 8000;
  std::mt19937_64 rng(20190624);
  int rejected = 0;
  int round_tripped = 0;
  for (int input = 0; input < kInputs; ++input) {
    std::string line = seeds[rng() % seeds.size()];
    for (int edits = 1 + static_cast<int>(rng() % 2); edits > 0; --edits) {
      mutate(&line, &rng);
    }
    gen::GroundTruthLabel label;
    try {
      label = gen::GroundTruthLabel::from_tsv_line(line);
    } catch (const std::invalid_argument& e) {
      EXPECT_TRUE(std::string(e.what()).starts_with("label"))
          << "input " << input << ": " << e.what();
      ++rejected;
      continue;
    }
    EXPECT_EQ(label.tsv_line(), canonical(line)) << "input " << input;
    ++round_tripped;
  }
  // Both verdicts are exercised, or the mutations are too weak or too
  // strong to test anything.
  EXPECT_GT(rejected, kInputs / 10);
  EXPECT_GT(round_tripped, kInputs / 10);
}

TEST(LabelFuzz, NumbersOutsideTheirFieldAreRejected) {
  const std::string head = "K\tfma\tfma-contraction\t";
  const std::string tail = "\tf.cpp\tK";
  const auto parses = [&](const std::string& hazards, const std::string& seed,
                          const std::string& index) {
    try {
      (void)gen::GroundTruthLabel::from_tsv_line(head + hazards + '\t' + seed +
                                                 '\t' + index + tail);
      return true;
    } catch (const std::invalid_argument& e) {
      EXPECT_TRUE(std::string(e.what()).starts_with("label")) << e.what();
      return false;
    }
  };
  // These used to wrap: 4294967297 hazard sites read as 1, a 23-digit
  // count as -159,383,553, and seed 2^64 as 0.
  EXPECT_FALSE(parses("4294967297", "1", "0"));
  EXPECT_FALSE(parses("99999999999999999999999", "1", "0"));
  EXPECT_FALSE(parses("2147483648", "1", "0"));
  EXPECT_FALSE(parses("1", "18446744073709551616", "0"));
  EXPECT_FALSE(parses("1", "1", "18446744073709551616"));
  // Each field's own maximum still parses.
  EXPECT_TRUE(parses("2147483647", "18446744073709551615",
                     "18446744073709551615"));
}

}  // namespace
