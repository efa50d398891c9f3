// FLIT_FAULTS specs under hostile edits: a seeded mutation fuzzer over
// FaultInjector::configure.  Each input must be rejected with a
// std::invalid_argument whose message starts "FLIT_FAULTS:", or be
// accepted exactly when a small reference parser of the grammar in
// core/faults.h accepts it; an accepted spec must arm the entries the
// reference reads, and an injector armed with them through arm() must
// decide every should_fail and should_kill the same way.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/faults.h"

namespace {

using flit::core::FaultInjector;
using flit::core::FaultSite;

constexpr FaultSite kSites[] = {FaultSite::Compile, FaultSite::Link,
                                FaultSite::Run,     FaultSite::Kill,
                                FaultSite::Shard,   FaultSite::Stall};

struct Entry {
  FaultSite site{};
  double value = 0.0;  ///< a rate, or the kill site's checkpoint count
  std::uint64_t seed = 0;
};

bool all_digits(const std::string& s) {
  return !s.empty() && s.find_first_not_of("0123456789") == std::string::npos;
}

/// Decimal digits whose value fits `T`, compared as digit strings.
template <typename T>
std::optional<T> bounded(const std::string& s) {
  if (!all_digits(s)) return std::nullopt;
  const std::size_t nonzero = s.find_first_not_of('0');
  const std::string v = nonzero == std::string::npos ? "0" : s.substr(nonzero);
  const std::string max = std::to_string(std::numeric_limits<T>::max());
  if (v.size() > max.size() || (v.size() == max.size() && v > max)) {
    return std::nullopt;
  }
  return static_cast<T>(std::stoull(v));
}

/// A plain decimal (digits, optionally '.' and digits) no larger than 1,
/// compared on its digits before any rounding.
std::optional<double> unit_rate(const std::string& s) {
  const std::size_t dot = s.find('.');
  const std::string whole = s.substr(0, dot);
  const std::string frac =
      dot == std::string::npos ? "" : s.substr(dot + 1);
  if (!all_digits(whole) || (dot != std::string::npos && !all_digits(frac))) {
    return std::nullopt;
  }
  const std::size_t nonzero = whole.find_first_not_of('0');
  const std::string w =
      nonzero == std::string::npos ? "" : whole.substr(nonzero);
  if (!w.empty() &&
      !(w == "1" && frac.find_first_not_of('0') == std::string::npos)) {
    return std::nullopt;
  }
  return std::stod(s);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t at; (at = s.find(sep, start)) != std::string::npos;
       start = at + 1) {
    parts.push_back(s.substr(start, at - start));
  }
  parts.push_back(s.substr(start));
  return parts;
}

/// The reference reading of `spec`: its entries, or nullopt when the
/// grammar rejects it.  Empty entries are skipped.
std::optional<std::vector<Entry>> reference_parse(const std::string& spec) {
  static const std::map<std::string, FaultSite> kNames = {
      {"compile", FaultSite::Compile}, {"link", FaultSite::Link},
      {"run", FaultSite::Run},         {"kill", FaultSite::Kill},
      {"shard", FaultSite::Shard},     {"stall", FaultSite::Stall}};
  std::vector<Entry> entries;
  for (const std::string& text : split(spec, ',')) {
    if (text.empty()) continue;
    const std::vector<std::string> fields = split(text, ':');
    if (fields.size() < 2 || fields.size() > 3) return std::nullopt;
    const auto name = kNames.find(fields[0]);
    if (name == kNames.end()) return std::nullopt;
    Entry e;
    e.site = name->second;
    for (const Entry& seen : entries) {
      if (seen.site == e.site) return std::nullopt;
    }
    if (e.site == FaultSite::Kill) {
      const std::optional<std::size_t> count = bounded<std::size_t>(fields[1]);
      if (!count) return std::nullopt;
      e.value = static_cast<double>(*count);
    } else {
      const std::optional<double> rate = unit_rate(fields[1]);
      if (!rate) return std::nullopt;
      e.value = *rate;
    }
    if (fields.size() == 3) {
      const std::optional<std::uint64_t> seed =
          bounded<std::uint64_t>(fields[2]);
      if (!seed) return std::nullopt;
      e.seed = *seed;
    }
    entries.push_back(e);
  }
  return entries;
}

/// One random edit: a byte flip, an inserted or deleted ':' or ',', a
/// digit run at the size_t/uint64 edges (inserted, or replacing a number)
/// or a long zero run ending in 1 (the edge of a rate's rounding), an
/// inserted '.', 'e', 'x', sign, space, "nan" or "inf", a duplicated
/// entry, or a truncation.
void mutate(std::string* spec, std::mt19937_64* rng) {
  const auto below = [&](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>((*rng)() % n);
  };
  const auto digit_run = [&] {
    static const char* const kRuns[] = {
        "18446744073709551615", "18446744073709551616",
        "99999999999999999999", "00000000000000000001"};
    return std::string(kRuns[below(std::size(kRuns))]);
  };
  const auto positions_of = [&](const std::string& chars) {
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < spec->size(); ++i) {
      if (chars.find((*spec)[i]) != std::string::npos) at.push_back(i);
    }
    return at;
  };
  switch ((*rng)() % 8) {
    case 0:
      if (!spec->empty()) {
        (*spec)[below(spec->size())] ^= static_cast<char>(1 + (*rng)() % 255);
      }
      break;
    case 1:
      spec->insert(below(spec->size() + 1), 1, (*rng)() % 2 ? ':' : ',');
      break;
    case 2: {
      const std::vector<std::size_t> at = positions_of(":,");
      if (!at.empty()) spec->erase(at[below(at.size())], 1);
      break;
    }
    case 3:
      spec->insert(below(spec->size() + 1), digit_run());
      break;
    case 4: {
      // Replace a whole number (a rate's digits or a seed) with a run.
      const std::vector<std::size_t> at = positions_of("0123456789");
      if (at.empty()) break;
      const auto digit = [&](std::size_t i) {
        return (*spec)[i] >= '0' && (*spec)[i] <= '9';
      };
      std::size_t first = at[below(at.size())];
      std::size_t last = first;
      while (first > 0 && digit(first - 1)) --first;
      while (last + 1 < spec->size() && digit(last + 1)) ++last;
      spec->replace(first, last - first + 1, digit_run());
      break;
    }
    case 5: {
      static const char* const kJunk[] = {".", "e", "x", "+", "-",
                                          " ", "nan", "inf"};
      spec->insert(below(spec->size() + 1), kJunk[below(std::size(kJunk))]);
      break;
    }
    case 6: {
      const std::vector<std::string> entries = split(*spec, ',');
      const std::string& twin = entries[below(entries.size())];
      *spec += "," + twin;
      break;
    }
    default:
      spec->resize(below(spec->size() + 1));
  }
}

TEST(FaultSpecFuzz, MutatedSpecsAreRejectedOrArmWhatTheGrammarReads) {
  // The specs FaultToleranceTest.ConfigureRejectsValuesItCannotMean
  // accepts: every spelling the tools, smokes and docs use.
  const std::vector<std::string> seeds = {
      "run:0.5:42",  "run:0.05:7", "kill:2:0",     "kill:3:0",
      "shard:0.05:3", "stall:0.3:3", "compile:0.1", "link:0.02",
      "shard:1.0:1", "run:0",      "run:1",        "kill:0",
      "run:0.5:18446744073709551615", "shard:0.05:3,kill:2:0"};
  const std::vector<std::string> contexts = {"", "MFEM_ex5|g++ -O3",
                                             "bisect|clang++ -O2#7"};
  const std::vector<std::string> keys = {"", "a.cpp", "claim[0,16)",
                                         "link", "run", "42"};

  // A fixed budget of inputs, so the suite's time and verdict never move.
  constexpr int kInputs = 3000;
  std::mt19937_64 rng(20190624);
  int rejected = 0;
  int accepted = 0;
  for (int input = 0; input < kInputs; ++input) {
    std::string spec = seeds[rng() % seeds.size()];
    for (int edits = 1 + static_cast<int>(rng() % 2); edits > 0; --edits) {
      mutate(&spec, &rng);
    }
    const std::optional<std::vector<Entry>> expected = reference_parse(spec);
    FaultInjector configured;
    try {
      configured.configure(spec);
    } catch (const std::invalid_argument& e) {
      EXPECT_TRUE(std::string(e.what()).starts_with("FLIT_FAULTS:"))
          << "input " << input << ": " << e.what();
      EXPECT_FALSE(expected.has_value())
          << "input " << input << " '" << spec << "' rejected: " << e.what();
      EXPECT_FALSE(configured.any_armed()) << "input " << input;
      ++rejected;
      continue;
    }
    ++accepted;
    if (!expected.has_value()) {
      ADD_FAILURE() << "input " << input << " '" << spec
                    << "' accepted outside the grammar";
      continue;
    }

    FaultInjector armed;
    for (const Entry& e : *expected) armed.arm(e.site, e.value, e.seed);
    EXPECT_EQ(configured.any_armed(), armed.any_armed()) << spec;
    for (const FaultSite site : kSites) {
      EXPECT_EQ(configured.armed(site), armed.armed(site))
          << spec << " site " << flit::core::to_string(site);
      for (std::size_t c = 0; c < contexts.size(); ++c) {
        const FaultInjector::ScopedTrial trial(contexts[c],
                                               static_cast<int>(c));
        for (const std::string& key : keys) {
          EXPECT_EQ(configured.should_fail(site, key),
                    armed.should_fail(site, key))
              << spec << " site " << flit::core::to_string(site)
              << " context '" << contexts[c] << "' key '" << key << "'";
        }
      }
    }
    for (const std::size_t checkpoints :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
          std::size_t{1000}, std::numeric_limits<std::size_t>::max()}) {
      EXPECT_EQ(configured.should_kill(checkpoints),
                armed.should_kill(checkpoints))
          << spec << " at " << checkpoints << " checkpoints";
    }
  }
  // Both verdicts are exercised, or the mutations are too weak or too
  // strong to test anything.
  EXPECT_GT(rejected, kInputs / 10);
  EXPECT_GT(accepted, kInputs / 10);
}

// Found by the fuzzer: strtod rounds these rates to exactly 1, and they
// used to arm their sites at rate 1.
TEST(FaultSpecFuzz, RatesJustAboveOneAreRejected) {
  for (const char* spec :
       {"shard:1.00000000000000000001:1", "run:1.0000000000000000000011",
        "link:01.00000000000000000000000000001"}) {
    FaultInjector inj;
    try {
      inj.configure(spec);
      ADD_FAILURE() << "accepted '" << spec << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_TRUE(std::string(e.what()).starts_with("FLIT_FAULTS: bad rate"))
          << e.what();
    }
    EXPECT_FALSE(inj.any_armed()) << spec;
  }
  // One itself, however spelled, and rates below it that round up to it.
  for (const char* spec : {"run:1.00000000000000000000", "run:001",
                           "run:0.99999999999999999999"}) {
    FaultInjector inj;
    EXPECT_NO_THROW(inj.configure(spec)) << spec;
    EXPECT_TRUE(inj.should_fail(FaultSite::Run, "any")) << spec;
  }
}

}  // namespace
