#pragma once

// The ResultsDb file format rendered independently of ResultsDb, for the
// tests that pin what record() leaves on disk: the header, then one line
// per row with the numbers at %.17g / %.21Lg and a reason's TABs, CRs and
// LFs written as spaces.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "core/resultsdb.h"

namespace flit::core {

/// gtest prints rows field by field instead of as object bytes.
inline void PrintTo(const ResultRow& r, std::ostream* os) {
  *os << "{" << r.test_name << " | " << r.compilation << " | " << r.speedup
      << " | " << r.variability << " | " << to_string(r.status) << " | "
      << r.reason << "}";
}

}  // namespace flit::core

namespace flit::test {

/// The speedup and variability columns of `r`'s line.
inline std::string numbers_text(const core::ResultRow& r) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g\t%.21Lg", r.speedup, r.variability);
  return buf;
}

/// The file a ResultsDb holding `rows` writes.
inline std::string render(const std::vector<core::ResultRow>& rows) {
  std::string out = "test\tcompilation\tspeedup\tvariability\tstatus\treason\n";
  for (const core::ResultRow& r : rows) {
    std::string reason = r.reason;
    for (char& c : reason) {
      if (c == '\t' || c == '\r' || c == '\n') c = ' ';
    }
    out += r.test_name + '\t' + r.compilation + '\t' + numbers_text(r) +
           '\t' + core::to_string(r.status) + '\t' + reason + '\n';
  }
  return out;
}

inline std::string file_text(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

inline void write_file(const std::filesystem::path& path,
                       const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

}  // namespace flit::test
