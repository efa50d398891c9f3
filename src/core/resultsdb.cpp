#include "core/resultsdb.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace flit::core {

namespace {

// v2 header (status/reason columns); v1 is still accepted on load so
// databases written before failure accounting existed keep working.
constexpr char kHeader[] =
    "test\tcompilation\tspeedup\tvariability\tstatus\treason";
constexpr char kHeaderV1[] = "test\tcompilation\tspeedup\tvariability";

/// Tabs and newlines are the format's structure; strip them from free-form
/// reason text before it is persisted.
std::string sanitized(std::string s) {
  for (char& c : s) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

/// Parses one data row.  Returns false on a row that cannot round-trip
/// (e.g. truncated, or wider than its header) instead of throwing; the
/// caller decides whether that is fatal.
bool parse_row(const std::string& line, bool v1, ResultRow* row) {
  std::vector<std::string> f;
  for (std::size_t start = 0;;) {
    const std::size_t tab = line.find('\t', start);
    f.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) break;
    start = tab + 1;
  }
  // v1 rows have exactly four fields; v2 rows five or six (the reason is
  // the final field and may be absent).  A surplus field is a TAB inside
  // `reason` or a lost newline that joined two rows -- neither survives a
  // save, which writes TABs in a reason as spaces.
  if (f.size() < (v1 ? 4u : 5u) || f.size() > (v1 ? 4u : 6u)) return false;
  row->test_name = f[0];
  row->compilation = f[1];
  row->status = OutcomeStatus::Ok;
  row->reason.clear();
  if (!v1) {
    const auto parsed = outcome_status_from(f[4]);
    if (!parsed.has_value()) return false;
    row->status = *parsed;
    if (f.size() == 6) row->reason = f[5];
  }
  // Numeric fields must be consumed in full: `end == c_str()` alone let a
  // corrupted "1.5junk" speedup load silently as 1.5.
  char* end = nullptr;
  row->speedup = std::strtod(f[2].c_str(), &end);
  if (end == f[2].c_str() || *end != '\0') return false;
  end = nullptr;
  row->variability = strtold(f[3].c_str(), &end);
  if (end == f[3].c_str() || *end != '\0') return false;
  return true;
}

}  // namespace

ResultsDb::ResultsDb(std::filesystem::path path) : path_(std::move(path)) {
  load();
}

void ResultsDb::load() {
  rows_.clear();
  std::ifstream in(path_);
  if (!in) return;  // first use: created on save
  std::string line;
  if (!std::getline(in, line)) return;
  bool v1 = false;
  if (line == kHeaderV1) {
    v1 = true;
  } else if (line != kHeader) {
    throw std::runtime_error("ResultsDb: unrecognized header in " +
                             path_.string());
  }

  // Non-empty data lines with their 1-based line numbers in the file.
  std::vector<std::pair<std::size_t, std::string>> lines;
  for (std::size_t n = 2; std::getline(in, line); ++n) {
    if (!line.empty()) lines.emplace_back(n, std::move(line));
  }
  // Line of each (test, compilation) key's row: a key appears once, or
  // find(), record() and merge_rows() would disagree about its value.
  std::unordered_map<std::string, std::size_t> key_line;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto& [n, text] = lines[i];
    ResultRow row;
    if (!parse_row(text, v1, &row)) {
      if (i + 1 == lines.size()) {
        // A malformed trailing row is what a crash mid-append leaves
        // behind; drop it so the database stays usable -- the row's study
        // will simply re-run it on resume.
        std::fprintf(stderr,
                     "ResultsDb: dropping malformed trailing row at line "
                     "%zu of %s\n",
                     n, path_.string().c_str());
        return;
      }
      throw std::runtime_error("ResultsDb: malformed row at line " +
                               std::to_string(n) + " of " + path_.string());
    }
    const auto [it, first] =
        key_line.try_emplace(row.test_name + '\t' + row.compilation, n);
    if (!first) {
      throw std::runtime_error(
          "ResultsDb: duplicate row for (" + row.test_name + ", " +
          row.compilation + ") at lines " + std::to_string(it->second) +
          " and " + std::to_string(n) + " of " + path_.string());
    }
    rows_.push_back(std::move(row));
  }
}

void ResultsDb::save() const {
  // Write-then-rename so a crash at any point leaves either the old or
  // the new database, never a half-written one.
  const std::filesystem::path tmp = path_.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      throw std::runtime_error("ResultsDb: cannot write " + tmp.string());
    }
    out << kHeader << '\n';
    char buf[64];
    for (const ResultRow& r : rows_) {
      std::snprintf(buf, sizeof buf, "%.17g\t%.21Lg", r.speedup,
                    r.variability);
      out << r.test_name << '\t' << r.compilation << '\t' << buf << '\t'
          << to_string(r.status) << '\t' << sanitized(r.reason) << '\n';
    }
    out.flush();
    if (!out) {
      throw std::runtime_error("ResultsDb: write failed for " +
                               tmp.string());
    }
  }
  std::filesystem::rename(tmp, path_);
}

void ResultsDb::record(const StudyResult& study) {
  for (const CompilationOutcome& o : study.outcomes) {
    ResultRow row{study.test_name, o.comp.str(), o.speedup, o.variability,
                  o.status,        o.reason};
    const auto it = std::find_if(
        rows_.begin(), rows_.end(), [&](const ResultRow& r) {
          return r.test_name == row.test_name &&
                 r.compilation == row.compilation;
        });
    if (it != rows_.end()) {
      *it = std::move(row);
    } else {
      rows_.push_back(std::move(row));
    }
  }
  save();
}

void ResultsDb::merge_rows(const std::vector<ResultRow>& rows) {
  for (const ResultRow& row : rows) {
    const auto it = std::find_if(
        rows_.begin(), rows_.end(), [&](const ResultRow& r) {
          return r.test_name == row.test_name &&
                 r.compilation == row.compilation;
        });
    if (it != rows_.end()) {
      *it = row;
    } else {
      rows_.push_back(row);
    }
  }
}

std::vector<ResultRow> ResultsDb::rows_for(
    const std::string& test_name) const {
  std::vector<ResultRow> out;
  for (const ResultRow& r : rows_) {
    if (r.test_name == test_name) out.push_back(r);
  }
  return out;
}

std::optional<ResultRow> ResultsDb::find(
    const std::string& test_name, const std::string& compilation) const {
  for (const ResultRow& r : rows_) {
    if (r.test_name == test_name && r.compilation == compilation) return r;
  }
  return std::nullopt;
}

std::vector<std::string> ResultsDb::tests() const {
  std::vector<std::string> out;
  for (const ResultRow& r : rows_) {
    if (std::find(out.begin(), out.end(), r.test_name) == out.end()) {
      out.push_back(r.test_name);
    }
  }
  return out;
}

void ResultsDb::reload() { load(); }

}  // namespace flit::core
