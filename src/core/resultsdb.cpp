#include "core/resultsdb.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <utility>

#include <sys/stat.h>

namespace flit::core {

namespace {

// v2 header (status/reason columns); v1 is still accepted on load so
// databases written before failure accounting existed keep working.
constexpr char kHeader[] =
    "test\tcompilation\tspeedup\tvariability\tstatus\treason";
constexpr char kHeaderV1[] = "test\tcompilation\tspeedup\tvariability";

/// Appends `r` to `out` as one line of the file.  save() and append()
/// both write through here, so an appended file is byte for byte a
/// rewritten one.
void format_row(const ResultRow& r, std::string* out) {
  // to_chars at a precision writes what printf's %.17g and %.21Lg write
  // (the standard defines it so), several times faster for a double or a
  // zero.  64 bytes hold both numbers, so neither call can run out.
  char nums[64];
  char* end = std::to_chars(nums, nums + sizeof nums, r.speedup,
                            std::chars_format::general, 17)
                  .ptr;
  *end++ = '\t';
  end = std::to_chars(end, nums + sizeof nums, r.variability,
                      std::chars_format::general, 21)
            .ptr;
  out->append(r.test_name).append(1, '\t').append(r.compilation);
  out->append(1, '\t').append(nums, end).append(1, '\t');
  out->append(to_string(r.status)).append(1, '\t');
  // Tabs and newlines are the format's structure; free-form reason text
  // is written with spaces in their place.
  for (const char c : r.reason) {
    out->push_back(c == '\t' || c == '\n' || c == '\r' ? ' ' : c);
  }
  out->push_back('\n');
}

/// Whether strtod/strtold, stopping at `end`, parsed all of `field` in a
/// form a save writes.  `end == c_str()` alone let a corrupted "1.5junk"
/// speedup load silently as 1.5, and a NUL byte inside the field would
/// end it early.  A save never writes leading whitespace, a '+' or a hex
/// float, so a byte flip that turned "1.5" into " .5" must not load as
/// 0.5; inf, nan and hand-written decimals such as "1e-12" still load.
bool well_formed(const std::string& field, const char* end) {
  return end != field.c_str() && end == field.c_str() + field.size() &&
         std::isspace(static_cast<unsigned char>(field[0])) == 0 &&
         field[0] != '+' && field.find_first_of("xX") == std::string::npos;
}

/// Writes `text` to `path`, opened with `mode`, and closes it: the bytes
/// are in the file when this returns, because the kill site exits right
/// after a checkpoint without unwinding.  Throws on any failure.
void write_text(const std::filesystem::path& path, std::ios::openmode mode,
                const std::string& text) {
  std::ofstream out(path, mode);
  if (!out) {
    throw std::runtime_error("ResultsDb: cannot write " + path.string());
  }
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();  // flushes
  if (!out) {
    throw std::runtime_error("ResultsDb: write failed for " + path.string());
  }
}

/// Parses one data row.  Returns false on a row that cannot round-trip
/// (e.g. truncated, or wider than its header) instead of throwing; the
/// caller decides whether that is fatal.
bool parse_row(std::string_view line, bool v1, ResultRow* row) {
  std::vector<std::string_view> f;
  for (std::size_t start = 0;;) {
    const std::size_t tab = line.find('\t', start);
    f.push_back(line.substr(start, tab - start));
    if (tab == std::string_view::npos) break;
    start = tab + 1;
  }
  // v1 rows have exactly four fields; v2 rows five or six (the reason is
  // the final field and may be absent).  A surplus field is a TAB inside
  // `reason` or a lost newline that joined two rows -- neither survives a
  // save, which writes TABs in a reason as spaces.  A CR in `reason` does
  // not survive one either.
  if (f.size() < (v1 ? 4u : 5u) || f.size() > (v1 ? 4u : 6u)) return false;
  row->test_name = f[0];
  row->compilation = f[1];
  row->status = OutcomeStatus::Ok;
  row->reason.clear();
  if (!v1) {
    const auto parsed = outcome_status_from(std::string(f[4]));
    if (!parsed.has_value()) return false;
    row->status = *parsed;
    if (f.size() == 6) {
      if (f[5].find('\r') != std::string_view::npos) return false;
      row->reason = f[5];
    }
  }
  const std::string speedup(f[2]);
  const std::string variability(f[3]);
  char* end = nullptr;
  row->speedup = std::strtod(speedup.c_str(), &end);
  if (!well_formed(speedup, end)) return false;
  row->variability = std::strtold(variability.c_str(), &end);
  return well_formed(variability, end);
}

/// Whether `a` and `b` write the same line.  Equal rows do unless a
/// number is a zero of the other sign; NaNs and reasons that differ only
/// where the format writes spaces compare unequal, which costs a rewrite.
bool writes_same(const ResultRow& a, const ResultRow& b) {
  return a == b && std::signbit(a.speedup) == std::signbit(b.speedup) &&
         std::signbit(a.variability) == std::signbit(b.variability);
}

/// The index key of a (test, compilation) row.  TAB separates the two as
/// in the file, which holds no TAB inside either.
std::string key_of(const std::string& test_name,
                   const std::string& compilation) {
  return test_name + '\t' + compilation;
}

}  // namespace

ResultsDb::ResultsDb(std::filesystem::path path) : path_(std::move(path)) {
  load();
}

void ResultsDb::load() {
  rows_.clear();
  index_.clear();
  synced_file_.reset();  // the first record() after a load rewrites
  synced_ = 0;
  std::ifstream in(path_, std::ios::binary);
  if (!in) return;  // first use: created on save
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  if (text.empty()) return;
  const std::size_t header_end = text.find('\n');
  const std::string_view header =
      std::string_view(text).substr(0, header_end);
  bool v1 = false;
  if (header == kHeaderV1) {
    v1 = true;
  } else if (header != kHeader) {
    throw std::runtime_error("ResultsDb: unrecognized header in " +
                             path_.string());
  }

  // Non-empty data lines with their 1-based line numbers in the file.  A
  // last line without its '\n' is torn: a kill mid-append left it.
  std::vector<std::pair<std::size_t, std::string_view>> lines;
  bool torn = false;
  std::size_t start =
      header_end == std::string::npos ? text.size() : header_end + 1;
  for (std::size_t n = 2; start < text.size(); ++n) {
    std::size_t end = text.find('\n', start);
    torn = end == std::string::npos;
    if (torn) end = text.size();
    if (end > start) {
      lines.emplace_back(n,
                         std::string_view(text).substr(start, end - start));
    }
    start = end + 1;
  }
  // Line of each row, to name both lines of a duplicate key: a (test,
  // compilation) key appears once, or find(), record() and merge_rows()
  // would disagree about its value.
  std::vector<std::size_t> row_line;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto& [line_no, line] = lines[i];
    const bool last = i + 1 == lines.size();
    ResultRow row;
    if ((last && torn) || !parse_row(line, v1, &row)) {
      if (last) {
        // A torn or malformed trailing row is what a crash mid-append
        // leaves behind, even when a torn one parses; drop it so the
        // database stays usable -- the row's study will simply re-run it
        // on resume.
        std::fprintf(stderr,
                     "ResultsDb: dropping malformed trailing row at line "
                     "%zu of %s\n",
                     line_no, path_.string().c_str());
        return;
      }
      throw std::runtime_error("ResultsDb: malformed row at line " +
                               std::to_string(line_no) + " of " +
                               path_.string());
    }
    const auto [it, first] =
        index_.try_emplace(key_of(row.test_name, row.compilation),
                           rows_.size());
    if (!first) {
      throw std::runtime_error(
          "ResultsDb: duplicate row for (" + row.test_name + ", " +
          row.compilation + ") at lines " +
          std::to_string(row_line[it->second]) + " and " +
          std::to_string(line_no) + " of " + path_.string());
    }
    rows_.push_back(std::move(row));
    row_line.push_back(line_no);
  }
}

void ResultsDb::upsert(ResultRow row) {
  const auto [it, inserted] = index_.try_emplace(
      key_of(row.test_name, row.compilation), rows_.size());
  if (inserted) {
    rows_.push_back(std::move(row));
  } else if (!writes_same(rows_[it->second], row)) {
    // A row the file already holds changed: only a rewrite replaces it.
    if (it->second < synced_) synced_file_.reset();
    rows_[it->second] = std::move(row);
  }
}

std::optional<ResultsDb::FileStamp> ResultsDb::stamp() const {
  struct stat st {};
  if (::stat(path_.c_str(), &st) != 0) return std::nullopt;
  return FileStamp{static_cast<std::uintmax_t>(st.st_dev),
                   static_cast<std::uintmax_t>(st.st_ino),
                   static_cast<std::uintmax_t>(st.st_size)};
}

void ResultsDb::save() {
  // Write-then-rename so a crash at any point leaves either the old or
  // the new database, never a half-written one.
  synced_file_.reset();
  std::string text = std::string(kHeader) + '\n';
  for (const ResultRow& r : rows_) format_row(r, &text);
  const std::filesystem::path tmp = path_.string() + ".tmp";
  write_text(tmp, std::ios::trunc, text);
  std::filesystem::rename(tmp, path_);
  synced_ = rows_.size();
  synced_file_ = stamp();
}

void ResultsDb::append() {
  if (synced_ == rows_.size()) return;
  std::string text;
  for (std::size_t i = synced_; i < rows_.size(); ++i) {
    format_row(rows_[i], &text);
  }
  synced_file_.reset();  // a failed append may leave a torn row behind
  write_text(path_, std::ios::app, text);
  synced_ = rows_.size();
  synced_file_ = stamp();
}

void ResultsDb::record(const StudyResult& study) {
  for (const CompilationOutcome& o : study.outcomes) {
    upsert({study.test_name, o.comp.str(), o.speedup, o.variability,
            o.status, o.reason});
  }
  // Append only onto the file this instance last left.  Another inode or
  // length means another instance wrote the path, and a rewrite lets the
  // last writer win.
  if (synced_file_.has_value() && stamp() == synced_file_) {
    append();
  } else {
    save();
  }
  ++records_;
}

void ResultsDb::merge_rows(const std::vector<ResultRow>& rows) {
  for (const ResultRow& row : rows) upsert(row);
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
  const auto it = index_.find(key_of(test_name, compilation));
  if (it == index_.end()) return std::nullopt;
  return rows_[it->second];
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
