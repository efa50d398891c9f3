#pragma once

// File-backed results database (upstream FLiT records every run in
// SQLite; this is the same layer as a dependency-free TSV store).  One
// row per (test, compilation) outcome -- including crashed and
// build-failed outcomes, which is what makes studies resumable: a killed
// `flit explore --db r.tsv --resume` skips every recorded row and
// converges to the same database an uninterrupted run produces.  The one
// status a resume does NOT skip is "degraded" (the fleet supervisor ran
// out of live ranks before the item ever executed): re-running with
// --resume fills those cells in and converges to the unfaulted bytes.
//
// Durability: save() writes a temporary file in the database's directory
// and renames it into place, so a crash mid-save never bricks the store;
// load() tolerates a malformed trailing row (dropped with a warning) and
// accepts the pre-status four-column header for databases written before
// failure accounting existed.  Every other row load() cannot round-trip
// -- malformed, wider than its header, or a second row for a (test,
// compilation) key -- throws std::runtime_error naming its line.

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/explorer.h"

namespace flit::core {

struct ResultRow {
  std::string test_name;
  std::string compilation;  ///< canonical Compilation::str()
  double speedup = 0.0;
  long double variability = 0.0L;
  OutcomeStatus status = OutcomeStatus::Ok;
  std::string reason;  ///< failure (or recovered-fault) reason; no tabs

  [[nodiscard]] bool ok() const {
    return status == OutcomeStatus::Ok || status == OutcomeStatus::Retried;
  }
  [[nodiscard]] bool bitwise_equal() const {
    return ok() && variability == 0.0L;
  }

  friend bool operator==(const ResultRow&, const ResultRow&) = default;
};

/// TSV-backed store of study outcomes.
class ResultsDb {
 public:
  /// Opens (or creates on first save) the database at `path`.
  explicit ResultsDb(std::filesystem::path path);

  /// Merges a study's outcomes (replacing rows with the same
  /// test/compilation key) and persists to disk atomically.
  void record(const StudyResult& study);

  /// Upserts foreign rows in memory (same key semantics as record)
  /// without touching disk; they persist with the next record().  The
  /// work-stealing resume path seeds every shard's database with the
  /// union of all shard checkpoints this way, so a row a thief shard
  /// recorded is found no matter which shard re-owns its index.
  void merge_rows(const std::vector<ResultRow>& rows);

  /// Every row, in insertion order.
  [[nodiscard]] const std::vector<ResultRow>& rows() const { return rows_; }

  /// All rows for one test, in insertion order.
  [[nodiscard]] std::vector<ResultRow> rows_for(
      const std::string& test_name) const;

  /// The row for one (test, compilation) pair, if present.
  [[nodiscard]] std::optional<ResultRow> find(
      const std::string& test_name, const std::string& compilation) const;

  /// Distinct test names present in the database.
  [[nodiscard]] std::vector<std::string> tests() const;

  [[nodiscard]] std::size_t size() const { return rows_.size(); }

  /// Reloads from disk, discarding in-memory state.
  void reload();

 private:
  void load();
  void save() const;

  std::filesystem::path path_;
  std::vector<ResultRow> rows_;
};

}  // namespace flit::core
