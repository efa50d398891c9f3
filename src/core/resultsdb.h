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
// Durability: the crash model is process death (a kill, a crash, the
// injector's kill:N site), not power loss -- nothing calls fsync.  A
// record() appends the rows that are new since the last write: one open,
// one write, a flush and a close before it returns, so the checkpoint is
// on disk when a killed process exits.  It rewrites the whole file
// instead -- into a temporary in the database's directory, renamed into
// place, so a crash mid-rewrite leaves the old or the new database --
// when the file does not exist yet, on the first record() after a load,
// when a row the file already holds changed value, or when the file's
// inode or length is not what this instance last left (another instance
// wrote the path, and the rewrite lets the last writer win).  Either way
// the file is byte for byte what a rewrite of the same rows writes.
//
// load() drops a torn tail with a warning: a last line without its
// '\n' is what a kill mid-append leaves, even when it parses.  It also
// drops a malformed last row, and accepts the pre-status four-column
// header for databases written before failure accounting existed; the
// next record() rewrites the file.  Every other row load() cannot
// round-trip -- malformed, wider than its header, or a second row for a
// (test, compilation) key -- throws std::runtime_error naming its line.

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <unordered_map>
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
  /// test/compilation key) and persists them before returning.
  void record(const StudyResult& study);

  /// record() calls this instance has made: the checkpoints the
  /// injector's kill site counts.
  [[nodiscard]] std::size_t records() const { return records_; }

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
  /// Inserts `row`, or replaces the row with its key unless the two
  /// would write the same bytes.
  void upsert(ResultRow row);
  void save();
  void append();

  /// stat()'s view of the database file.  A rewrite renames a new file
  /// into place, so another instance's rewrite changes the inode, and an
  /// append changes the length.
  struct FileStamp {
    std::uintmax_t device = 0;
    std::uintmax_t inode = 0;
    std::uintmax_t bytes = 0;
    friend bool operator==(const FileStamp&, const FileStamp&) = default;
  };
  /// The file's stamp, or nothing when it cannot be stat'ed.
  [[nodiscard]] std::optional<FileStamp> stamp() const;

  std::filesystem::path path_;
  std::vector<ResultRow> rows_;
  /// Position in rows_ of each (test, compilation) key's row.
  std::unordered_map<std::string, std::size_t> index_;
  /// Set while the file holds exactly what save() writes for
  /// rows_[0, synced_): the stamp this instance's last write left on it.
  /// Unset until this instance writes the file, and after one of those
  /// rows changes.
  std::optional<FileStamp> synced_file_;
  std::size_t synced_ = 0;
  std::size_t records_ = 0;
};

}  // namespace flit::core
