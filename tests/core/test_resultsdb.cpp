// ResultsDb: round-trip persistence, merge-on-record semantics, queries,
// malformed-file rejection, and the appended file matching a rewrite.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/resultsdb.h"
#include "resultsdb_text.h"

namespace {

using namespace flit;
using core::ResultsDb;
using core::StudyResult;

namespace fs = std::filesystem;

class ResultsDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = fs::temp_directory_path() /
            ("flit_resultsdb_test_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::remove(path_);
  }
  void TearDown() override { fs::remove(path_); }

  StudyResult study(const std::string& name, double speedup,
                    long double var) {
    StudyResult r;
    r.test_name = name;
    core::CompilationOutcome o;
    o.comp = {toolchain::gcc(), toolchain::OptLevel::O2, ""};
    o.speedup = speedup;
    o.variability = var;
    r.outcomes.push_back(o);
    core::CompilationOutcome o2;
    o2.comp = {toolchain::icpc(), toolchain::OptLevel::O3,
               "-fp-model fast=2"};
    o2.speedup = speedup * 1.1;
    o2.variability = 1e-9L;
    r.outcomes.push_back(o2);
    return r;
  }

  fs::path path_;
};

TEST_F(ResultsDbTest, EmptyOnFirstOpen) {
  ResultsDb db(path_);
  EXPECT_EQ(db.size(), 0u);
  EXPECT_TRUE(db.tests().empty());
}

TEST_F(ResultsDbTest, RecordPersistsAcrossReopen) {
  {
    ResultsDb db(path_);
    db.record(study("T1", 1.25, 0.0L));
  }
  ResultsDb db2(path_);
  EXPECT_EQ(db2.size(), 2u);
  const auto row = db2.find("T1", "g++ -O2");
  ASSERT_TRUE(row.has_value());
  EXPECT_DOUBLE_EQ(row->speedup, 1.25);
  EXPECT_TRUE(row->bitwise_equal());
  const auto vrow = db2.find("T1", "icpc -O3 -fp-model fast=2");
  ASSERT_TRUE(vrow.has_value());
  EXPECT_FALSE(vrow->bitwise_equal());
}

TEST_F(ResultsDbTest, RecordMergesByKey) {
  ResultsDb db(path_);
  db.record(study("T1", 1.0, 0.0L));
  db.record(study("T1", 2.0, 0.0L));  // same keys, new values
  EXPECT_EQ(db.size(), 2u);
  EXPECT_DOUBLE_EQ(db.find("T1", "g++ -O2")->speedup, 2.0);
}

TEST_F(ResultsDbTest, MultipleTestsCoexist) {
  ResultsDb db(path_);
  db.record(study("T1", 1.0, 0.0L));
  db.record(study("T2", 1.5, 1e-12L));
  EXPECT_EQ(db.size(), 4u);
  EXPECT_EQ(db.tests(), (std::vector<std::string>{"T1", "T2"}));
  EXPECT_EQ(db.rows_for("T2").size(), 2u);
  EXPECT_TRUE(db.rows_for("T3").empty());
}

TEST_F(ResultsDbTest, VariabilityRoundTripsAtFullPrecision) {
  const long double v = 1.234567890123456789e-13L;
  {
    ResultsDb db(path_);
    db.record(study("T1", 1.0, v));
  }
  ResultsDb db2(path_);
  EXPECT_EQ(db2.find("T1", "g++ -O2")->variability, v);
}

TEST_F(ResultsDbTest, RejectsForeignFiles) {
  {
    std::ofstream out(path_);
    out << "not a results db\n";
  }
  EXPECT_THROW(ResultsDb{path_}, std::runtime_error);
}

TEST_F(ResultsDbTest, ReloadDiscardsUnsavedExternalChanges) {
  ResultsDb db(path_);
  db.record(study("T1", 1.0, 0.0L));
  {
    ResultsDb other(path_);
    other.record(study("T2", 3.0, 0.0L));
  }
  db.reload();
  EXPECT_EQ(db.tests().size(), 2u);
}

TEST_F(ResultsDbTest, CrashStatusRowsRoundTrip) {
  StudyResult r = study("T1", 0.0, 0.0L);
  r.outcomes[0].status = core::OutcomeStatus::Crashed;
  r.outcomes[0].reason = "injected fault: simulated signal";
  r.outcomes[0].speedup = 0.0;
  r.outcomes[1].status = core::OutcomeStatus::Retried;
  r.outcomes[1].reason = "recovered from:\ta\ttransient";  // tabs stripped
  {
    ResultsDb db(path_);
    db.record(r);
  }
  ResultsDb db2(path_);
  const auto crashed = db2.find("T1", "g++ -O2");
  ASSERT_TRUE(crashed.has_value());
  EXPECT_EQ(crashed->status, core::OutcomeStatus::Crashed);
  EXPECT_EQ(crashed->reason, "injected fault: simulated signal");
  EXPECT_FALSE(crashed->ok());
  EXPECT_FALSE(crashed->bitwise_equal())
      << "zero variability on a crashed row must not read as reproducible";
  const auto retried = db2.find("T1", "icpc -O3 -fp-model fast=2");
  ASSERT_TRUE(retried.has_value());
  EXPECT_EQ(retried->status, core::OutcomeStatus::Retried);
  EXPECT_EQ(retried->reason, "recovered from: a transient");
  EXPECT_TRUE(retried->ok());
}

TEST_F(ResultsDbTest, TruncatedTrailingRowIsDroppedNotFatal) {
  {
    ResultsDb db(path_);
    db.record(study("T1", 1.0, 0.0L));
  }
  {
    // Simulate a crash mid-append: a final row missing most of its fields.
    std::ofstream out(path_, std::ios::app);
    out << "T1\tclang++ -O3";
  }
  ResultsDb db(path_);  // must not throw
  EXPECT_EQ(db.size(), 2u);
  EXPECT_FALSE(db.find("T1", "clang++ -O3").has_value());
  // Re-saving heals the file.
  db.record(study("T2", 1.0, 0.0L));
  EXPECT_EQ(ResultsDb(path_).size(), 4u);
}

TEST_F(ResultsDbTest, MalformedMidFileRowIsStillFatal) {
  {
    ResultsDb db(path_);
    db.record(study("T1", 1.0, 0.0L));
  }
  // Corrupt the *first* data row; unlike a truncated tail this is not a
  // crash artifact, so it must be surfaced.
  std::ifstream in(path_);
  std::string header, rest, line;
  std::getline(in, header);
  std::getline(in, line);  // dropped
  while (std::getline(in, line)) rest += line + "\n";
  in.close();
  {
    std::ofstream out(path_, std::ios::trunc);
    out << header << "\nT1\tgarbage row\n" << rest;
  }
  EXPECT_THROW(ResultsDb{path_}, std::runtime_error);
}

TEST_F(ResultsDbTest, MergeRowsUpsertsInMemoryWithoutSaving) {
  ResultsDb db(path_);
  db.record(study("T1", 1.0, 0.0L));

  core::ResultRow fresh;
  fresh.test_name = "T2";
  fresh.compilation = "clang++ -O3";
  fresh.speedup = 2.0;
  core::ResultRow update;
  update.test_name = "T1";
  update.compilation = "g++ -O2";
  update.speedup = 9.0;
  db.merge_rows({fresh, update});

  // In memory: the new row is visible and the existing one was replaced.
  EXPECT_EQ(db.size(), 3u);
  EXPECT_DOUBLE_EQ(db.find("T2", "clang++ -O3")->speedup, 2.0);
  EXPECT_DOUBLE_EQ(db.find("T1", "g++ -O2")->speedup, 9.0);
  // On disk: nothing until the next record() persists the merged state.
  EXPECT_EQ(ResultsDb(path_).size(), 2u);
  db.record(study("T3", 1.0, 0.0L));
  EXPECT_EQ(ResultsDb(path_).size(), 5u);
}

TEST_F(ResultsDbTest, CorruptedNumericFieldIsFatalMidFile) {
  {
    ResultsDb db(path_);
    db.record(study("T1", 1.0, 0.0L));
  }
  // A speedup with trailing garbage parses as a number under a lax
  // strtod check ("1.5junk" -> 1.5); it must be rejected as corruption,
  // not silently loaded with a plausible value.
  std::ifstream in(path_);
  std::string header, rest, line;
  std::getline(in, header);
  std::getline(in, line);  // dropped
  while (std::getline(in, line)) rest += line + "\n";
  in.close();
  {
    std::ofstream out(path_, std::ios::trunc);
    out << header << "\nT1\tg++ -O2\t1.5junk\t0\tok\t\n" << rest;
  }
  EXPECT_THROW(ResultsDb{path_}, std::runtime_error);

  // Same for the variability column.
  {
    std::ofstream out(path_, std::ios::trunc);
    out << header << "\nT1\tg++ -O2\t1.5\t1e-12x\tok\t\n" << rest;
  }
  EXPECT_THROW(ResultsDb{path_}, std::runtime_error);

  // An entirely empty numeric field is corruption too.
  {
    std::ofstream out(path_, std::ios::trunc);
    out << header << "\nT1\tg++ -O2\t\t0\tok\t\n" << rest;
  }
  EXPECT_THROW(ResultsDb{path_}, std::runtime_error);
}

TEST_F(ResultsDbTest, CorruptedNumericFieldInTrailingRowIsDropped) {
  {
    ResultsDb db(path_);
    db.record(study("T1", 1.0, 0.0L));
  }
  {
    // A crash can also truncate mid-number; as the *last* row this is a
    // crash artifact and gets dropped, like any truncated tail.
    std::ofstream out(path_, std::ios::app);
    out << "T1\tclang++ -O3\t1.5junk\t0\tok\t\n";
  }
  ResultsDb db(path_);  // must not throw
  EXPECT_EQ(db.size(), 2u);
  EXPECT_FALSE(db.find("T1", "clang++ -O3").has_value());
}

TEST_F(ResultsDbTest, LoadsPreStatusV1Databases) {
  {
    std::ofstream out(path_);
    out << "test\tcompilation\tspeedup\tvariability\n"
        << "T1\tg++ -O2\t1.5\t0\n"
        << "T1\ticpc -O3\t2\t1e-12\n";
  }
  ResultsDb db(path_);
  EXPECT_EQ(db.size(), 2u);
  const auto row = db.find("T1", "g++ -O2");
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->status, core::OutcomeStatus::Ok);
  EXPECT_TRUE(row->reason.empty());
  EXPECT_TRUE(row->bitwise_equal());
  // A save upgrades the file to the v2 header in place.
  db.record(study("T2", 1.0, 0.0L));
  std::ifstream in(path_);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "test\tcompilation\tspeedup\tvariability\tstatus\treason");
}

/// The error loading `path` raises, or "" when the database loads.
std::string load_error(const fs::path& path) {
  try {
    ResultsDb db(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST_F(ResultsDbTest, DuplicateKeyIsRejectedNamingBothLines) {
  // Two rows for one (test, compilation) key with conflicting values:
  // find() would answer from the first and the sharded resume's
  // merge_rows() from the last, so the file has no single meaning.
  {
    std::ofstream out(path_);
    out << "test\tcompilation\tspeedup\tvariability\tstatus\treason\n"
        << "T1\tg++ -O2\t1.5\t0\tok\t\n"
        << "T1\ticpc -O3\t2\t1e-12\tok\t\n"
        << "T1\tg++ -O2\t9\t0\tok\t\n"
        << "T2\tg++ -O2\t1\t0\tok\t\n";
  }
  const std::string err = load_error(path_);
  EXPECT_NE(err.find("duplicate row for (T1, g++ -O2) at lines 2 and 4"),
            std::string::npos)
      << err;

  // As the trailing row it is still an error: a crash mid-append leaves a
  // truncated row, never a well-formed second copy.
  {
    std::ofstream out(path_, std::ios::trunc);
    out << "test\tcompilation\tspeedup\tvariability\tstatus\treason\n"
        << "T1\tg++ -O2\t1.5\t0\tok\t\n"
        << "T1\tg++ -O2\t9\t0\tok\t\n";
  }
  EXPECT_NE(load_error(path_).find("at lines 2 and 3"), std::string::npos);
}

TEST_F(ResultsDbTest, SurplusFieldIsMalformedAndNamesTheLine) {
  // A row whose newline was lost: the next row would fold into `reason`,
  // TABs included, and a save would write those TABs as spaces.
  {
    std::ofstream out(path_);
    out << "test\tcompilation\tspeedup\tvariability\tstatus\treason\n"
        << "T1\tg++ -O2\t1.5\t0\tok\t\n"
        << "T1\ticpc -O3\t2\t1e-12\tok\tT1\tclang++ -O3\t1\t0\tok\t\n"
        << "T2\tg++ -O2\t1\t0\tok\t\n";
  }
  EXPECT_NE(load_error(path_).find("malformed row at line 3 of"),
            std::string::npos);

  // The pre-status v1 header is four fields wide, exactly.
  {
    std::ofstream out(path_, std::ios::trunc);
    out << "test\tcompilation\tspeedup\tvariability\n"
        << "T1\tg++ -O2\t1.5\t0\textra\n"
        << "T1\ticpc -O3\t2\t1e-12\n";
  }
  EXPECT_NE(load_error(path_).find("malformed row at line 2 of"),
            std::string::npos);
}

TEST_F(ResultsDbTest, SurplusFieldInTrailingRowIsDropped) {
  {
    ResultsDb db(path_);
    db.record(study("T1", 1.0, 0.0L));
  }
  {
    std::ofstream out(path_, std::ios::app);
    out << "T1\tclang++ -O3\t1.5\t0\tok\tfirst\tsecond\n";
  }
  ResultsDb db(path_);  // the malformed-trailing-row policy: must not throw
  EXPECT_EQ(db.size(), 2u);
  EXPECT_FALSE(db.find("T1", "clang++ -O3").has_value());
}

TEST_F(ResultsDbTest, SaveLeavesNoTemporaryBehind) {
  ResultsDb db(path_);
  db.record(study("T1", 1.0, 0.0L));
  EXPECT_TRUE(fs::exists(path_));
  EXPECT_FALSE(fs::exists(path_.string() + ".tmp"));
}

TEST_F(ResultsDbTest, CarriageReturnInReasonOrNulInNumberIsMalformed) {
  // A save writes a CR in a reason as a space, and a NUL inside a number
  // ends it early ("1\0.5" would load as 1): neither row round-trips.
  const std::string bad_rows[] = {
      "T1\tg++ -O2\t1.5\t0\tretried\trecovered\rfrom\n",
      std::string("T1\tg++ -O2\t1") + '\0' + ".5\t0\tok\t\n",
      std::string("T1\tg++ -O2\t1.5\t0") + '\0' + "1\tok\t\n",
  };
  for (const std::string& bad : bad_rows) {
    test::write_file(path_,
                     "test\tcompilation\tspeedup\tvariability\tstatus\t"
                     "reason\n" +
                         bad + "T2\tg++ -O2\t1\t0\tok\t\n");
    EXPECT_NE(load_error(path_).find("malformed row at line 2 of"),
              std::string::npos);
  }
}

TEST_F(ResultsDbTest, NumberFormsASaveNeverWritesAreMalformed) {
  // strtod and strtold skip leading whitespace and take a '+' and hex
  // floats, so these rows would load as 0.5, 1, 0.125 and 0.125; a save
  // writes none of those forms.
  const std::string header =
      "test\tcompilation\tspeedup\tvariability\tstatus\treason\n";
  const std::string good = "T2\tg++ -O2\t1\t0\tok\t\n";
  const std::string bad_rows[] = {
      "T1\tg++ -O2\t .5\t0\tok\t\n",
      "T1\tg++ -O2\t+1e0\t0\tok\t\n",
      "T1\tg++ -O2\t1\t 0x1p-3\tok\t\n",
      "T1\tg++ -O2\t0X1P-3\t0\tok\t\n",
  };
  for (const std::string& bad : bad_rows) {
    test::write_file(path_, header + bad + good);
    EXPECT_NE(load_error(path_).find("malformed row at line 2 of"),
              std::string::npos)
        << bad;

    // As the last row it is what a torn append leaves: dropped, with the
    // warning naming its line.
    test::write_file(path_, header + good + bad);
    ::testing::internal::CaptureStderr();
    const ResultsDb db(path_);
    const std::string warning = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(db.size(), 1u) << bad;
    EXPECT_NE(warning.find("dropping malformed trailing row at line 3 of"),
              std::string::npos)
        << bad;
  }

  // Every form a save writes still loads, and so do hand-written
  // decimals such as the v1 fixture's "1e-12".
  test::write_file(path_, header +
                              "T1\tg++ -O0\tinf\t-0\tok\t\n"
                              "T1\tg++ -O1\t-inf\tnan\tok\t\n"
                              "T1\tg++ -O2\t1.25\t1e-12\tok\t\n"
                              "T1\tg++ -O3\t-nan\t2.5e-300\tok\t\n");
  const ResultsDb db(path_);
  ASSERT_EQ(db.size(), 4u);
  EXPECT_TRUE(std::isinf(db.find("T1", "g++ -O1")->speedup));
  EXPECT_TRUE(std::isnan(db.find("T1", "g++ -O1")->variability));
  EXPECT_EQ(db.find("T1", "g++ -O2")->variability, 1e-12L);
}

TEST_F(ResultsDbTest, EveryRecordLeavesTheRenderedRows) {
  // Appends, in-place changes, merges, reopens, a v1 upgrade and a torn
  // tail: after every record() the file is the header plus rows() as a
  // rewrite writes them, and merge_rows() alone writes nothing.
  const auto expect_rendered = [&](const ResultsDb& db,
                                   const std::string& step) {
    EXPECT_EQ(test::file_text(path_), test::render(db.rows())) << step;
  };
  ResultsDb db(path_);
  db.record(study("T1", 1.25, 0.0L));
  expect_rendered(db, "create");
  db.record(study("T2", 1.5, 1e-12L));
  expect_rendered(db, "append");
  db.record(study("T3", 0.0, 0.0L));
  expect_rendered(db, "second append");
  db.record(study("T2", 1.5, 1e-12L));
  expect_rendered(db, "equal rows recorded again");

  StudyResult changed = study("T1", 1.25, 0.0L);
  changed.outcomes[1].status = core::OutcomeStatus::Retried;
  changed.outcomes[1].reason = "recovered from: injected fault";
  db.record(changed);
  expect_rendered(db, "a row on disk changed");
  db.record(study("T3", -0.0, 0.0L));  // equal to 0, but written "-0"
  EXPECT_TRUE(std::signbit(db.find("T3", "g++ -O2")->speedup));
  expect_rendered(db, "a zero changed sign");

  core::ResultRow fresh{"T4", "clang++ -O3", 3.0, 0.0L,
                        core::OutcomeStatus::Ok, ""};
  core::ResultRow equal = db.rows()[0];
  core::ResultRow moved = db.rows()[2];
  moved.speedup = 7.0;
  const std::string before = test::file_text(path_);
  db.merge_rows({fresh, equal, moved});
  EXPECT_EQ(test::file_text(path_), before) << "merge_rows wrote";
  db.record(study("T5", 1.0, 0.0L));
  expect_rendered(db, "record after merge_rows");

  {
    ResultsDb reopened(path_);
    reopened.record(study("T6", 1.0, 0.0L));
    expect_rendered(reopened, "reopen then record");
    reopened.record(study("T7", 1.0, 0.0L));
    expect_rendered(reopened, "append after reopen");
  }

  {
    test::write_file(path_,
                     "test\tcompilation\tspeedup\tvariability\n"
                     "T1\tg++ -O2\t1.5\t0\n");
    ResultsDb upgraded(path_);
    upgraded.record(study("T2", 1.0, 0.0L));
    expect_rendered(upgraded, "v1 upgrade");
  }

  {
    std::ofstream(path_, std::ios::app) << "T9\tg++ -O2\t1.5\t0\tok";
    ResultsDb healed(path_);
    EXPECT_FALSE(healed.find("T9", "g++ -O2").has_value());
    healed.record(study("T8", 1.0, 0.0L));
    expect_rendered(healed, "torn tail healed");
  }
  EXPECT_FALSE(fs::exists(path_.string() + ".tmp"));
}

TEST_F(ResultsDbTest, LastOfTwoInstancesOnOnePathWins) {
  {
    ResultsDb a(path_);
    a.record(study("T1", 1.0, 0.0L));
    ResultsDb b(path_);
    b.record(study("T2", 2.0, 0.0L));
    a.record(study("T3", 3.0, 0.0L));
    EXPECT_EQ(test::file_text(path_), test::render(a.rows()));
  }
  // Both open an empty path and write rows of one length: B's rewrite
  // leaves the length A left, in another file.
  fs::remove(path_);
  ResultsDb a(path_);
  ResultsDb b(path_);
  a.record(study("T1", 1.0, 0.0L));
  b.record(study("T2", 1.0, 0.0L));
  a.record(study("T3", 1.0, 0.0L));
  EXPECT_EQ(test::file_text(path_), test::render(a.rows()));
}

TEST_F(ResultsDbTest, RecordAppendsInPlaceUntilARowOnDiskChanges) {
  // A hard link keeps the file record() appends to, and is left behind
  // when a rewrite renames a new file into place.
  const fs::path link = path_.string() + ".link";
  fs::remove(link);
  ResultsDb db(path_);
  db.record(study("T1", 1.0, 0.0L));
  fs::create_hard_link(path_, link);
  db.record(study("T2", 1.0, 0.0L));
  EXPECT_EQ(test::file_text(link), test::file_text(path_)) << "rewrote";
  db.record(study("T1", 2.0, 0.0L));
  EXPECT_NE(test::file_text(link), test::file_text(path_)) << "appended";
  EXPECT_EQ(test::file_text(path_), test::render(db.rows()));
  fs::remove(link);
}

}  // namespace
