// Unit tests for src/trace: catalog, trace container, CSV round-tripping.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "test_support.hpp"
#include "trace/csv_io.hpp"
#include "trace/trace.hpp"

namespace vodcache::trace {
namespace {

using test::make_trace;
using test::uniform_catalog;

// ----------------------------------------------------------------- Catalog

TEST(Catalog, SizeAndLookup) {
  const auto catalog = uniform_catalog(5, 45);
  EXPECT_EQ(catalog.size(), 5u);
  EXPECT_EQ(catalog.length(ProgramId{2}), sim::SimTime::minutes(45));
  EXPECT_EQ(catalog.introduced(ProgramId{2}), sim::SimTime{});
}

TEST(Catalog, ProgramSizeAtStreamRate) {
  const auto catalog = uniform_catalog(1, 100);  // the paper's 100-min flagship
  const auto size = catalog.program_size(ProgramId{0},
                                         DataRate::megabits_per_second(8.06));
  EXPECT_NEAR(size.as_gigabytes(), 8.06e6 * 6000 / 8 / 1e9, 1e-6);
}

TEST(Catalog, TotalSizeSumsPrograms) {
  const auto catalog = uniform_catalog(10, 30);
  const auto rate = DataRate::megabits_per_second(8.0);
  EXPECT_EQ(catalog.total_size(rate).bit_count(),
            catalog.program_size(ProgramId{0}, rate).bit_count() * 10);
}

// ------------------------------------------------------------------- Trace

TEST(Trace, SortsSessionsOnConstruction) {
  const auto trace = make_trace(uniform_catalog(2),
                                {{300, 0, 0, 60}, {100, 1, 1, 60}, {200, 0, 1, 60}},
                                /*user_count=*/2);
  EXPECT_TRUE(std::is_sorted(
      trace.sessions().begin(), trace.sessions().end(),
      [](const SessionRecord& a, const SessionRecord& b) {
        return a.start < b.start;
      }));
  EXPECT_EQ(trace.sessions()[0].start, sim::SimTime::seconds(100));
  EXPECT_EQ(trace.sessions()[2].start, sim::SimTime::seconds(300));
}

TEST(Trace, SortIsStableForEqualTimes) {
  const auto trace = make_trace(uniform_catalog(3),
                                {{100, 0, 0, 60}, {100, 1, 1, 60}, {100, 2, 2, 60}},
                                /*user_count=*/3);
  EXPECT_EQ(trace.sessions()[0].program, ProgramId{0});
  EXPECT_EQ(trace.sessions()[1].program, ProgramId{1});
  EXPECT_EQ(trace.sessions()[2].program, ProgramId{2});
}

TEST(Trace, TotalDemand) {
  const auto trace = make_trace(uniform_catalog(1),
                                {{0, 0, 0, 100}, {500, 0, 0, 200}},
                                /*user_count=*/1);
  const auto demand = test::total_demand(trace, DataRate::megabits_per_second(8.0));
  EXPECT_EQ(demand.bit_count(), static_cast<std::int64_t>(8e6 * 300));
}

TEST(Trace, ValidatePassesForWellFormed) {
  const auto trace =
      make_trace(uniform_catalog(2), {{10, 0, 1, 30}}, /*user_count=*/1);
  trace.validate();  // aborts on violation
  SUCCEED();
}

TEST(Trace, GeneratedTraceValidates) {
  const auto trace = generate_power_info_like(test::small_workload());
  trace.validate();
  EXPECT_GT(trace.session_count(), 1000u);
}

// ------------------------------------------------------------------ CSV IO

TEST(CsvIo, RoundTripsHandMadeTrace) {
  const auto original = make_trace(
      uniform_catalog(3, 25),
      {{100, 0, 0, 60}, {150, 1, 2, 90}, {200, 0, 1, 120}}, /*user_count=*/2);
  std::stringstream buffer;
  write_csv(original, buffer);
  const auto loaded = read_csv(buffer);

  EXPECT_EQ(loaded.user_count(), original.user_count());
  EXPECT_EQ(loaded.horizon(), original.horizon());
  ASSERT_EQ(loaded.catalog().size(), original.catalog().size());
  ASSERT_EQ(loaded.session_count(), original.session_count());
  for (std::size_t i = 0; i < original.session_count(); ++i) {
    EXPECT_EQ(loaded.sessions()[i].start, original.sessions()[i].start);
    EXPECT_EQ(loaded.sessions()[i].user, original.sessions()[i].user);
    EXPECT_EQ(loaded.sessions()[i].program, original.sessions()[i].program);
    EXPECT_EQ(loaded.sessions()[i].duration, original.sessions()[i].duration);
  }
}

TEST(CsvIo, RoundTripsGeneratedTrace) {
  const auto original = generate_power_info_like(test::small_workload(2));
  std::stringstream buffer;
  write_csv(original, buffer);
  const auto loaded = read_csv(buffer);
  EXPECT_EQ(loaded.session_count(), original.session_count());
  EXPECT_EQ(loaded.catalog().size(), original.catalog().size());
  // Base weights survive with enough precision to regenerate rankings.
  for (std::size_t p = 0; p < loaded.catalog().size(); ++p) {
    EXPECT_NEAR(loaded.catalog().programs()[p].base_weight,
                original.catalog().programs()[p].base_weight, 1e-6);
  }
}

TEST(CsvIo, RejectsMissingMeta) {
  std::stringstream buffer("program,0,60000,0,1.0\n");
  EXPECT_THROW((void)read_csv(buffer), std::runtime_error);
}

TEST(CsvIo, RejectsNonContiguousProgramIds) {
  std::stringstream buffer(
      "meta,1,86400000\n"
      "program,1,60000,0,1.0\n");
  EXPECT_THROW((void)read_csv(buffer), std::runtime_error);
}

TEST(CsvIo, RejectsUnknownProgramReference) {
  std::stringstream buffer(
      "meta,1,86400000\n"
      "program,0,600000,0,1.0\n"
      "session,1000,0,5,1000\n");
  EXPECT_THROW((void)read_csv(buffer), std::runtime_error);
}

TEST(CsvIo, RejectsMalformedNumbers) {
  std::stringstream buffer("meta,abc,86400000\n");
  EXPECT_THROW((void)read_csv(buffer), std::runtime_error);
}

TEST(CsvIo, RejectsSessionBeforeAnyProgram) {
  // Programs-before-sessions: a session line may only reference programs
  // already declared, so one arriving first must throw, not index into an
  // empty catalog.
  std::stringstream buffer(
      "meta,1,86400000\n"
      "session,1000,0,0,1000\n"
      "program,0,600000,0,1.0\n");
  EXPECT_THROW((void)read_csv(buffer), std::runtime_error);
}

TEST(CsvIo, RejectsWrongFieldCounts) {
  for (const char* line : {"meta,1\n", "program,0,600000\n", "session,1000,0\n",
                           "session,1000,0,0,1000,9\n"}) {
    std::stringstream buffer(std::string("meta,1,86400000\n") +
                             "program,0,600000,0,1.0\n" + line);
    EXPECT_THROW((void)read_csv(buffer), std::runtime_error) << line;
  }
}

TEST(CsvIo, RejectsUnknownRecordKind) {
  std::stringstream buffer(
      "meta,1,86400000\n"
      "bogus,1,2\n");
  EXPECT_THROW((void)read_csv(buffer), std::runtime_error);
}

TEST(CsvIo, SemanticViolationsThrowRatherThanAbort) {
  // Untrusted input files must produce exceptions, not contract aborts.
  const struct {
    const char* label;
    const char* session;
  } cases[] = {
      {"duration exceeds length", "session,1000,0,0,999999999\n"},
      {"non-positive duration", "session,1000,0,0,0\n"},
      {"user out of range", "session,1000,5,0,60000\n"},
      {"negative start", "session,-5,0,0,60000\n"},
      {"past horizon", "session,99999999999,0,0,60000\n"},
  };
  for (const auto& c : cases) {
    std::stringstream buffer(std::string("meta,1,86400000\n"
                                         "program,0,600000,0,1.0\n") +
                             c.session);
    EXPECT_THROW((void)read_csv(buffer), std::runtime_error) << c.label;
  }
  // Header fields feed preconditions downstream (topology, rate meter,
  // catalog, popularity board), so each is range-checked at its line.
  const struct {
    const char* label;
    const char* file;
    const char* line;
  } header_cases[] = {
      {"zero users", "meta,0,86400000\nprogram,0,600000,0,1\n", "line 1"},
      {"zero horizon", "meta,1,0\nprogram,0,600000,0,1\n", "line 1"},
      {"zero length", "meta,1,86400000\nprogram,0,0,0,1\n", "line 2"},
      {"negative length", "meta,1,86400000\nprogram,0,-1,0,1\n", "line 2"},
      {"nan base weight", "meta,1,86400000\nprogram,0,600000,0,nan\n",
       "line 2"},
      {"negative base weight", "meta,1,86400000\nprogram,0,600000,0,-1\n",
       "line 2"},
      {"infinite fresh weight",
       "meta,1,86400000\nprogram,0,600000,0,1,inf\n", "line 2"},
      {"no program records", "# header only\nmeta,1,86400000\n", "line 2"},
  };
  for (const auto& c : header_cases) {
    std::stringstream buffer(c.file);
    try {
      (void)read_csv(buffer);
      ADD_FAILURE() << "expected rejection: " << c.label;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(c.line), std::string::npos)
          << c.label << ": " << error.what();
    }
  }
}

TEST(CsvIo, PreReleaseSessionThrows) {
  std::stringstream buffer(
      "meta,1,86400000\n"
      "program,0,600000,50000000,1.0\n"  // introduced at t=50,000s
      "session,1000,0,0,60000\n");       // session at t=1,000s
  EXPECT_THROW((void)read_csv(buffer), std::runtime_error);
}

TEST(Trace, ValidationErrorDescribesProblem) {
  const auto trace = make_trace(uniform_catalog(1), {{10, 0, 0, 30}}, 1);
  EXPECT_EQ(trace.validation_error(), std::nullopt);
}

TEST(Trace, SessionErrorNamesTheFirstBrokenRule) {
  // Two 10-minute programs; program 1 is introduced at 1 hour.  Horizon is
  // one day, four users.
  std::vector<ProgramInfo> programs(2);
  for (auto& program : programs) program.length = sim::SimTime::minutes(10);
  programs[1].introduced = sim::SimTime::hours(1);
  const auto horizon = sim::SimTime::days(1);
  const auto check = [&](SessionRecord record) {
    return session_error(record, programs, 4, horizon);
  };
  const SessionRecord valid{sim::SimTime::hours(2), UserId{3}, ProgramId{1},
                            sim::SimTime::minutes(10)};
  EXPECT_EQ(check(valid), nullptr);

  const struct {
    const char* rule;
    SessionRecord record;
  } cases[] = {
      {"user id out of range",
       {valid.start, UserId{4}, valid.program, valid.duration}},
      {"session references unknown program",
       {valid.start, valid.user, ProgramId{2}, valid.duration}},
      {"non-positive duration",
       {valid.start, valid.user, valid.program, sim::SimTime{}}},
      {"duration exceeds program length",
       {valid.start, valid.user, valid.program, sim::SimTime::minutes(11)}},
      {"negative start time",
       {sim::SimTime::millis(-1), valid.user, ProgramId{0}, valid.duration}},
      {"session starts past horizon",
       {horizon, valid.user, valid.program, valid.duration}},
      {"session precedes program introduction",
       {sim::SimTime::minutes(59), valid.user, valid.program,
        valid.duration}},
      // Two broken rules: the earlier one in the list above is named.
      {"user id out of range",
       {sim::SimTime::millis(-1), UserId{9}, ProgramId{5}, sim::SimTime{}}},
  };
  for (const auto& c : cases) {
    const char* error = check(c.record);
    ASSERT_NE(error, nullptr) << c.rule;
    EXPECT_STREQ(error, c.rule);
  }
}

TEST(CsvIo, RejectsCrlfLineEndings) {
  // A trace saved with Windows line endings would otherwise fail as a
  // confusing "malformed number" on the last field of every line; the
  // loader names the real problem.  Applies to the materialized loader
  // too, not just the streaming source.
  std::stringstream buffer("meta,1,86400000\r\n");
  try {
    (void)read_csv(buffer);
    FAIL() << "expected CRLF rejection";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("CRLF"), std::string::npos)
        << error.what();
  }
}

TEST(CsvIo, RejectsDuplicateMeta) {
  std::stringstream buffer(
      "meta,1,86400000\n"
      "meta,2,86400000\n");
  EXPECT_THROW((void)read_csv(buffer), std::runtime_error);
}

TEST(CsvIo, SkipsCommentsAndBlankLines) {
  std::stringstream buffer(
      "# a comment\n"
      "\n"
      "meta,1,86400000\n"
      "# another\n"
      "program,0,600000,0,1.0\n");
  const auto trace = read_csv(buffer);
  EXPECT_EQ(trace.catalog().size(), 1u);
  EXPECT_EQ(trace.session_count(), 0u);
}

}  // namespace
}  // namespace vodcache::trace
