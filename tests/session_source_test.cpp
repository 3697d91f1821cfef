// The streaming pipeline's ground-truth contract: every SessionSource
// yields byte-for-byte the session sequence of its materialized twin, and
// the simulation report is identical whether the workload is streamed or
// materialized, at any thread count and any demux chunk size.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/report_json.hpp"
#include "core/vod_system.hpp"
#include "hfc/topology.hpp"
#include "test_support.hpp"
#include "trace/csv_io.hpp"
#include "trace/generator.hpp"
#include "trace/scaler.hpp"
#include "trace/session_source.hpp"

namespace vodcache::trace {
namespace {

using test::scale_catalog;
using test::scale_population;

std::vector<SessionRecord> drain(const SessionSource& source) {
  std::vector<SessionRecord> sessions;
  auto stream = source.open();
  SessionRecord record;
  while (stream->next(record)) sessions.push_back(record);
  return sessions;
}

void expect_same_sessions(const std::vector<SessionRecord>& streamed,
                          const std::vector<SessionRecord>& materialized) {
  ASSERT_EQ(streamed.size(), materialized.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].start, materialized[i].start) << "session " << i;
    EXPECT_EQ(streamed[i].user, materialized[i].user) << "session " << i;
    EXPECT_EQ(streamed[i].program, materialized[i].program) << "session " << i;
    EXPECT_EQ(streamed[i].duration, materialized[i].duration)
        << "session " << i;
    if (streamed[i].start != materialized[i].start) break;  // avoid spam
  }
}

// ------------------------------------------------------- generator source

TEST(GeneratorSource, StreamMatchesMaterializedTrace) {
  // Several seeds and shapes: the stream must perform the identical RNG
  // draws, so every sequence matches byte for byte.
  for (const auto& [days, seed] : std::vector<std::pair<int, std::uint64_t>>{
           {2, 1234}, {4, 99}, {3, 20070625}}) {
    const auto config = test::small_workload(days, seed);
    SCOPED_TRACE(test::repro_line(config));
    const GeneratorSource source(config);
    const auto trace = generate_power_info_like(config);
    expect_same_sessions(drain(source), trace.sessions());
    EXPECT_EQ(source.user_count(), trace.user_count());
    EXPECT_EQ(source.horizon(), trace.horizon());
    EXPECT_EQ(source.catalog().size(), trace.catalog().size());
  }
}

TEST(GeneratorSource, CatalogMatchesMaterializedCatalog) {
  const auto config = test::small_workload(2, 7);
  SCOPED_TRACE(test::repro_line(config));
  const GeneratorSource source(config);
  const auto trace = generate_power_info_like(config);
  const auto& a = source.catalog().programs();
  const auto& b = trace.catalog().programs();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].length, b[i].length);
    EXPECT_EQ(a[i].introduced, b[i].introduced);
    EXPECT_EQ(a[i].base_weight, b[i].base_weight);
    EXPECT_EQ(a[i].fresh_weight, b[i].fresh_weight);
  }
}

TEST(GeneratorSource, RepeatedOpensReplayIdentically) {
  const auto config = test::small_workload(2, 42);
  SCOPED_TRACE(test::repro_line(config));
  const GeneratorSource source(config);
  const auto first = drain(source);
  EXPECT_FALSE(first.empty());
  expect_same_sessions(drain(source), first);
}

TEST(GeneratorSource, PerNeighborhoodSubsequencesMatch) {
  // What the sharded demux actually consumes: each neighborhood's
  // subsequence of the stream equals its slice of the materialized trace.
  const auto config = test::small_workload(3, 777);
  SCOPED_TRACE(test::repro_line(config));
  const GeneratorSource source(config);
  const auto trace = generate_power_info_like(config);
  const auto topology = hfc::Topology::build(config.user_count, 50);

  std::vector<std::vector<SessionRecord>> streamed(
      topology.neighborhood_count());
  for (const auto& record : drain(source)) {
    streamed[topology.neighborhood_of(record.user).value()].push_back(record);
  }
  std::vector<std::vector<SessionRecord>> materialized(
      topology.neighborhood_count());
  for (const auto& record : trace.sessions()) {
    materialized[topology.neighborhood_of(record.user).value()].push_back(
        record);
  }
  for (std::uint32_t n = 0; n < topology.neighborhood_count(); ++n) {
    SCOPED_TRACE("neighborhood " + std::to_string(n));
    expect_same_sessions(streamed[n], materialized[n]);
    EXPECT_FALSE(streamed[n].empty());
  }
}

// ----------------------------------------------------- trace as a source

TEST(Trace, StreamsItsSessionsAndFacts) {
  const auto trace = generate_power_info_like(test::small_workload(2));
  const SessionSource& source = trace;
  expect_same_sessions(drain(source), trace.sessions());
  EXPECT_EQ(source.session_count_hint(), trace.session_count());
  EXPECT_EQ(source.user_count(), trace.user_count());
  EXPECT_EQ(source.horizon(), trace.horizon());
  EXPECT_EQ(&source.catalog(), &trace.catalog());
  const auto copy = materialize(source);
  expect_same_sessions(copy.sessions(), trace.sessions());
  // A copy is a source of its own, equal to the original.
  expect_same_sessions(drain(copy), trace.sessions());
}

// ------------------------------------------------------- scaling adaptors

TEST(PopulationScaledSource, StreamMatchesMaterializedScaler) {
  const auto workload = test::small_workload(2, 5);
  const auto trace = generate_power_info_like(workload);
  const SessionSource& base = trace;
  for (const std::uint32_t factor : {2U, 4U, 7U}) {
    SCOPED_TRACE(test::repro_line(workload) +
                 " scale_pop=" + std::to_string(factor));
    const PopulationScaledSource scaled(base, factor);
    const auto twin = scale_population(trace, factor);
    EXPECT_EQ(scaled.user_count(), twin.user_count());
    expect_same_sessions(drain(scaled), twin.sessions());
  }
}

TEST(PopulationScaledSource, FactorOnePassesThrough) {
  const auto workload = test::small_workload(2, 5);
  SCOPED_TRACE(test::repro_line(workload) + " scale_pop=1");
  const auto trace = generate_power_info_like(workload);
  const SessionSource& base = trace;
  const PopulationScaledSource scaled(base, 1);
  expect_same_sessions(drain(scaled), trace.sessions());
}

// The satellite audit: jitter clamping at the horizon edge.  Copies k>0 of
// sessions within 60 s of the horizon jitter past it and must be pinned to
// horizon - 1 ms without ever reordering across the boundary — several
// clamped copies pile onto the same timestamp, where only the stable
// (generation-order) tie-break keeps the streamed order equal to the
// materialized trace's stable sort.
TEST(PopulationScaledSource, HorizonEdgeJitterClampDoesNotReorder) {
  const auto horizon_s = 86'400;  // 1 day
  // Sessions crowding the horizon: every jittered copy of the last few
  // must clamp; earlier ones clamp only for large draws.
  const auto trace = test::make_trace(
      test::uniform_catalog(2, 30),
      {{0, 0, 0, 300},
       {horizon_s - 90, 1, 0, 600},
       {horizon_s - 61, 2, 1, 600},
       {horizon_s - 45, 0, 1, 300},
       {horizon_s - 10, 3, 0, 120},
       {horizon_s - 2, 1, 1, 60},
       {horizon_s - 1, 2, 0, 60}},
      /*user_count=*/4);
  const SessionSource& base = trace;
  for (const std::uint32_t factor : {2U, 8U, 16U}) {
    SCOPED_TRACE("factor " + std::to_string(factor));
    const PopulationScaledSource scaled(base, factor);
    const auto streamed = drain(scaled);
    const auto twin = scale_population(trace, factor);
    expect_same_sessions(streamed, twin.sessions());
    // Ordering invariants in their own right (not just equality with the
    // materialized sort): sorted output, nothing at or past the horizon.
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      EXPECT_LT(streamed[i].start, trace.horizon());
      if (i > 0) {
        EXPECT_GE(streamed[i].start, streamed[i - 1].start);
      }
    }
    // And the materialized twin must still validate (clamped copies stay
    // inside the horizon and after program introduction).
    twin.validate();
  }
}

TEST(CatalogScaledSource, StreamMatchesMaterializedScaler) {
  const auto workload = test::small_workload(2, 5);
  const auto trace = generate_power_info_like(workload);
  const SessionSource& base = trace;
  for (const std::uint32_t factor : {2U, 5U}) {
    SCOPED_TRACE(test::repro_line(workload) +
                 " scale_cat=" + std::to_string(factor));
    const CatalogScaledSource scaled(base, factor);
    EXPECT_EQ(scaled.catalog().size(), trace.catalog().size() * factor);
    const auto twin = scale_catalog(trace, factor);
    expect_same_sessions(drain(scaled), twin.sessions());
  }
}

TEST(ScaledSources, ComposeLikeMaterializedTransforms) {
  // The figure-15 sweep shape: population then catalog, stacked adaptors.
  const auto workload = test::small_workload(2, 31);
  SCOPED_TRACE(test::repro_line(workload) + " scale_pop=3 scale_cat=2");
  const auto trace = generate_power_info_like(workload);
  const SessionSource& base = trace;
  const PopulationScaledSource pop(base, 3);
  const CatalogScaledSource both(pop, 2);
  const auto twin = scale_catalog(scale_population(trace, 3), 2);
  EXPECT_EQ(both.user_count(), twin.user_count());
  EXPECT_EQ(both.catalog().size(), twin.catalog().size());
  expect_same_sessions(drain(both), twin.sessions());
}

// ------------------------------------------------------------ CSV source

class CsvSourceTest : public ::testing::Test {
 protected:
  std::string write_temp(const std::string& contents) {
    // Named by the test, not by an address: ctest runs each test in its
    // own process, and without address randomization (sanitizer builds)
    // two processes can see the same fixture address.
    const std::string path =
        testing::TempDir() + "vodcache_csv_source_" +
        testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
        std::to_string(counter_++) + ".csv";
    std::ofstream out(path);
    out << contents;
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const auto& path : paths_) std::remove(path.c_str());
  }

  std::vector<std::string> paths_;
  int counter_ = 0;
};

TEST_F(CsvSourceTest, StreamsWhatReadCsvMaterializes) {
  const auto trace = generate_power_info_like(test::small_workload(2, 17));
  const std::string path = write_temp("");
  write_csv_file(trace, path);

  const CsvSource source(path);
  EXPECT_EQ(source.user_count(), trace.user_count());
  EXPECT_EQ(source.horizon(), trace.horizon());
  EXPECT_EQ(source.catalog().size(), trace.catalog().size());
  EXPECT_EQ(source.session_count_hint(), trace.session_count());
  expect_same_sessions(drain(source), trace.sessions());

  const auto loaded = read_csv_file(path);
  expect_same_sessions(drain(source), loaded.sessions());
}

TEST_F(CsvSourceTest, StreamingWriterMatchesMaterializedWriter) {
  const auto trace = generate_power_info_like(test::small_workload(2, 23));
  const std::string via_trace = write_temp("");
  write_csv_file(trace, via_trace);
  const std::string via_source = write_temp("");
  const GeneratorSource source(test::small_workload(2, 23));
  const auto count = write_csv_file(source, via_source);
  EXPECT_EQ(count, trace.session_count());

  std::ifstream a(via_trace), b(via_source);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST_F(CsvSourceTest, RejectsUnsortedSessions) {
  const std::string path = write_temp(
      "meta,4,86400000\n"
      "program,0,1800000,0,1\n"
      "session,5000,0,0,1000\n"
      "session,1000,1,0,1000\n");
  EXPECT_THROW(CsvSource{path}, std::runtime_error);
  // The materialized loader repairs order instead.
  EXPECT_EQ(read_csv_file(path).session_count(), 2u);
}

TEST_F(CsvSourceTest, RejectsSessionBeforeMeta) {
  const std::string path = write_temp(
      "program,0,1800000,0,1\n"
      "session,1000,0,0,1000\n"
      "meta,4,86400000\n");
  EXPECT_THROW(CsvSource{path}, std::runtime_error);
}

TEST_F(CsvSourceTest, RejectsOutOfRangeSessions) {
  // Same semantic checks Trace::validation_error applies, in stream order.
  EXPECT_THROW(CsvSource{write_temp("meta,4,86400000\n"
                                    "program,0,1800000,0,1\n"
                                    "session,1000,9,0,1000\n")},
               std::runtime_error);  // user out of range
  EXPECT_THROW(CsvSource{write_temp("meta,4,86400000\n"
                                    "program,0,1800000,0,1\n"
                                    "session,1000,0,0,7200000\n")},
               std::runtime_error);  // duration exceeds program length
  EXPECT_THROW(CsvSource{write_temp("meta,4,86400000\n"
                                    "program,0,1800000,0,1\n"
                                    "session,99999999999,0,0,1000\n")},
               std::runtime_error);  // starts past horizon
}

// Constructs a CsvSource and checks the error message carries both the
// line number and a recognizable explanation — "line 3: malformed number"
// beats a bare exception when the trace is 20 GB of converted PowerInfo.
void expect_csv_error(const std::string& path,
                      const std::vector<std::string>& fragments) {
  try {
    const CsvSource source(path);
    FAIL() << "expected CsvSource to reject " << path;
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    for (const auto& fragment : fragments) {
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "message '" << what << "' lacks '" << fragment << "'";
    }
  }
}

TEST_F(CsvSourceTest, RejectsEverySessionRuleByLine) {
  // The rules RejectsOutOfRangeSessions leaves out.  Program 1 is
  // introduced at 10 s.
  const std::string header =
      "meta,4,86400000\n"
      "program,0,1800000,0,1\n"
      "program,1,1800000,10000,1\n";
  expect_csv_error(write_temp(header + "session,-5,0,0,1000\n"),
                   {"line 4", "negative start time"});
  expect_csv_error(write_temp(header + "session,1000,0,0,0\n"),
                   {"line 4", "non-positive duration"});
  expect_csv_error(write_temp(header + "session,1000,0,1,1000\n"),
                   {"line 4", "session precedes program introduction"});
  expect_csv_error(write_temp(header + "session,1000,0,7,1000\n"),
                   {"line 4", "session references unknown program"});
}

TEST_F(CsvSourceTest, TruncatedFinalLineSaysWhichLineAndWhy) {
  // A copy cut off mid-record (no trailing newline): too few fields.
  expect_csv_error(write_temp("meta,4,86400000\n"
                              "program,0,1800000,0,1\n"
                              "session,1000,0,0,1000\n"
                              "session,5000,0"),
                   {"line 4", "session needs 4 fields"});
  // Cut off mid-number: the right field count, an empty last field.
  expect_csv_error(write_temp("meta,4,86400000\n"
                              "program,0,1800000,0,1\n"
                              "session,5000,0,0,"),
                   {"line 3", "malformed number"});
}

TEST_F(CsvSourceTest, CrlfLineEndingsRejectedWithClearMessage) {
  expect_csv_error(write_temp("meta,4,86400000\r\n"
                              "program,0,1800000,0,1\r\n"
                              "session,1000,0,0,1000\r\n"),
                   {"line 1", "CRLF", "LF"});
}

TEST_F(CsvSourceTest, DuplicateIdsRejected) {
  // A duplicated program id breaks the contiguous-ids contract...
  expect_csv_error(write_temp("meta,4,86400000\n"
                              "program,0,1800000,0,1\n"
                              "program,0,1800000,0,1\n"),
                   {"line 3", "contiguous"});
  // ...and a second meta line is a merge artifact, not a bigger trace.
  expect_csv_error(write_temp("meta,4,86400000\n"
                              "meta,4,86400000\n"),
                   {"line 2", "duplicate meta"});
}

TEST_F(CsvSourceTest, HeaderFieldsRangeChecked) {
  // Each of these once reached a downstream precondition and aborted.
  expect_csv_error(write_temp("meta,0,86400000\n"
                              "program,0,1800000,0,1\n"),
                   {"line 1", "user count"});
  expect_csv_error(write_temp("meta,4,0\n"
                              "program,0,1800000,0,1\n"),
                   {"line 1", "horizon"});
  expect_csv_error(write_temp("meta,4,86400000\n"
                              "program,0,1800000,0,1\n"
                              "program,1,0,0,1\n"),
                   {"line 3", "length"});
  expect_csv_error(write_temp("meta,4,86400000\n"
                              "program,0,-5,0,1\n"),
                   {"line 2", "length"});
  expect_csv_error(write_temp("meta,4,86400000\n"
                              "program,0,1800000,0,nan\n"),
                   {"line 2", "weights"});
  expect_csv_error(write_temp("meta,4,86400000\n"
                              "program,0,1800000,0,-0.5\n"),
                   {"line 2", "weights"});
  expect_csv_error(write_temp("meta,4,86400000\n"
                              "program,0,1800000,0,1,-inf\n"),
                   {"line 2", "weights"});
  expect_csv_error(write_temp("meta,4,86400000\n"),
                   {"line 1", "no program records"});
}

TEST_F(CsvSourceTest, SortBoundaryIsHalfOpen) {
  // Equal start times are sorted — the stable tie order is the file
  // order, exactly what a stable sort would have produced.
  const std::string path = write_temp(
      "meta,4,86400000\n"
      "program,0,1800000,0,1\n"
      "session,5000,0,0,1000\n"
      "session,5000,1,0,2000\n");
  const CsvSource source(path);
  const auto sessions = drain(source);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].user, UserId{0});
  EXPECT_EQ(sessions[1].user, UserId{1});

  // One millisecond of regression is out of order.
  expect_csv_error(write_temp("meta,4,86400000\n"
                              "program,0,1800000,0,1\n"
                              "session,5000,0,0,1000\n"
                              "session,4999,1,0,2000\n"),
                   {"line 4", "not sorted", "cannot re-sort"});
}

TEST_F(CsvSourceTest, MidStreamReValidationCatchesChangedFile) {
  // The constructor validated a sorted file; the file then changes under
  // the source.  The replay stream re-checks the cheap invariants and
  // must throw, not feed the simulator unsorted sessions.
  const std::string path = write_temp(
      "meta,4,86400000\n"
      "program,0,1800000,0,1\n"
      "session,1000,0,0,1000\n"
      "session,5000,1,0,1000\n");
  const CsvSource source(path);
  {
    std::ofstream rewrite(path);
    rewrite << "meta,4,86400000\n"
               "program,0,1800000,0,1\n"
               "session,5000,0,0,1000\n"
               "session,1000,1,0,1000\n";
  }
  auto stream = source.open();
  SessionRecord record;
  EXPECT_TRUE(stream->next(record));
  try {
    (void)stream->next(record);
    FAIL() << "expected the re-validation to reject the rewritten file";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("file changed"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(CsvSourceTest, MidStreamReValidationAppliesEverySessionRule) {
  // A rewrite that keeps the order but breaks a session rule (user 9 of 4)
  // must also fail as a named error, not as a precondition abort in the
  // demux.
  const std::string path = write_temp(
      "meta,4,86400000\n"
      "program,0,1800000,0,1\n"
      "session,1000,0,0,1000\n"
      "session,5000,1,0,1000\n");
  const CsvSource source(path);
  {
    std::ofstream rewrite(path);
    rewrite << "meta,4,86400000\n"
               "program,0,1800000,0,1\n"
               "session,1000,0,0,1000\n"
               "session,5000,9,0,1000\n";
  }
  auto stream = source.open();
  SessionRecord record;
  EXPECT_TRUE(stream->next(record));
  try {
    (void)stream->next(record);
    FAIL() << "expected the re-validation to reject the rewritten file";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("user id out of range"), std::string::npos) << what;
    EXPECT_NE(what.find("file changed"), std::string::npos) << what;
  }
}

// ------------------------------------------- streamed simulation identity

core::SystemConfig small_system(core::StrategyKind kind) {
  core::SystemConfig config;
  config.neighborhood_size = 40;
  config.per_peer_storage = DataSize::megabytes(400);
  config.strategy.kind = kind;
  config.strategy.lfu_history = sim::SimTime::hours(24);
  config.warmup = sim::SimTime::days(1);
  return config;
}

const GeneratorConfig& identity_workload() {
  static const GeneratorConfig config = [] {
    auto workload = test::small_workload(3, 4242);
    workload.user_count = 300;
    workload.program_count = 80;
    workload.sessions_per_user_per_day = 6.0;
    return workload;
  }();
  return config;
}

std::string run_streamed(const SessionSource& source,
                         core::SystemConfig config) {
  core::VodSystem system(source, config);
  return core::to_json(system.run(), /*include_neighborhoods=*/true);
}

TEST(StreamedSimulation, ReportMatchesMaterializedAcrossStrategies) {
  const GeneratorSource source(identity_workload());
  const auto trace = generate_power_info_like(identity_workload());
  for (const auto kind :
       {core::StrategyKind::None, core::StrategyKind::Lru,
        core::StrategyKind::Lfu, core::StrategyKind::Oracle,
        core::StrategyKind::GlobalLfu}) {
    const auto config = small_system(kind);
    SCOPED_TRACE(test::repro_line(identity_workload(), config));
    core::VodSystem materialized(trace, config);
    const auto expected =
        core::to_json(materialized.run(), /*include_neighborhoods=*/true);
    EXPECT_EQ(run_streamed(source, config), expected);
  }
}

TEST(StreamedSimulation, ReportInvariantToThreadsAndChunkSize) {
  const GeneratorSource source(identity_workload());
  auto config = small_system(core::StrategyKind::GlobalLfu);
  config.strategy.global_lag = sim::SimTime::minutes(30);
  const auto reference = run_streamed(source, config);

  for (const std::uint32_t threads : {2U, 8U}) {
    auto variant = config;
    variant.threads = threads;
    EXPECT_EQ(run_streamed(source, variant), reference)
        << test::repro_line(identity_workload(), variant);
  }
  // Chunk edges land mid-hour, mid-day, and beyond the horizon; none of
  // them may show in the bytes.
  for (const auto chunk :
       {sim::SimTime::minutes(7), sim::SimTime::hours(5),
        sim::SimTime::days(400)}) {
    auto variant = config;
    variant.stream_chunk = chunk;
    variant.threads = 4;
    EXPECT_EQ(run_streamed(source, variant), reference)
        << test::repro_line(identity_workload(), variant);
  }
}

TEST(StreamedSimulation, FailureWavesMatchMaterialized) {
  const GeneratorSource source(identity_workload());
  const auto trace = generate_power_info_like(identity_workload());
  auto config = small_system(core::StrategyKind::Lfu);
  config.peer_failures.push_back({sim::SimTime::hours(20), 0.4, 11});
  config.peer_failures.push_back({sim::SimTime::hours(50), 0.3, 12});

  core::VodSystem materialized(trace, config);
  const auto expected =
      core::to_json(materialized.run(), /*include_neighborhoods=*/true);
  EXPECT_EQ(run_streamed(source, config), expected)
      << test::repro_line(identity_workload(), config);
  auto threaded = config;
  threaded.threads = 8;
  threaded.stream_chunk = sim::SimTime::minutes(45);
  EXPECT_EQ(run_streamed(source, threaded), expected)
      << test::repro_line(identity_workload(), threaded);
}

// Forwards to another source and counts how many streams it opens.
class CountingSource final : public SessionSource {
 public:
  explicit CountingSource(const SessionSource& inner) : inner_(&inner) {}

  [[nodiscard]] const Catalog& catalog() const override {
    return inner_->catalog();
  }
  [[nodiscard]] std::uint32_t user_count() const override {
    return inner_->user_count();
  }
  [[nodiscard]] sim::SimTime horizon() const override {
    return inner_->horizon();
  }
  [[nodiscard]] std::unique_ptr<SessionStream> open() const override {
    ++opens_;
    return inner_->open();
  }
  [[nodiscard]] std::uint64_t session_count_hint() const override {
    return inner_->session_count_hint();
  }
  [[nodiscard]] int opens() const { return opens_; }

 private:
  const SessionSource* inner_;
  mutable std::atomic<int> opens_{0};
};

// The demux builds the failure flush time on its own pass; only
// whole-trace products (the GlobalLFU board, Oracle's future index, tier
// prefetch plans) cost a second read of the workload.
TEST(StreamedSimulation, ReadsTheWorkloadOnceUnlessAWholeTraceProductIsNeeded) {
  const GeneratorSource base(identity_workload());
  const auto expect_opens = [&](const core::SystemConfig& config,
                                 int opens) {
    const CountingSource source(base);
    core::VodSystem system(source, config);
    (void)system.run();
    EXPECT_EQ(source.opens(), opens)
        << test::repro_line(identity_workload(), config);
  };

  expect_opens(small_system(core::StrategyKind::GlobalLfu), 2);

  auto failures = small_system(core::StrategyKind::Lru);
  failures.peer_failures.push_back({sim::SimTime::hours(20), 0.4, 11});
  expect_opens(failures, 1);

  expect_opens(small_system(core::StrategyKind::Oracle), 2);

  auto hub = small_system(core::StrategyKind::Lru);
  hub.prefetch.kind = core::PrefetchKind::TopPopular;
  hub.tiers.push_back(hfc::TierLevelSpec{});
  hub.tiers.back().capacity = DataSize::gigabytes(20);
  expect_opens(hub, 2);
}

TEST(StreamedSimulation, ScaledSourceMatchesScaledTrace) {
  const GeneratorSource base(identity_workload());
  const PopulationScaledSource pop(base, 2);
  const CatalogScaledSource source(pop, 2);

  const auto trace = scale_catalog(
      scale_population(generate_power_info_like(identity_workload()), 2), 2);
  const auto config = small_system(core::StrategyKind::Lfu);
  core::VodSystem materialized(trace, config);
  const auto expected =
      core::to_json(materialized.run(), /*include_neighborhoods=*/true);
  EXPECT_EQ(run_streamed(source, config), expected)
      << test::repro_line(identity_workload(), config)
      << " scale_pop=2 scale_cat=2";
}

}  // namespace
}  // namespace vodcache::trace
