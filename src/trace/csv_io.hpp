// Trace files: one writer for any SessionSource (a Trace included), and two
// readers — read_csv materializes a Trace, CsvSource streams the file.
//
// A single-file line format that a real trace (e.g. PowerInfo, if you have
// access to it) can be converted into, making the whole evaluation pipeline
// runnable on real data:
//
//   # vodcache-trace v1
//   meta,<user_count>,<horizon_ms>
//   program,<id>,<length_ms>,<introduced_ms>,<base_weight>[,<fresh_weight>]
//   session,<start_ms>,<user>,<program>,<duration_ms>
//
// Lines starting with '#' are comments.  Programs must appear with
// contiguous ids 0..n-1 before any session referencing them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "trace/trace.hpp"

namespace vodcache::trace {

// Writers: drain the source straight to disk, one session at a time (how
// `vodcache gen` writes million-user traces without materializing them; a
// Trace writes the same way).  Returns the number of sessions written.
std::uint64_t write_csv(const SessionSource& source, std::ostream& out);
std::uint64_t write_csv_file(const SessionSource& source,
                             const std::string& path);

// Loads the whole file and sorts it, so sessions may appear in any order
// (the one input CsvSource refuses).  Throws std::runtime_error on
// malformed input, or on a session that breaks a session_error rule (an
// unknown program is reported with its line number; the other rules are
// checked after the sort, by session index).
[[nodiscard]] Trace read_csv(std::istream& in);
[[nodiscard]] Trace read_csv_file(const std::string& path);

// A trace file as a SessionSource: the constructor makes one full pass to
// parse the header (meta + programs) and validate every session against
// the file's order and session_error's rules, each failure naming its line
// — O(catalog) memory, nothing stored — and each open() re-reads the file,
// yielding sessions in file order.
//
// Two restrictions versus read_csv_file (which materializes and can
// therefore repair order): sessions must already be sorted by start time,
// and the meta line must precede the first session.  write_csv output
// always satisfies both.  Violations throw std::runtime_error with a hint
// to re-sort or load materialized.  Streams re-check the invariants
// cheaply and throw if the file changed between passes.
class CsvSource final : public SessionSource {
 public:
  explicit CsvSource(std::string path);

  [[nodiscard]] const Catalog& catalog() const override { return catalog_; }
  [[nodiscard]] std::uint32_t user_count() const override {
    return user_count_;
  }
  [[nodiscard]] sim::SimTime horizon() const override { return horizon_; }
  [[nodiscard]] std::unique_ptr<SessionStream> open() const override;
  [[nodiscard]] std::uint64_t session_count_hint() const override {
    return session_count_;
  }

 private:
  std::string path_;
  Catalog catalog_;
  std::uint32_t user_count_ = 0;
  sim::SimTime horizon_;
  std::uint64_t session_count_ = 0;
};

}  // namespace vodcache::trace
