#include "trace/csv_io.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

namespace vodcache::trace {

namespace {

[[noreturn]] void parse_error(std::size_t line_number, std::string_view what) {
  std::ostringstream message;
  message << "vodcache trace parse error at line " << line_number << ": "
          << what;
  throw std::runtime_error(message.str());
}

// A '\r' survivor of std::getline means the file has Windows CRLF line
// endings; the trailing '\r' would otherwise glue itself onto the last
// field and fail as "malformed number" — say what is actually wrong.
void reject_crlf(const std::string& line, std::size_t line_number) {
  if (!line.empty() && line.back() == '\r') {
    parse_error(line_number,
                "CRLF line ending (convert the file to Unix LF endings)");
  }
}

// Splits a comma-separated line into fields (no quoting; the format never
// needs it).
std::vector<std::string_view> split_fields(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t begin = 0;
  while (begin <= line.size()) {
    const std::size_t comma = line.find(',', begin);
    if (comma == std::string_view::npos) {
      fields.push_back(line.substr(begin));
      break;
    }
    fields.push_back(line.substr(begin, comma - begin));
    begin = comma + 1;
  }
  return fields;
}

template <typename T>
T parse_number(std::string_view text, std::size_t line_number) {
  T value{};
  const auto* first = text.data();
  const auto* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) {
    parse_error(line_number, "malformed number");
  }
  return value;
}

SessionRecord parse_session_line(
    const std::vector<std::string_view>& fields, std::size_t line_number) {
  if (fields.size() != 5) {
    parse_error(line_number, "session needs 4 fields");
  }
  SessionRecord s;
  s.start =
      sim::SimTime::millis(parse_number<std::int64_t>(fields[1], line_number));
  s.user = UserId{parse_number<std::uint32_t>(fields[2], line_number)};
  s.program = ProgramId{parse_number<std::uint32_t>(fields[3], line_number)};
  s.duration =
      sim::SimTime::millis(parse_number<std::int64_t>(fields[4], line_number));
  return s;
}

// The header records (meta + program) shared by both loaders.
struct HeaderState {
  bool seen_meta = false;
  std::size_t meta_line = 0;
  std::uint32_t user_count = 0;
  sim::SimTime horizon;
  std::vector<ProgramInfo> programs;
};

// Consumes a meta/program line into `header` and returns true; returns
// false for a session line (the caller parses those); throws on anything
// else.
bool consume_header_line(const std::vector<std::string_view>& fields,
                         std::size_t line_number, HeaderState& header) {
  const std::string_view kind = fields[0];
  if (kind == "session") return false;
  if (kind == "meta") {
    if (fields.size() != 3) parse_error(line_number, "meta needs 2 fields");
    if (header.seen_meta) {
      parse_error(line_number,
                  "duplicate meta line (one meta record per trace)");
    }
    header.user_count = parse_number<std::uint32_t>(fields[1], line_number);
    header.horizon = sim::SimTime::millis(
        parse_number<std::int64_t>(fields[2], line_number));
    if (header.user_count == 0) {
      parse_error(line_number, "meta user count must be at least 1");
    }
    if (header.horizon <= sim::SimTime{}) {
      parse_error(line_number, "meta horizon must be positive");
    }
    header.seen_meta = true;
    header.meta_line = line_number;
    return true;
  }
  if (kind == "program") {
    // fresh_weight (field 6) is optional for backward compatibility with
    // traces converted from external sources.
    if (fields.size() != 5 && fields.size() != 6) {
      parse_error(line_number, "program needs 4 or 5 fields");
    }
    const auto id = parse_number<std::uint32_t>(fields[1], line_number);
    if (id != header.programs.size()) {
      parse_error(line_number, "program ids must be contiguous from 0");
    }
    ProgramInfo info;
    info.length = sim::SimTime::millis(
        parse_number<std::int64_t>(fields[2], line_number));
    info.introduced = sim::SimTime::millis(
        parse_number<std::int64_t>(fields[3], line_number));
    info.base_weight = parse_number<double>(fields[4], line_number);
    if (fields.size() == 6) {
      info.fresh_weight = parse_number<double>(fields[5], line_number);
    }
    if (info.length <= sim::SimTime{}) {
      parse_error(line_number, "program length must be positive");
    }
    for (const double weight : {info.base_weight, info.fresh_weight}) {
      if (!std::isfinite(weight) || weight < 0.0) {
        parse_error(line_number,
                    "program weights must be finite and non-negative");
      }
    }
    header.programs.push_back(info);
    return true;
  }
  parse_error(line_number, "unknown record kind");
}

// The checks that need the whole file, after both loaders' last line.
void finish_header(const HeaderState& header) {
  if (!header.seen_meta) {
    throw std::runtime_error("vodcache trace: missing meta line");
  }
  if (header.programs.empty()) {
    parse_error(header.meta_line, "trace has no program records");
  }
}

}  // namespace

std::uint64_t write_csv(const SessionSource& source, std::ostream& out) {
  out << "# vodcache-trace v1\n";
  out << "meta," << source.user_count() << ','
      << source.horizon().millis_count() << '\n';
  const auto& programs = source.catalog().programs();
  for (std::size_t i = 0; i < programs.size(); ++i) {
    out << "program," << i << ',' << programs[i].length.millis_count() << ','
        << programs[i].introduced.millis_count() << ','
        << programs[i].base_weight << ',' << programs[i].fresh_weight << '\n';
  }
  std::uint64_t count = 0;
  auto stream = source.open();
  SessionRecord s;
  while (stream->next(s)) {
    out << "session," << s.start.millis_count() << ',' << s.user.value() << ','
        << s.program.value() << ',' << s.duration.millis_count() << '\n';
    ++count;
  }
  return count;
}

std::uint64_t write_csv_file(const SessionSource& source,
                             const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  return write_csv(source, out);
}

Trace read_csv(std::istream& in) {
  std::string line;
  std::size_t line_number = 0;
  HeaderState header;
  std::vector<SessionRecord> sessions;

  while (std::getline(in, line)) {
    ++line_number;
    reject_crlf(line, line_number);
    if (line.empty() || line[0] == '#') continue;
    const auto fields = split_fields(line);
    if (consume_header_line(fields, line_number, header)) continue;
    const auto s = parse_session_line(fields, line_number);
    if (s.program.value() >= header.programs.size()) {
      parse_error(line_number, "session references unknown program");
    }
    sessions.push_back(s);
  }
  finish_header(header);

  Trace trace(Catalog(std::move(header.programs)), std::move(sessions),
              header.user_count, header.horizon);
  // Input files are untrusted: semantic violations are exceptions, not
  // contract aborts.
  if (const auto error = trace.validation_error()) {
    throw std::runtime_error("vodcache trace: " + *error);
  }
  return trace;
}

Trace read_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return read_csv(in);
}

namespace {

// The session-only replay pass behind CsvSource::open().  Re-checks what
// a file changed underneath the validated source could break — session
// order and every session_error rule — so a rewrite fails as a named error
// instead of reaching the simulator.
class CsvStream final : public SessionStream {
 public:
  CsvStream(const std::string& path, const CsvSource& source)
      : in_(path), source_(&source) {
    if (!in_) throw std::runtime_error("cannot open for read: " + path);
  }

  bool next(SessionRecord& out) override {
    std::string line;
    while (std::getline(in_, line)) {
      ++line_number_;
      reject_crlf(line, line_number_);
      if (line.empty() || line[0] == '#') continue;
      const auto fields = split_fields(line);
      const std::string_view kind = fields[0];
      if (kind != "session") continue;  // header lines: validated up front
      out = parse_session_line(fields, line_number_);
      if (out.start < last_start_) {
        parse_error(line_number_,
                    "sessions not sorted by start time (file changed?)");
      }
      if (const char* error = session_error(
              out, source_->catalog().programs(), source_->user_count(),
              source_->horizon())) {
        parse_error(line_number_, std::string(error) + " (file changed?)");
      }
      last_start_ = out.start;
      return true;
    }
    return false;
  }

 private:
  std::ifstream in_;
  const CsvSource* source_;
  std::size_t line_number_ = 0;
  sim::SimTime last_start_;
};

}  // namespace

CsvSource::CsvSource(std::string path) : path_(std::move(path)) {
  std::ifstream in(path_);
  if (!in) throw std::runtime_error("cannot open for read: " + path_);

  // One full validation pass: header into memory, sessions checked in
  // stream order (sorting, then session_error's rules, as
  // Trace::validation_error checks them) and counted, never stored.
  std::string line;
  std::size_t line_number = 0;
  HeaderState header;
  sim::SimTime last_start;
  bool any_session = false;

  while (std::getline(in, line)) {
    ++line_number;
    reject_crlf(line, line_number);
    if (line.empty() || line[0] == '#') continue;
    const auto fields = split_fields(line);
    if (consume_header_line(fields, line_number, header)) continue;
    if (!header.seen_meta) {
      parse_error(line_number,
                  "streaming source needs the meta line before the first "
                  "session (the materialized loader accepts either order)");
    }
    const auto s = parse_session_line(fields, line_number);
    if (any_session && s.start < last_start) {
      parse_error(line_number,
                  "sessions not sorted by start time; a streaming source "
                  "cannot re-sort — regenerate the file or load it "
                  "materialized (vodcache run --materialize)");
    }
    if (const char* error = session_error(s, header.programs,
                                          header.user_count, header.horizon)) {
      parse_error(line_number, error);
    }
    last_start = s.start;
    any_session = true;
    ++session_count_;
  }
  finish_header(header);
  user_count_ = header.user_count;
  horizon_ = header.horizon;
  catalog_ = Catalog(std::move(header.programs));
}

std::unique_ptr<SessionStream> CsvSource::open() const {
  return std::make_unique<CsvStream>(path_, *this);
}

}  // namespace vodcache::trace
