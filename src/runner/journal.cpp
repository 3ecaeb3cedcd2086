#include "runner/journal.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "util/assert.hpp"
#include "util/table.hpp"

namespace cobra::runner {

namespace {

constexpr char kMagic[] = "cobra-journal";
// v2 added the engine header field; v3 the per-cell wall time (heartbeat
// lines ride on v3: every v3 reader already skips unknown records); v4
// the kernel-threads header field; v5 dropped the engine field (the
// kernel picks the frontier representation itself).
constexpr char kVersion[] = "v5";
// Versions this build recognises but can no longer read: their shards
// must be re-run, which is a very different failure from a corrupt file.
constexpr const char* kRetiredVersions[] = {"v1", "v2", "v3", "v4"};

/// Strict double parse (run-header scale): full-token match, finite and
/// positive, same loud failure contract as parse_u64_field.
double parse_scale_field(const std::string& token, const std::string& path,
                         std::size_t line_no) {
  char* end = nullptr;
  const double value =
      token.empty() ? 0.0 : std::strtod(token.c_str(), &end);
  COBRA_CHECK_MSG(!token.empty() && end == token.c_str() + token.size() &&
                      std::isfinite(value) && value > 0.0,
                  path << " line " << line_no
                       << ": scale is not a positive number: '" << token
                       << "'");
  return value;
}

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in(line);
  while (std::getline(in, part, sep)) parts.push_back(part);
  return parts;
}

std::string format_header(const JournalHeader& h) {
  std::ostringstream os;
  // max_digits10 precision: the scale strtod-round-trips bit-exactly, so
  // resume/merge can compare it with plain equality.
  os << "run\t" << h.experiment << '\t' << h.shard_index << '/'
     << h.shard_count << '\t' << h.seed << '\t'
     << std::setprecision(17) << h.scale << '\t' << h.kernel_threads;
  return os.str();
}

}  // namespace

std::uint64_t parse_u64_field(const std::string& token, const char* field,
                              const std::string& path,
                              std::size_t line_no) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value, 10);
  COBRA_CHECK_MSG(ec == std::errc() && ptr == token.data() + token.size(),
                  path << " line " << line_no << ": " << field
                       << " is not a number: '" << token << "'");
  return value;
}

struct Journal::Impl {
  std::ofstream out;
};

Journal::Journal(Journal&& other) noexcept
    : impl_(other.impl_), entries_(std::move(other.entries_)) {
  other.impl_ = nullptr;
}

Journal::~Journal() { delete impl_; }

Journal Journal::create(const std::string& path,
                        const JournalHeader& header) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    COBRA_CHECK_MSG(!ec, "cannot create journal directory "
                             << p.parent_path().string() << ": "
                             << ec.message());
  }
  Journal journal;
  journal.impl_ = new Impl;
  journal.impl_->out.open(path, std::ios::trunc);
  COBRA_CHECK_MSG(journal.impl_->out.good(),
                  "cannot open journal " << path);
  journal.impl_->out << kMagic << '\t' << kVersion << '\n'
                     << format_header(header) << '\n';
  journal.impl_->out.flush();
  return journal;
}

std::pair<JournalHeader, std::vector<JournalEntry>> Journal::read(
    const std::string& path) {
  std::ifstream in(path);
  COBRA_CHECK_MSG(in.good(), "cannot read journal " << path);
  std::string line;

  COBRA_CHECK_MSG(static_cast<bool>(std::getline(in, line)),
                  path << ": empty or truncated journal (missing '"
                       << kMagic << "' header line)");
  {
    const auto parts = split(line, '\t');
    COBRA_CHECK_MSG(parts.size() == 2 && parts[0] == kMagic,
                    path << " line 1: not a cobra journal (expected '"
                         << kMagic << "\t<version>', found '" << line
                         << "')");
    if (parts[1] != kVersion) {
      // A known older version is a stale-but-valid file, not garbage:
      // say which version it is, which this build reads, and what to do.
      for (const char* old_version : kRetiredVersions) {
        COBRA_CHECK_MSG(
            parts[1] != old_version,
            path << " is a " << old_version << " cobra journal, but this "
                 << "build reads " << kVersion << " — the shard must be "
                 << "re-run: delete the journal (and its CSV fragments) "
                 << "and run it again without --resume");
      }
      COBRA_CHECK_MSG(false,
                      path << " line 1: unrecognised cobra journal version "
                           << "'" << parts[1] << "' (this build reads "
                           << kVersion << "; was it written by a newer "
                           << "cobra?)");
    }
  }

  JournalHeader header;
  COBRA_CHECK_MSG(static_cast<bool>(std::getline(in, line)),
                  path << ": truncated journal (missing run header on "
                       << "line 2)");
  {
    const auto parts = split(line, '\t');
    COBRA_CHECK_MSG(parts.size() == 6 && parts[0] == "run",
                    path << " line 2: malformed run header (expected 6 "
                         << "tab-separated 'run' fields, found '" << line
                         << "')");
    header.experiment = parts[1];
    const auto shard = split(parts[2], '/');
    COBRA_CHECK_MSG(shard.size() == 2,
                    path << " line 2: malformed shard spec '" << parts[2]
                         << "' (expected <index>/<count>)");
    header.shard_index = static_cast<int>(
        parse_u64_field(shard[0], "shard index", path, 2));
    header.shard_count = static_cast<int>(
        parse_u64_field(shard[1], "shard count", path, 2));
    COBRA_CHECK_MSG(header.shard_index >= 1 && header.shard_count >= 1 &&
                        header.shard_index <= header.shard_count,
                    path << " line 2: invalid shard spec '" << parts[2]
                         << "' (need 1 <= index <= count)");
    header.seed = parse_u64_field(parts[3], "seed", path, 2);
    header.scale = parse_scale_field(parts[4], path, 2);
    header.kernel_threads = static_cast<int>(
        parse_u64_field(parts[5], "kernel threads", path, 2));
    COBRA_CHECK_MSG(header.kernel_threads >= 1 &&
                        header.kernel_threads <= 256,
                    path << " line 2: kernel threads out of range: '"
                         << parts[5] << "' (need 1..256)");
  }

  std::vector<JournalEntry> entries;
  std::size_t line_no = 2;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto parts = split(line, '\t');
    // A torn final line (crash mid-write) lacks the "ok" terminator —
    // even when it broke inside the counts list — and is treated as not
    // journaled, so the cell re-runs on resume. Heartbeat liveness
    // markers are skipped the same way (they are not journaled cells).
    if (parts.size() != 5 || parts[0] != "cell" || parts[4] != "ok")
      continue;
    // The line claims to be a complete record, so every field must parse:
    // garbage behind an "ok" terminator is corruption, not a torn write.
    JournalEntry entry;
    entry.cell_id = parts[1];
    for (const std::string& count : split(parts[2], ',')) {
      entry.rows_per_table.push_back(static_cast<std::size_t>(
          parse_u64_field(count, "cell row count", path, line_no)));
    }
    entry.wall_us = parse_u64_field(parts[3], "cell wall time", path,
                                    line_no);
    entries.push_back(std::move(entry));
  }
  return {header, entries};
}

Journal Journal::resume(const std::string& path,
                        const JournalHeader& expected) {
  auto [header, entries] = read(path);
  COBRA_CHECK_MSG(
      header == expected,
      "journal " << path << " was written by a different run configuration "
                 << "(experiment/shard/seed/scale/kernel-threads "
                 << "mismatch); refusing to resume — delete it or rerun "
                 << "with matching flags");

  // A crash can cut the trailing newline of the last (now discarded)
  // record; without this repair the next record would glue onto it.
  bool ends_in_newline = true;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (in.good() && in.tellg() > 0) {
      in.seekg(-1, std::ios::end);
      ends_in_newline = in.get() == '\n';
    }
  }

  Journal journal;
  journal.impl_ = new Impl;
  journal.impl_->out.open(path, std::ios::app);
  COBRA_CHECK_MSG(journal.impl_->out.good(),
                  "cannot reopen journal " << path);
  if (!ends_in_newline) journal.impl_->out << '\n';
  journal.entries_ = std::move(entries);
  return journal;
}

void Journal::record(const JournalEntry& entry) {
  COBRA_CHECK(impl_ != nullptr);
  COBRA_CHECK_MSG(entry.cell_id.find_first_of("\t\n\r") == std::string::npos,
                  "cell id contains journal separators: " << entry.cell_id);
  impl_->out << "cell\t" << entry.cell_id << '\t';
  for (std::size_t i = 0; i < entry.rows_per_table.size(); ++i) {
    if (i) impl_->out << ',';
    impl_->out << entry.rows_per_table[i];
  }
  impl_->out << '\t' << entry.wall_us << "\tok\n";
  impl_->out.flush();
  entries_.push_back(entry);
}

void Journal::heartbeat(const std::string& cell_id) {
  COBRA_CHECK(impl_ != nullptr);
  COBRA_CHECK_MSG(cell_id.find_first_of("\t\n\r") == std::string::npos,
                  "cell id contains journal separators: " << cell_id);
  impl_->out << "heartbeat\t" << cell_id << '\n';
  impl_->out.flush();
}

std::size_t Journal::journaled_rows(std::size_t table_index) const {
  std::size_t total = 0;
  for (const JournalEntry& entry : entries_) {
    if (table_index < entry.rows_per_table.size())
      total += entry.rows_per_table[table_index];
  }
  return total;
}

}  // namespace cobra::runner
