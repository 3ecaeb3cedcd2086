#include "runner/layout.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <tuple>

namespace cobra::runner::layout {

namespace {

constexpr std::string_view kJournalSuffix = ".journal";
constexpr std::string_view kSidecarSuffix = ".metrics.jsonl";

/// `<i>of<k>`, the shard spec every per-shard name carries.
std::string shard_spec(int shard_index, int shard_count) {
  return std::to_string(shard_index) + "of" + std::to_string(shard_count);
}

/// A positive decimal in the spelling std::to_string produces: digits
/// only, no sign, no leading zero.
bool parse_positive(std::string_view text, int& value) {
  if (text.empty() || text.front() < '1' || text.front() > '9') return false;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  return ec == std::errc() && ptr == text.data() + text.size();
}

}  // namespace

std::string journal(const std::string& out_dir, const std::string& experiment,
                    int shard_index, int shard_count) {
  return out_dir + "/" + experiment + "." +
         shard_spec(shard_index, shard_count) + std::string(kJournalSuffix);
}

std::string fragment(const std::string& out_dir, const std::string& table_id,
                     int shard_index, int shard_count) {
  if (shard_count == 1) return out_dir + "/" + table_id + ".csv";
  return out_dir + "/" + table_id + ".shard" +
         shard_spec(shard_index, shard_count) + ".csv";
}

std::string sidecar(const std::string& out_dir, const std::string& experiment,
                    int shard_index, int shard_count) {
  if (shard_count == 1)
    return out_dir + "/" + experiment + std::string(kSidecarSuffix);
  return out_dir + "/" + experiment + "." +
         shard_spec(shard_index, shard_count) + std::string(kSidecarSuffix);
}

std::string worker_log(const std::string& out_dir,
                       const std::string& experiment, int shard_index,
                       int shard_count) {
  return out_dir + "/" + experiment + "." +
         shard_spec(shard_index, shard_count) + ".worker.log";
}

std::string costs(const std::string& out_dir, const std::string& experiment) {
  return out_dir + "/" + experiment + ".costs";
}

std::string sweep_status(const std::string& out_dir,
                         const std::string& experiment) {
  return out_dir + "/" + experiment + ".sweep.status";
}

std::optional<ShardFile> parse(std::string_view file_name) {
  ShardFile file;
  std::string_view stem;
  if (file_name.ends_with(kJournalSuffix)) {
    file.kind = FileKind::kJournal;
    stem = file_name.substr(0, file_name.size() - kJournalSuffix.size());
  } else if (file_name.ends_with(kSidecarSuffix)) {
    file.kind = FileKind::kSidecar;
    stem = file_name.substr(0, file_name.size() - kSidecarSuffix.size());
  } else {
    return std::nullopt;
  }
  const auto dot = stem.find('.');
  file.experiment = std::string(stem.substr(0, dot));
  if (file.experiment.empty()) return std::nullopt;
  if (dot == std::string_view::npos) {
    // Only the sidecar has an unsharded spelling; journals always carry
    // their shard spec, 1of1 included.
    if (file.kind != FileKind::kSidecar) return std::nullopt;
    file.canonical = true;
    return file;
  }
  const std::string_view spec = stem.substr(dot + 1);
  const auto of = spec.find("of");
  if (of == std::string_view::npos ||
      !parse_positive(spec.substr(0, of), file.shard_index) ||
      !parse_positive(spec.substr(of + 2), file.shard_count) ||
      file.shard_index > file.shard_count)
    return std::nullopt;
  return file;
}

std::map<std::string, std::vector<ShardFile>> list(const std::string& out_dir,
                                                   FileKind kind) {
  namespace fs = std::filesystem;
  std::map<std::string, std::vector<ShardFile>> groups;
  std::error_code ec;
  if (!fs::is_directory(out_dir, ec)) return groups;
  for (const auto& entry : fs::directory_iterator(out_dir)) {
    std::optional<ShardFile> file = parse(entry.path().filename().string());
    if (!file || file->kind != kind) continue;
    file->path = entry.path().string();
    groups[file->experiment].push_back(std::move(*file));
  }
  for (auto& [experiment, files] : groups) {
    std::sort(files.begin(), files.end(),
              [](const ShardFile& a, const ShardFile& b) {
                return std::tuple(a.shard_count, a.shard_index,
                                  !a.canonical) <
                       std::tuple(b.shard_count, b.shard_index,
                                  !b.canonical);
              });
  }
  return groups;
}

}  // namespace cobra::runner::layout
