// Pluggable storage backends for the CSR arrays behind graph::Graph.
//
// A Graph is two arrays — (n+1) 64-bit offsets and degree_sum 32-bit
// neighbour ids — plus a handful of scalars. Where those arrays live is a
// backend decision:
//
//   * OwnedCsrStorage  — std::vectors in anonymous memory. What every
//     generator and GraphBuilder produces; zero-cost for existing callers.
//   * MappedCsrStorage — a read-only mmap of a `.cgr` file (see
//     graph/binary_io.hpp). Opening scans the offsets and neighbour ids
//     once to check their ranges, copying nothing; the pages are shared
//     copy-free between every process that maps the same file — this is
//     what lets k sweep workers on one host run a multi-gigabyte graph
//     without k copies.
//
// Graph holds one shared_ptr<const CsrStorage> and raw spans into it, so
// the hot accessors (neighbors/degree) cost exactly what the old
// vector-owning layout cost. Copies of a Graph share the backend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cobra::graph {

using VertexId = std::uint32_t;

/// Refuses a graph whose CSR arrays alone — 8 bytes per offset, n + 1 of
/// them, and 4 bytes per neighbour id, two per edge — would exceed this
/// machine's physical memory or the process's address-space limit
/// (`ulimit -v`, RLIMIT_AS), whichever is smaller, before anything is
/// allocated: an absurd spec or edge-list header fails with `what` (the
/// spec, or path and line), the estimate and the limit that refused it,
/// not later with an unlocated std::bad_alloc. Estimated in double, so
/// the estimate itself cannot overflow. Throws util::CheckError.
void check_csr_fits(const std::string& what, double n, double m);

/// Immutable home of a graph's CSR arrays. Implementations guarantee the
/// spans stay valid and constant for the storage object's lifetime.
class CsrStorage {
 public:
  virtual ~CsrStorage() = default;

  /// The n+1 CSR row offsets (offsets()[n] == adjacency().size()).
  [[nodiscard]] virtual std::span<const std::uint64_t> offsets() const = 0;

  /// The concatenated sorted adjacency lists (each undirected edge twice).
  [[nodiscard]] virtual std::span<const VertexId> adjacency() const = 0;

  /// Backend label for diagnostics/tests: "owned" or "mmap".
  [[nodiscard]] virtual std::string_view backend_name() const = 0;
};

/// Vector-owning backend — the classic in-memory representation.
class OwnedCsrStorage final : public CsrStorage {
 public:
  OwnedCsrStorage(std::vector<std::uint64_t> offsets,
                  std::vector<VertexId> adjacency)
      : offsets_(std::move(offsets)), adjacency_(std::move(adjacency)) {}

  [[nodiscard]] std::span<const std::uint64_t> offsets() const override {
    return offsets_;
  }
  [[nodiscard]] std::span<const VertexId> adjacency() const override {
    return adjacency_;
  }
  [[nodiscard]] std::string_view backend_name() const override {
    return "owned";
  }

 private:
  std::vector<std::uint64_t> offsets_;
  std::vector<VertexId> adjacency_;
};

/// RAII read-only memory mapping of a whole file. Move-only; unmaps on
/// destruction. Throws util::CheckError when the file cannot be opened,
/// stat'ed or mapped (the message names the path and the OS error).
class MappedFile {
 public:
  /// Maps `path` read-only. Empty files are legal (data() == nullptr).
  static MappedFile open_read(const std::string& path);

  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  /// First mapped byte; nullptr for an empty or default-constructed map.
  [[nodiscard]] const std::byte* data() const { return data_; }
  /// Mapped length in bytes.
  [[nodiscard]] std::size_t size() const { return size_; }
  /// The mapped path (diagnostics).
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::string path_;
};

/// Backend over a mapped `.cgr` file: the offset/adjacency spans point
/// straight into the page cache. Constructed by graph::load_cgr_file after
/// header validation; keeps the mapping alive for the spans' lifetime.
class MappedCsrStorage final : public CsrStorage {
 public:
  MappedCsrStorage(MappedFile file, std::span<const std::uint64_t> offsets,
                   std::span<const VertexId> adjacency)
      : file_(std::move(file)), offsets_(offsets), adjacency_(adjacency) {}

  [[nodiscard]] std::span<const std::uint64_t> offsets() const override {
    return offsets_;
  }
  [[nodiscard]] std::span<const VertexId> adjacency() const override {
    return adjacency_;
  }
  [[nodiscard]] std::string_view backend_name() const override {
    return "mmap";
  }

 private:
  MappedFile file_;
  std::span<const std::uint64_t> offsets_;
  std::span<const VertexId> adjacency_;
};

}  // namespace cobra::graph
