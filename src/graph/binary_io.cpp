#include "graph/binary_io.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <vector>

#include "graph/io.hpp"
#include "util/assert.hpp"
#include "util/metrics.hpp"

namespace cobra::graph {

namespace {

// On-disk header, 128 bytes. Plain old data: written and read with
// memcpy-like stream operations, never pointer-cast out of the mapping
// without alignment being guaranteed (the header starts at offset 0 of a
// page-aligned mapping).
struct CgrHeader {
  std::uint32_t magic = kCgrMagic;
  std::uint32_t version = kCgrVersion;
  std::uint32_t endian = kCgrEndianTag;
  std::uint32_t header_bytes = 128;
  std::uint64_t n = 0;
  std::uint64_t degree_sum = 0;
  std::uint64_t fingerprint = 0;
  std::uint32_t min_degree = 0;
  std::uint32_t max_degree = 0;
  std::uint64_t name_offset = 0;
  std::uint64_t name_bytes = 0;
  std::uint64_t offsets_offset = 0;
  std::uint64_t offsets_bytes = 0;
  std::uint64_t adj_offset = 0;
  std::uint64_t adj_bytes = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t reserved[3] = {0, 0, 0};
};
static_assert(sizeof(CgrHeader) == 128, ".cgr header must stay 128 bytes");

constexpr std::uint64_t kSectionAlign = 64;

std::uint64_t align_up(std::uint64_t value) {
  return (value + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

std::uint32_t byte_swap32(std::uint32_t v) {
  return (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) |
         (v << 24);
}

// Lays out the section table for a graph of the given shape. The returned
// header still needs degree stats and the fingerprint filled in.
CgrHeader layout_header(std::uint64_t n, std::uint64_t degree_sum,
                        std::size_t name_bytes) {
  CgrHeader h;
  h.n = n;
  h.degree_sum = degree_sum;
  h.name_offset = sizeof(CgrHeader);
  h.name_bytes = name_bytes;
  h.offsets_offset = align_up(h.name_offset + h.name_bytes);
  h.offsets_bytes = (n + 1) * sizeof(std::uint64_t);
  h.adj_offset = align_up(h.offsets_offset + h.offsets_bytes);
  h.adj_bytes = degree_sum * sizeof(VertexId);
  h.file_bytes = h.adj_offset + h.adj_bytes;
  return h;
}

void write_padding(std::ostream& os, std::uint64_t from, std::uint64_t to) {
  static const char zeros[kSectionAlign] = {};
  COBRA_CHECK(to >= from && to - from < kSectionAlign);
  os.write(zeros, static_cast<std::streamsize>(to - from));
}

// Full header validation against the actual file size. Every rejection
// names the path and says what to do about it.
void validate_header(const CgrHeader& h, const std::string& path,
                     std::uint64_t actual_bytes) {
  if (h.magic != kCgrMagic) {
    COBRA_CHECK_MSG(byte_swap32(h.magic) != kCgrMagic,
                    path << ": .cgr endianness mismatch (file written on "
                         << "an opposite-endian host; re-run `cobra graph "
                         << "ingest` on this machine)");
    COBRA_CHECK_MSG(false, path << ": not a .cgr file (bad magic "
                                << h.magic << ")");
  }
  COBRA_CHECK_MSG(h.endian == kCgrEndianTag,
                  path << ": .cgr endianness mismatch (file written on an "
                       << "opposite-endian host; re-run `cobra graph "
                       << "ingest` on this machine)");
  COBRA_CHECK_MSG(h.version == kCgrVersion,
                  path << ": unsupported .cgr version " << h.version
                       << " (this build reads version " << kCgrVersion
                       << "; re-ingest the source graph)");
  COBRA_CHECK_MSG(h.header_bytes == sizeof(CgrHeader),
                  path << ": corrupt .cgr header (header_bytes "
                       << h.header_bytes << ", expected "
                       << sizeof(CgrHeader) << ")");
  COBRA_CHECK_MSG(h.n >= 1 && h.n <= 0xFFFFFFFFull - 1,
                  path << ": corrupt .cgr header (vertex count " << h.n
                       << " out of range)");
  COBRA_CHECK_MSG(h.degree_sum % 2 == 0,
                  path << ": corrupt .cgr header (odd degree sum "
                       << h.degree_sum << ")");
  const CgrHeader expect = layout_header(h.n, h.degree_sum, h.name_bytes);
  COBRA_CHECK_MSG(h.name_offset == expect.name_offset &&
                      h.offsets_offset == expect.offsets_offset &&
                      h.offsets_bytes == expect.offsets_bytes &&
                      h.adj_offset == expect.adj_offset &&
                      h.adj_bytes == expect.adj_bytes &&
                      h.file_bytes == expect.file_bytes,
                  path << ": corrupt .cgr header (section table does not "
                       << "match n = " << h.n << ", degree_sum = "
                       << h.degree_sum << ")");
  COBRA_CHECK_MSG(actual_bytes == h.file_bytes,
                  path << ": truncated or padded .cgr (header claims "
                       << h.file_bytes << " bytes, file has "
                       << actual_bytes << "); re-ingest or re-copy it");
}

CgrHeader header_from_bytes(const std::byte* data, std::size_t size,
                            const std::string& path) {
  COBRA_CHECK_MSG(size >= sizeof(CgrHeader),
                  path << ": truncated .cgr (file is " << size
                       << " bytes, the header alone needs "
                       << sizeof(CgrHeader) << ")");
  CgrHeader h;
  std::memcpy(&h, data, sizeof(CgrHeader));
  return h;
}

std::string name_from_bytes(const std::byte* data, const CgrHeader& h) {
  return std::string(reinterpret_cast<const char*>(data + h.name_offset),
                     h.name_bytes);
}

CgrInfo info_from_header(const CgrHeader& h, std::string name) {
  CgrInfo info;
  info.version = h.version;
  info.n = h.n;
  info.degree_sum = h.degree_sum;
  info.fingerprint = h.fingerprint;
  info.min_degree = h.min_degree;
  info.max_degree = h.max_degree;
  info.name = std::move(name);
  info.file_bytes = h.file_bytes;
  return info;
}

// Where the first neighbour id >= n sits, for validate_ranges' message.
std::string first_out_of_range(std::span<const std::uint64_t> offsets,
                               std::span<const VertexId> adj, VertexId n) {
  const auto it = std::find_if(adj.begin(), adj.end(),
                               [n](VertexId v) { return v >= n; });
  const auto j = static_cast<std::uint64_t>(it - adj.begin());
  const auto u = std::upper_bound(offsets.begin(), offsets.end(), j) -
                 offsets.begin() - 1;
  return "neighbour id " + std::to_string(*it) + " out of range at vertex " +
         std::to_string(u);
}

// The checks every open runs, so that no CSR it adopts can index out of
// bounds: offsets monotone (with offsets[n] == degree_sum checked by the
// caller, that bounds every row) and every neighbour id below n. O(n + m)
// plain scans, over pages the first round on the graph touches anyway.
void validate_ranges(std::span<const std::uint64_t> offsets,
                     std::span<const VertexId> adj, const std::string& path) {
  const auto n = static_cast<VertexId>(offsets.size() - 1);
  for (VertexId u = 0; u < n; ++u)
    COBRA_CHECK_MSG(offsets[u] <= offsets[u + 1],
                    path << ": corrupt .cgr (offsets not monotone at "
                         << "vertex " << u << ")");
  VertexId max_id = 0;
  for (const VertexId v : adj) max_id = std::max(max_id, v);
  COBRA_CHECK_MSG(max_id < n, path << ": corrupt .cgr ("
                                   << first_out_of_range(offsets, adj, n)
                                   << ")");
}

// O(m) structural validation beyond validate_ranges (verify mode): the
// remaining invariants the owned Graph constructor enforces, with path
// context.
void deep_validate(std::span<const std::uint64_t> offsets,
                   std::span<const VertexId> adj, const std::string& path) {
  const auto n = static_cast<VertexId>(offsets.size() - 1);
  for (VertexId u = 0; u < n; ++u) {
    for (std::uint64_t j = offsets[u]; j < offsets[u + 1]; ++j) {
      COBRA_CHECK_MSG(adj[j] != u, path << ": corrupt .cgr (self-loop at "
                                        << "vertex " << u << ")");
      COBRA_CHECK_MSG(j == offsets[u] || adj[j - 1] < adj[j],
                      path << ": corrupt .cgr (unsorted or duplicate "
                           << "adjacency at vertex " << u << ")");
    }
  }
}

}  // namespace

void write_cgr_file(const Graph& g, const std::string& path) {
  COBRA_CHECK_MSG(g.num_vertices() >= 1,
                  "write_cgr_file: refusing to write an empty graph");
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  CgrHeader h = layout_header(g.num_vertices(), g.degree_sum(),
                              g.name().size());
  h.fingerprint = g.fingerprint();
  h.min_degree = g.min_degree();
  h.max_degree = g.max_degree();

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  COBRA_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  out.write(reinterpret_cast<const char*>(&h),
            static_cast<std::streamsize>(sizeof(h)));
  out.write(g.name().data(),
            static_cast<std::streamsize>(g.name().size()));
  write_padding(out, h.name_offset + h.name_bytes, h.offsets_offset);
  const auto offsets = g.offsets();
  out.write(reinterpret_cast<const char*>(offsets.data()),
            static_cast<std::streamsize>(h.offsets_bytes));
  write_padding(out, h.offsets_offset + h.offsets_bytes, h.adj_offset);
  const auto adj = g.adjacency();
  out.write(reinterpret_cast<const char*>(adj.data()),
            static_cast<std::streamsize>(h.adj_bytes));
  out.flush();
  COBRA_CHECK_MSG(out.good(), "write failed for " << path);
}

CgrInfo read_cgr_header(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  COBRA_CHECK_MSG(in.good(), "cannot open " << path << " for reading");
  in.seekg(0, std::ios::end);
  const auto file_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  std::byte raw[sizeof(CgrHeader)] = {};
  in.read(reinterpret_cast<char*>(raw),
          static_cast<std::streamsize>(
              std::min<std::uint64_t>(file_bytes, sizeof(CgrHeader))));
  const CgrHeader h = header_from_bytes(
      raw, static_cast<std::size_t>(file_bytes), path);
  validate_header(h, path, file_bytes);
  std::string name(h.name_bytes, '\0');
  in.seekg(static_cast<std::streamoff>(h.name_offset));
  in.read(name.data(), static_cast<std::streamsize>(h.name_bytes));
  COBRA_CHECK_MSG(in.good(), path << ": read failed inside the header");
  return info_from_header(h, std::move(name));
}

Graph load_cgr_file(const std::string& path, CgrLoadMode mode,
                    bool verify) {
  MappedFile file = MappedFile::open_read(path);
  if (util::metrics_collecting()) {
    util::MetricsRegistry& reg = util::MetricsRegistry::instance();
    static const util::MetricId opens = reg.counter("graph.mmap_opens");
    static const util::MetricId bytes = reg.counter("graph.mmap_bytes");
    reg.add(opens, 1);
    reg.add(bytes, file.size());
  }
  const CgrHeader h = header_from_bytes(file.data(), file.size(), path);
  validate_header(h, path, file.size());

  const auto* offsets_ptr = reinterpret_cast<const std::uint64_t*>(
      file.data() + h.offsets_offset);
  const auto* adj_ptr =
      reinterpret_cast<const VertexId*>(file.data() + h.adj_offset);
  const std::span<const std::uint64_t> offsets{
      offsets_ptr, static_cast<std::size_t>(h.n) + 1};
  const std::span<const VertexId> adj{
      adj_ptr, static_cast<std::size_t>(h.degree_sum)};

  // The CSR frame and the index ranges are checked on every open, so a
  // flipped word is a located error, never an out-of-bounds read.
  // Sortedness, self-loops and the fingerprint are `verify`'s job.
  COBRA_CHECK_MSG(offsets.front() == 0,
                  path << ": corrupt .cgr (offsets[0] != 0)");
  COBRA_CHECK_MSG(offsets.back() == h.degree_sum,
                  path << ": corrupt .cgr (offsets[n] "
                       << offsets.back() << " != degree_sum "
                       << h.degree_sum << ")");
  validate_ranges(offsets, adj, path);
  if (verify) {
    deep_validate(offsets, adj, path);
    const std::uint64_t rehash = csr_fingerprint(offsets, adj);
    COBRA_CHECK_MSG(rehash == h.fingerprint,
                    path << ": fingerprint mismatch (header "
                         << h.fingerprint << ", arrays hash to " << rehash
                         << ") — the file was modified after ingest");
  }

  const std::string name = name_from_bytes(file.data(), h);
  std::shared_ptr<const CsrStorage> storage;
  if (mode == CgrLoadMode::kMapped) {
    storage = std::make_shared<MappedCsrStorage>(std::move(file), offsets,
                                                 adj);
  } else {
    storage = std::make_shared<OwnedCsrStorage>(
        std::vector<std::uint64_t>(offsets.begin(), offsets.end()),
        std::vector<VertexId>(adj.begin(), adj.end()));
  }
  return Graph::adopt(std::move(storage), name, h.min_degree, h.max_degree,
                      h.fingerprint);
}

CgrInfo ingest_edge_list_file(const std::string& edge_list_path,
                              const std::string& cgr_path,
                              const std::string& name) {
  // Pass 1: degrees only. The edge list itself is never held in memory —
  // the two text passes build the CSR in place.
  std::ifstream pass1(edge_list_path);
  COBRA_CHECK_MSG(pass1.good(),
                  "cannot open " << edge_list_path << " for reading");
  std::vector<std::uint32_t> degree;
  const EdgeListHeader header = scan_edge_list(
      pass1, edge_list_path,
      [&](const EdgeListHeader& hd) {
        degree.assign(static_cast<std::size_t>(hd.n), 0);
      },
      [&](VertexId u, VertexId v) {
        ++degree[u];
        ++degree[v];
      });
  pass1.close();

  const auto n = static_cast<std::size_t>(header.n);
  std::vector<std::uint64_t> offsets(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u)
    offsets[u + 1] = offsets[u] + degree[u];

  // Pass 2: fill adjacency. `degree[u]` now counts the slots still free
  // at the *end* of u's range, so no extra cursor array is needed.
  std::vector<VertexId> adj(static_cast<std::size_t>(offsets[n]));
  std::ifstream pass2(edge_list_path);
  COBRA_CHECK_MSG(pass2.good(),
                  "cannot reopen " << edge_list_path << " for pass 2");
  scan_edge_list(
      pass2, edge_list_path, nullptr, [&](VertexId u, VertexId v) {
        adj[offsets[u + 1] - degree[u]] = v;
        adj[offsets[v + 1] - degree[v]] = u;
        --degree[u];
        --degree[v];
      });
  pass2.close();
  degree.clear();
  degree.shrink_to_fit();

  // Sort each list and give duplicate edges an actionable message before
  // the validating Graph constructor sees them.
  for (std::size_t u = 0; u < n; ++u) {
    const auto first = adj.begin() + static_cast<std::ptrdiff_t>(offsets[u]);
    const auto last =
        adj.begin() + static_cast<std::ptrdiff_t>(offsets[u + 1]);
    std::sort(first, last);
    const auto dup = std::adjacent_find(first, last);
    COBRA_CHECK_MSG(dup == last,
                    edge_list_path << ": duplicate edge {" << u << ", "
                                   << *dup << "} (each undirected edge "
                                   << "must appear once)");
  }

  std::string graph_name = name;
  if (graph_name.empty())
    graph_name = std::filesystem::path(edge_list_path).stem().string();
  const Graph g(std::move(offsets), std::move(adj), graph_name);
  write_cgr_file(g, cgr_path);
  return read_cgr_header(cgr_path);
}

}  // namespace cobra::graph
