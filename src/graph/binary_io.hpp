// Versioned on-disk binary CSR format (`.cgr`) with mmap loading.
//
// Layout (all integers little-endian, i.e. host order on every platform
// this library targets; the endianness tag rejects foreign files):
//
//   [0, 128)    CgrHeader — magic "CGRC", version, endianness tag, n,
//               degree_sum (= 2m), structural fingerprint, degree stats,
//               section table (byte offsets + lengths), total file size.
//   name        UTF-8 graph name, immediately after the header.
//   offsets     (n+1) x u64 CSR row offsets, 64-byte aligned.
//   adjacency   degree_sum x u32 neighbour ids, 64-byte aligned.
//
// The 64-byte section alignment means an mmap'd file can be used in place:
// load_cgr_file(kMapped) validates the header and the CSR's index ranges
// (offsets monotone from 0 to degree_sum, every neighbour id < n: plain
// O(n + m) scans, so a flipped word is a located error rather than an
// out-of-bounds read) and adopts the mapping as the graph's storage
// backend, with no allocation proportional to the graph. The fingerprint
// is computed once at ingest/write time and trusted from the header on
// load; pass `verify = true` (cobra graph info --verify) to rehash and
// deep-validate the structure as well.
#pragma once

#include <cstdint>
#include <string>

#include "graph/graph.hpp"

namespace cobra::graph {

/// First four bytes of every `.cgr` file ("CGRC" in memory order).
inline constexpr std::uint32_t kCgrMagic = 0x43524743u;
/// Format version this build reads and writes.
inline constexpr std::uint32_t kCgrVersion = 1;
/// Byte-order probe: reads back as 0x01020304 only on a same-endian host.
inline constexpr std::uint32_t kCgrEndianTag = 0x01020304u;

/// Parsed `.cgr` header — everything `cobra graph info` prints without
/// touching the array sections.
struct CgrInfo {
  std::uint32_t version = 0;       ///< format version from the header
  std::uint64_t n = 0;             ///< number of vertices
  std::uint64_t degree_sum = 0;    ///< 2m (adjacency length)
  std::uint64_t fingerprint = 0;   ///< csr_fingerprint stored at ingest
  std::uint32_t min_degree = 0;    ///< smallest degree
  std::uint32_t max_degree = 0;    ///< largest degree
  std::string name;                ///< embedded graph name
  std::uint64_t file_bytes = 0;    ///< total file size the header claims
};

/// Writes `g` to `path` in `.cgr` form (creating parent directories),
/// including its fingerprint, so later loads skip the O(n + m) rehash.
/// Throws util::CheckError on I/O failure.
void write_cgr_file(const Graph& g, const std::string& path);

/// Reads and validates only the header — O(1) in the graph size. Throws
/// util::CheckError with the path and the specific defect (bad magic,
/// foreign endianness, unsupported version, truncation, inconsistent
/// section table) on anything malformed.
CgrInfo read_cgr_header(const std::string& path);

/// How load_cgr_file should back the graph.
enum class CgrLoadMode {
  kMapped,  ///< mmap the file; shared, no copy of the sections
  kOwned,   ///< copy the sections into vectors (anonymous memory)
};

/// Opens a `.cgr` file as a Graph. Header validation and the CSR range
/// checks (monotone offsets, neighbour ids < n) always run; `verify`
/// additionally rehashes the arrays against the stored fingerprint and
/// checks sortedness and the absence of self-loops, for `cobra graph info
/// --verify` and distrusted files.
Graph load_cgr_file(const std::string& path,
                    CgrLoadMode mode = CgrLoadMode::kMapped,
                    bool verify = false);

/// Streaming text-edge-list → `.cgr` converter: two passes over the input
/// file (degree count, then adjacency fill), so the edge list is never
/// materialized in memory — peak footprint is the CSR itself. The input
/// format is graph/io.hpp's ("n m" header, one "u v" per line, '#'
/// comments); malformed input is reported with the line number and the
/// offending token. `name` defaults to the input file's stem and becomes
/// the graph's registry label. Returns the written header.
CgrInfo ingest_edge_list_file(const std::string& edge_list_path,
                              const std::string& cgr_path,
                              const std::string& name = "");

}  // namespace cobra::graph
