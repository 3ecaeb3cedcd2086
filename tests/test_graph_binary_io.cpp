// The on-disk .cgr format: round trips through both storage backends,
// rejection of malformed files, streaming ingest, and the backend
// bit-identity guarantee (owned and mmap'd graphs drive COBRA/BIPS to
// exactly the same trajectories).
#include "graph/binary_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/estimators.hpp"
#include "graph/generators.hpp"
#include "util/assert.hpp"

namespace cobra::graph {
namespace {

// RAII temp path: removed on scope exit.
struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Returns the CheckError message load_cgr_file produces for `path`.
std::string load_error(const std::string& path, bool verify = false) {
  try {
    (void)load_cgr_file(path, CgrLoadMode::kMapped, verify);
  } catch (const util::CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(GraphBinaryIo, RoundTripOwnedAndMapped) {
  const TempFile f("test_cgr_roundtrip.cgr");
  Graph original = petersen();
  original.set_name("petersen");
  write_cgr_file(original, f.path);

  for (const CgrLoadMode mode :
       {CgrLoadMode::kOwned, CgrLoadMode::kMapped}) {
    const Graph loaded = load_cgr_file(f.path, mode);
    EXPECT_EQ(loaded.num_vertices(), original.num_vertices());
    EXPECT_EQ(loaded.num_edges(), original.num_edges());
    EXPECT_EQ(loaded.name(), "petersen");
    EXPECT_EQ(loaded.fingerprint(), original.fingerprint());
    EXPECT_EQ(loaded.min_degree(), original.min_degree());
    EXPECT_EQ(loaded.max_degree(), original.max_degree());
    ASSERT_EQ(loaded.offsets().size(), original.offsets().size());
    for (std::size_t i = 0; i < loaded.offsets().size(); ++i)
      EXPECT_EQ(loaded.offsets()[i], original.offsets()[i]);
    ASSERT_EQ(loaded.adjacency().size(), original.adjacency().size());
    for (std::size_t i = 0; i < loaded.adjacency().size(); ++i)
      EXPECT_EQ(loaded.adjacency()[i], original.adjacency()[i]);
    EXPECT_EQ(loaded.storage_backend(),
              mode == CgrLoadMode::kMapped ? "mmap" : "owned");
  }
}

TEST(GraphBinaryIo, HeaderInfoMatchesGraph) {
  const TempFile f("test_cgr_info.cgr");
  Graph g = hypercube(5);
  g.set_name("hypercube_5");
  write_cgr_file(g, f.path);
  const CgrInfo info = read_cgr_header(f.path);
  EXPECT_EQ(info.version, kCgrVersion);
  EXPECT_EQ(info.n, g.num_vertices());
  EXPECT_EQ(info.degree_sum, g.degree_sum());
  EXPECT_EQ(info.fingerprint, g.fingerprint());
  EXPECT_EQ(info.min_degree, 5u);
  EXPECT_EQ(info.max_degree, 5u);
  EXPECT_EQ(info.name, "hypercube_5");
  EXPECT_EQ(info.file_bytes, std::filesystem::file_size(f.path));
}

TEST(GraphBinaryIo, VerifyPassesOnCleanFile) {
  const TempFile f("test_cgr_verify.cgr");
  write_cgr_file(cycle(17), f.path);
  EXPECT_NO_THROW(
      (void)load_cgr_file(f.path, CgrLoadMode::kMapped, /*verify=*/true));
}

TEST(GraphBinaryIo, RejectsTruncatedFile) {
  const TempFile f("test_cgr_trunc.cgr");
  write_cgr_file(cycle(12), f.path);
  const std::string bytes = slurp(f.path);

  // Shorter than the header itself.
  spit(f.path, bytes.substr(0, 64));
  EXPECT_NE(load_error(f.path).find("truncated"), std::string::npos);

  // Header intact, arrays cut short.
  spit(f.path, bytes.substr(0, bytes.size() - 8));
  EXPECT_NE(load_error(f.path).find("truncated or padded"),
            std::string::npos);

  // Trailing garbage is rejected too (file_bytes is exact).
  spit(f.path, bytes + "xx");
  EXPECT_NE(load_error(f.path).find("truncated or padded"),
            std::string::npos);
}

TEST(GraphBinaryIo, RejectsCorruptMagic) {
  const TempFile f("test_cgr_magic.cgr");
  write_cgr_file(cycle(8), f.path);
  std::string bytes = slurp(f.path);
  bytes[0] = 'X';
  spit(f.path, bytes);
  EXPECT_NE(load_error(f.path).find("not a .cgr file"), std::string::npos);
}

TEST(GraphBinaryIo, RejectsWrongEndianness) {
  const TempFile f("test_cgr_endian.cgr");
  write_cgr_file(cycle(8), f.path);
  std::string bytes = slurp(f.path);
  // A file from an opposite-endian host starts with the byte-swapped
  // magic; simulate by reversing the first four bytes.
  std::swap(bytes[0], bytes[3]);
  std::swap(bytes[1], bytes[2]);
  spit(f.path, bytes);
  EXPECT_NE(load_error(f.path).find("endianness mismatch"),
            std::string::npos);
}

TEST(GraphBinaryIo, RejectsUnsupportedVersion) {
  const TempFile f("test_cgr_version.cgr");
  write_cgr_file(cycle(8), f.path);
  std::string bytes = slurp(f.path);
  bytes[4] = 99;  // version field, offset 4
  spit(f.path, bytes);
  EXPECT_NE(load_error(f.path).find("unsupported .cgr version"),
            std::string::npos);
}

TEST(GraphBinaryIo, VerifyCatchesTamperedAdjacency) {
  const TempFile f("test_cgr_tamper.cgr");
  write_cgr_file(cycle(64), f.path);
  std::string bytes = slurp(f.path);
  // Rewrite vertex 0's first neighbour from 1 to 2: the CSR stays
  // structurally valid (sorted, in range, loopless), so only the
  // fingerprint rehash can tell the content changed. The default open
  // checks index ranges only and still succeeds; --verify must reject.
  std::uint64_t adj_offset = 0;
  std::memcpy(&adj_offset, bytes.data() + 80, sizeof(adj_offset));
  ASSERT_EQ(static_cast<unsigned char>(bytes[adj_offset]), 1u);
  bytes[static_cast<std::size_t>(adj_offset)] = 2;
  spit(f.path, bytes);
  EXPECT_NO_THROW((void)load_cgr_file(f.path, CgrLoadMode::kMapped));
  const std::string error = load_error(f.path, /*verify=*/true);
  EXPECT_NE(error.find("fingerprint mismatch"), std::string::npos)
      << error;
}

// Byte offset of section `field` (80: adjacency, 64: offsets) in the
// header, as written by write_cgr_file.
std::uint64_t section_offset(const std::string& bytes, std::size_t field) {
  std::uint64_t offset = 0;
  std::memcpy(&offset, bytes.data() + field, sizeof(offset));
  return offset;
}

TEST(GraphBinaryIo, DefaultOpenRejectsOutOfRangeNeighbour) {
  // One flipped adjacency word of an ingested cycle_64 must fail the
  // default open with a located error, not read out of bounds later.
  const TempFile edges("test_cgr_flip.edges");
  const TempFile f("test_cgr_flip.cgr");
  std::string text = "64 64\n";
  for (int u = 0; u < 64; ++u)
    text += std::to_string(u) + " " + std::to_string((u + 1) % 64) + "\n";
  spit(edges.path, text);
  (void)ingest_edge_list_file(edges.path, f.path, "cycle_64");
  std::string bytes = slurp(f.path);
  const std::uint32_t flipped = 0x7fffffffu;
  // Word 5 is vertex 2's second neighbour.
  std::memcpy(bytes.data() + section_offset(bytes, 80) + 5 * sizeof(flipped),
              &flipped, sizeof(flipped));
  spit(f.path, bytes);
  for (const bool verify : {false, true}) {
    const std::string error = load_error(f.path, verify);
    EXPECT_NE(error.find(f.path + ": corrupt .cgr (neighbour id 2147483647 "
                                  "out of range at vertex 2)"),
              std::string::npos)
        << error;
  }
}

TEST(GraphBinaryIo, DefaultOpenRejectsNonMonotoneOffsets) {
  const TempFile f("test_cgr_offsets.cgr");
  write_cgr_file(cycle(64), f.path);
  std::string bytes = slurp(f.path);
  // offsets[3] = 999 > offsets[4] = 8 (offsets[n] stays degree_sum).
  const std::uint64_t bad = 999;
  std::memcpy(bytes.data() + section_offset(bytes, 64) + 3 * sizeof(bad),
              &bad, sizeof(bad));
  spit(f.path, bytes);
  const std::string error = load_error(f.path);
  EXPECT_NE(error.find("corrupt .cgr (offsets not monotone at vertex 3)"),
            std::string::npos)
      << error;
}

TEST(GraphBinaryIo, IngestRoundTrip) {
  const TempFile edges("test_cgr_ingest.edges");
  const TempFile cgr("test_cgr_ingest.cgr");
  spit(edges.path, "# square with a chord\n4 5\n0 1\n1 2\n2 3\n3 0\n0 2\n");
  const CgrInfo info =
      ingest_edge_list_file(edges.path, cgr.path, "square");
  EXPECT_EQ(info.n, 4u);
  EXPECT_EQ(info.degree_sum, 10u);
  EXPECT_EQ(info.name, "square");
  const Graph g = load_cgr_file(cgr.path, CgrLoadMode::kMapped,
                                /*verify=*/true);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(3), 2u);
  const auto nbrs = g.neighbors(0);
  EXPECT_EQ(std::vector<VertexId>(nbrs.begin(), nbrs.end()),
            (std::vector<VertexId>{1, 2, 3}));
}

TEST(GraphBinaryIo, IngestDefaultsNameToFileStem) {
  const TempFile edges("test_cgr_stem.edges");
  const TempFile cgr("test_cgr_stem.cgr");
  spit(edges.path, "3 2\n0 1\n1 2\n");
  EXPECT_EQ(ingest_edge_list_file(edges.path, cgr.path).name,
            "test_cgr_stem");
}

TEST(GraphBinaryIo, IngestReportsLineNumberAndToken) {
  const TempFile edges("test_cgr_badtok.edges");
  const TempFile cgr("test_cgr_badtok.cgr");
  spit(edges.path, "# comment\n3 2\n0 1\n1 x7\n");
  try {
    ingest_edge_list_file(edges.path, cgr.path);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("'x7'"), std::string::npos) << what;
  }
}

TEST(GraphBinaryIo, IngestRejectsDuplicateEdge) {
  const TempFile edges("test_cgr_dup.edges");
  const TempFile cgr("test_cgr_dup.cgr");
  spit(edges.path, "3 3\n0 1\n1 2\n1 0\n");
  try {
    ingest_edge_list_file(edges.path, cgr.path);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    // Located, and naming the lexicographically first duplicate.
    EXPECT_NE(std::string(e.what()).find(edges.path +
                                         ": duplicate edge {0, 1}"),
              std::string::npos)
        << e.what();
  }
}

// The tentpole guarantee: the storage backend is invisible to the
// processes. Fixed-seed COBRA and BIPS runs must produce bit-identical
// trajectories whether the graph lives in owned vectors (generated or
// loaded) or in a read-only mapping of the .cgr file.
TEST(GraphBinaryIo, BackendsAreBitIdenticalUnderCobraAndBips) {
  const TempFile f("test_cgr_identity.cgr");
  Graph generated = torus_power(5, 2);
  generated.set_name("torus_5_d2");
  write_cgr_file(generated, f.path);
  const Graph owned = load_cgr_file(f.path, CgrLoadMode::kOwned);
  const Graph mapped = load_cgr_file(f.path, CgrLoadMode::kMapped);

  const std::uint64_t seed = 0xC0BBAull;
  const auto run_cobra = [&](const Graph& g) {
    return core::estimate_cobra_cover(g, core::ProcessOptions{}, 0, 8,
                                      seed, 100000);
  };
  const auto run_bips = [&](const Graph& g) {
    return core::estimate_bips_infection(g, core::BipsOptions{}, 0, 8,
                                         seed, 100000);
  };

  const auto cover_gen = run_cobra(generated);
  const auto cover_owned = run_cobra(owned);
  const auto cover_mapped = run_cobra(mapped);
  EXPECT_EQ(cover_gen.rounds, cover_owned.rounds);
  EXPECT_EQ(cover_gen.rounds, cover_mapped.rounds);
  EXPECT_EQ(cover_gen.transmissions, cover_mapped.transmissions);

  const auto bips_gen = run_bips(generated);
  const auto bips_owned = run_bips(owned);
  const auto bips_mapped = run_bips(mapped);
  EXPECT_EQ(bips_gen.rounds, bips_owned.rounds);
  EXPECT_EQ(bips_gen.rounds, bips_mapped.rounds);
}

}  // namespace
}  // namespace cobra::graph
