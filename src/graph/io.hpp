// Plain-text edge-list I/O.
//
// Format: first line "n m", then one "u v" pair per line (0-based vertex
// ids, u != v, each undirected edge once). Lines starting with '#' are
// comments. This is the lingua franca for exchanging graphs with plotting
// scripts and external tools; `cobra graph ingest` converts it to the
// binary `.cgr` form (graph/binary_io.hpp) for mmap loading.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace cobra::graph {

void write_edge_list(const Graph& g, std::ostream& os);
void write_edge_list_file(const Graph& g, const std::string& path);

/// The "n m" first line of an edge list.
struct EdgeListHeader {
  std::uint64_t n = 0;  ///< vertex count (1 <= n <= 2^32 - 1)
  std::uint64_t m = 0;  ///< undirected edge count the header claims
};

/// Streaming edge-list scanner shared by read_edge_list and the `.cgr`
/// ingest converter: reads `is` line by line, invokes `on_header` once
/// when the "n m" line is parsed (before any edge), then `edge(u, v)`
/// once per edge line, and returns the parsed header. Every malformed
/// line — bad token, wrong field count, out-of-range endpoint, self-loop,
/// edge count mismatch — throws util::CheckError naming `context` (path
/// or stream label), the 1-based line number and the offending token. A
/// header claiming more than n(n-1)/2 edges, or a CSR larger than physical
/// memory (graph::check_csr_fits), is refused before `on_header` runs.
EdgeListHeader scan_edge_list(
    std::istream& is, const std::string& context,
    const std::function<void(const EdgeListHeader&)>& on_header,
    const std::function<void(VertexId, VertexId)>& edge);

/// Parses the format above into a Graph. Throws util::CheckError with
/// line-number context on malformed input.
Graph read_edge_list(std::istream& is, const std::string& name = "loaded");
/// As read_edge_list; errors name `path`, the graph is named by its stem.
Graph read_edge_list_file(const std::string& path);

}  // namespace cobra::graph
