// GraphBuilder: accumulates undirected edges, then produces a validated CSR
// Graph. Self-loops are rejected; parallel edges are either rejected or
// silently deduplicated depending on policy (generators that may emit the
// same edge twice, e.g. circulant offsets with s = n/2, use kDeduplicate).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace cobra::graph {

enum class DuplicatePolicy {
  kReject,       // duplicate edge is a logic error (default)
  kDeduplicate,  // keep one copy silently
};

/// The CSR finisher shared by GraphBuilder::build and the edge-list
/// ingest: sorts every adjacency list of a symmetric CSR whose lists were
/// filled in any order, then applies `policy` to parallel edges.
/// kDeduplicate drops the repeats, compacting `adj` and rewriting
/// `offsets`. kReject stops at the first list holding a repeat and returns
/// that pair {u, v}, u < v — the lexicographically first duplicate edge.
/// Returns nullopt when the lists are duplicate-free.
std::optional<std::pair<VertexId, VertexId>> finish_csr(
    std::vector<std::uint64_t>& offsets, std::vector<VertexId>& adj,
    DuplicatePolicy policy);

class GraphBuilder {
 public:
  explicit GraphBuilder(VertexId num_vertices,
                        DuplicatePolicy policy = DuplicatePolicy::kReject);

  /// Adds undirected edge {u, v}; u != v, both < n.
  void add_edge(VertexId u, VertexId v);

  void reserve(std::size_t num_edges);

  [[nodiscard]] std::size_t num_edges_added() const { return edges_.size(); }

  /// Counts degrees, scatters each edge into both lists, then finishes the
  /// lists with finish_csr and emits the Graph. The builder is consumed.
  Graph build(std::string name = "") &&;

 private:
  VertexId n_;
  DuplicatePolicy policy_;
  std::vector<std::pair<VertexId, VertexId>> edges_;  // canonical u < v
};

}  // namespace cobra::graph
