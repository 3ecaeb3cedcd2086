#include "graph/builder.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace cobra::graph {

std::optional<std::pair<VertexId, VertexId>> finish_csr(
    std::vector<std::uint64_t>& offsets, std::vector<VertexId>& adj,
    DuplicatePolicy policy) {
  const std::size_t n = offsets.size() - 1;
  std::uint64_t lo = 0;   // old start of list u
  std::uint64_t out = 0;  // compacted start of list u
  for (std::size_t u = 0; u < n; ++u) {
    const std::uint64_t hi = offsets[u + 1];
    const auto first = adj.begin() + static_cast<std::ptrdiff_t>(lo);
    const auto last = adj.begin() + static_cast<std::ptrdiff_t>(hi);
    std::sort(first, last);
    if (policy == DuplicatePolicy::kReject) {
      // Every edge sits in both of its lists, so the first list with a
      // repeat is that of the smaller endpoint, and its first repeat is
      // the smallest partner.
      const auto dup = std::adjacent_find(first, last);
      if (dup != last) return std::make_pair(static_cast<VertexId>(u), *dup);
    } else {
      const auto unique_end = std::unique(first, last);
      offsets[u] = out;
      if (out != lo)
        std::move(first, unique_end,
                  adj.begin() + static_cast<std::ptrdiff_t>(out));
      out += static_cast<std::uint64_t>(unique_end - first);
    }
    lo = hi;
  }
  if (policy == DuplicatePolicy::kDeduplicate) {
    offsets[n] = out;
    adj.resize(out);
  }
  return std::nullopt;
}

GraphBuilder::GraphBuilder(VertexId num_vertices, DuplicatePolicy policy)
    : n_(num_vertices), policy_(policy) {}

void GraphBuilder::add_edge(VertexId u, VertexId v) {
  COBRA_CHECK_MSG(u < n_ && v < n_, "edge endpoint out of range");
  COBRA_CHECK_MSG(u != v, "self-loops are not allowed in simple graphs");
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
}

void GraphBuilder::reserve(std::size_t num_edges) {
  edges_.reserve(num_edges);
}

Graph GraphBuilder::build(std::string name) && {
  // offsets[u + 1] counts u's degree, then the prefix sum turns offsets[u]
  // into u's start; filling advances offsets[u] to u's end, and one shift
  // restores the starts.
  const std::size_t n = n_;
  std::vector<std::uint64_t> offsets(n + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];
  std::vector<VertexId> adj(edges_.size() * 2);
  for (const auto& [u, v] : edges_) {
    adj[offsets[u]++] = v;
    adj[offsets[v]++] = u;
  }
  for (std::size_t i = n; i > 0; --i) offsets[i] = offsets[i - 1];
  offsets[0] = 0;
  edges_ = {};

  const auto dup = finish_csr(offsets, adj, policy_);
  COBRA_CHECK_MSG(!dup.has_value(), "duplicate edge {" << dup->first << ","
                                                       << dup->second << "}");
  return Graph(std::move(offsets), std::move(adj), std::move(name));
}

}  // namespace cobra::graph
