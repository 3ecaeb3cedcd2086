#include "graph/generators.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "graph/builder.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace cobra::graph {

namespace {

/// CSR of a family whose neighbour lists are known in ascending order:
/// `list(u, out)` writes u's neighbours from `out` on and returns the end.
/// No edge list and no sort; the Graph constructor still validates the
/// result.
template <typename List>
Graph direct_csr(VertexId n, std::uint64_t degree_sum, List list,
                 std::string name) {
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<VertexId> adj(degree_sum);
  VertexId* out = adj.data();
  for (VertexId u = 0; u < n; ++u) {
    out = list(u, out);
    offsets[u + 1] = static_cast<std::uint64_t>(out - adj.data());
  }
  COBRA_CHECK(offsets[n] == degree_sum);
  return Graph(std::move(offsets), std::move(adj), std::move(name));
}

}  // namespace

Graph complete(VertexId n) {
  COBRA_CHECK(n >= 2);
  return direct_csr(
      n, static_cast<std::uint64_t>(n) * (n - 1),
      [n](VertexId u, VertexId* out) {
        std::iota(out, out + u, VertexId{0});
        std::iota(out + u, out + n - 1, u + 1);
        return out + n - 1;
      },
      "complete(" + std::to_string(n) + ")");
}

Graph cycle(VertexId n) {
  COBRA_CHECK(n >= 3);
  return direct_csr(
      n, 2 * static_cast<std::uint64_t>(n),
      [n](VertexId u, VertexId* out) {
        const VertexId prev = u == 0 ? n - 1 : u - 1;
        const VertexId next = u + 1 == n ? 0 : u + 1;
        *out++ = std::min(prev, next);
        *out++ = std::max(prev, next);
        return out;
      },
      "cycle(" + std::to_string(n) + ")");
}

Graph path(VertexId n) {
  COBRA_CHECK(n >= 2);
  return direct_csr(
      n, 2 * static_cast<std::uint64_t>(n - 1),
      [n](VertexId u, VertexId* out) {
        if (u > 0) *out++ = u - 1;
        if (u + 1 < n) *out++ = u + 1;
        return out;
      },
      "path(" + std::to_string(n) + ")");
}

Graph star(VertexId n) {
  COBRA_CHECK(n >= 2);
  return direct_csr(
      n, 2 * static_cast<std::uint64_t>(n - 1),
      [n](VertexId u, VertexId* out) {
        if (u != 0) {
          *out = 0;
          return out + 1;
        }
        std::iota(out, out + n - 1, VertexId{1});
        return out + n - 1;
      },
      "star(" + std::to_string(n) + ")");
}

Graph complete_bipartite(VertexId a, VertexId b_side) {
  COBRA_CHECK(a >= 1 && b_side >= 1 && a + b_side >= 2);
  GraphBuilder b(a + b_side);
  b.reserve(static_cast<std::size_t>(a) * b_side);
  for (VertexId u = 0; u < a; ++u)
    for (VertexId v = 0; v < b_side; ++v) b.add_edge(u, a + v);
  std::ostringstream name;
  name << "complete_bipartite(" << a << "," << b_side << ")";
  return std::move(b).build(name.str());
}

Graph hypercube(std::uint32_t d) {
  COBRA_CHECK(d >= 1 && d < 31);
  const VertexId n = static_cast<VertexId>(1u) << d;
  return direct_csr(
      n, static_cast<std::uint64_t>(n) * d,
      [d](VertexId u, VertexId* out) {
        // Clearing a higher set bit gives a smaller neighbour, setting a
        // higher clear bit a larger one.
        for (std::uint32_t bit = d; bit-- > 0;)
          if ((u >> bit) & 1u) *out++ = u ^ (VertexId{1} << bit);
        for (std::uint32_t bit = 0; bit < d; ++bit)
          if (((u >> bit) & 1u) == 0) *out++ = u | (VertexId{1} << bit);
        return out;
      },
      "hypercube(" + std::to_string(d) + ")");
}

Graph grid(const std::vector<VertexId>& dims, bool torus) {
  COBRA_CHECK(!dims.empty());
  std::uint64_t n64 = 1;
  for (const VertexId s : dims) {
    COBRA_CHECK(s >= 1);
    n64 *= s;
    COBRA_CHECK_MSG(n64 <= 0xFFFFFFFFull, "grid too large for 32-bit ids");
  }
  const auto n = static_cast<VertexId>(n64);
  COBRA_CHECK(n >= 2);

  // Mixed-radix index: vertex id = sum_k coord[k] * stride[k].
  std::vector<std::uint64_t> stride(dims.size());
  stride[0] = 1;
  for (std::size_t k = 1; k < dims.size(); ++k)
    stride[k] = stride[k - 1] * dims[k - 1];

  GraphBuilder b(n, DuplicatePolicy::kDeduplicate);
  std::vector<VertexId> coord(dims.size(), 0);
  for (VertexId u = 0; u < n; ++u) {
    for (std::size_t k = 0; k < dims.size(); ++k) {
      if (dims[k] == 1) continue;
      if (coord[k] + 1 < dims[k]) {
        b.add_edge(u, u + static_cast<VertexId>(stride[k]));
      } else if (torus && dims[k] > 2) {
        // Wrap edge (side-1) -> 0; for side == 2 it would duplicate the
        // normal edge, hence the > 2 guard.
        b.add_edge(u, u - static_cast<VertexId>(stride[k] * (dims[k] - 1)));
      }
    }
    // Increment mixed-radix coordinate.
    for (std::size_t k = 0; k < dims.size(); ++k) {
      if (++coord[k] < dims[k]) break;
      coord[k] = 0;
    }
  }
  std::ostringstream name;
  name << (torus ? "torus(" : "grid(");
  for (std::size_t k = 0; k < dims.size(); ++k)
    name << (k ? "x" : "") << dims[k];
  name << ")";
  return std::move(b).build(name.str());
}

Graph torus_power(VertexId side, std::uint32_t dimension) {
  COBRA_CHECK(dimension >= 1);
  return grid(std::vector<VertexId>(dimension, side), /*torus=*/true);
}

Graph binary_tree(VertexId n) { return kary_tree(n, 2); }

Graph kary_tree(VertexId n, std::uint32_t k) {
  COBRA_CHECK(n >= 2 && k >= 2);
  GraphBuilder b(n);
  b.reserve(n - 1);
  for (VertexId v = 1; v < n; ++v) b.add_edge(v, (v - 1) / k);
  std::ostringstream name;
  name << (k == 2 ? "binary_tree(" : "kary_tree(");
  name << n;
  if (k != 2) name << ",k=" << k;
  name << ")";
  return std::move(b).build(name.str());
}

Graph barbell(VertexId k, VertexId bridge_edges) {
  COBRA_CHECK(k >= 3 && bridge_edges >= 1);
  // Vertices: [0, k) left clique, [k, k + bridge_edges - 1) path interior,
  // [k + bridge_edges - 1, 2k + bridge_edges - 1) right clique.
  const VertexId interior = bridge_edges - 1;
  const VertexId n = 2 * k + interior;
  GraphBuilder b(n);
  for (VertexId u = 0; u < k; ++u)
    for (VertexId v = u + 1; v < k; ++v) b.add_edge(u, v);
  const VertexId right0 = k + interior;
  for (VertexId u = 0; u < k; ++u)
    for (VertexId v = u + 1; v < k; ++v) b.add_edge(right0 + u, right0 + v);
  // Bridge path from left clique vertex k-1 to right clique vertex right0.
  VertexId prev = k - 1;
  for (VertexId i = 0; i < interior; ++i) {
    b.add_edge(prev, k + i);
    prev = k + i;
  }
  b.add_edge(prev, right0);
  std::ostringstream name;
  name << "barbell(" << k << ",bridge=" << bridge_edges << ")";
  return std::move(b).build(name.str());
}

Graph lollipop(VertexId k, VertexId tail) {
  COBRA_CHECK(k >= 3 && tail >= 1);
  const VertexId n = k + tail;
  GraphBuilder b(n);
  for (VertexId u = 0; u < k; ++u)
    for (VertexId v = u + 1; v < k; ++v) b.add_edge(u, v);
  VertexId prev = k - 1;
  for (VertexId i = 0; i < tail; ++i) {
    b.add_edge(prev, k + i);
    prev = k + i;
  }
  std::ostringstream name;
  name << "lollipop(" << k << ",tail=" << tail << ")";
  return std::move(b).build(name.str());
}

Graph circulant(VertexId n, const std::vector<VertexId>& offsets) {
  COBRA_CHECK(n >= 3);
  COBRA_CHECK(!offsets.empty());
  GraphBuilder b(n, DuplicatePolicy::kDeduplicate);
  for (const VertexId s : offsets) {
    COBRA_CHECK_MSG(s >= 1 && s <= n / 2, "circulant offset out of range");
    for (VertexId u = 0; u < n; ++u)
      b.add_edge(u, static_cast<VertexId>((u + s) % n));
  }
  std::ostringstream name;
  name << "circulant(" << n << ";";
  for (std::size_t i = 0; i < offsets.size(); ++i)
    name << (i ? "," : "") << offsets[i];
  name << ")";
  return std::move(b).build(name.str());
}

Graph petersen() {
  GraphBuilder b(10);
  for (VertexId i = 0; i < 5; ++i) {
    b.add_edge(i, (i + 1) % 5);            // outer pentagon
    b.add_edge(i, i + 5);                  // spokes
    b.add_edge(i + 5, 5 + (i + 2) % 5);    // inner pentagram
  }
  return std::move(b).build("petersen");
}

}  // namespace cobra::graph
