#include "graph/random_generators.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>
#include <utility>

#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "rng/splitmix64.hpp"
#include "util/assert.hpp"

namespace cobra::graph {

Graph erdos_renyi_gnp(VertexId n, double p, rng::Rng& rng) {
  COBRA_CHECK(n >= 2);
  COBRA_CHECK(p >= 0.0 && p <= 1.0);
  GraphBuilder b(n);
  std::ostringstream name;
  name << "gnp(" << n << ",p=" << p << ")";

  if (p <= 0.0) return std::move(b).build(name.str());
  if (p >= 1.0) return complete(n);

  // Enumerate pairs (u, v), u < v, as a flat index and jump geometrically:
  // between successive edges there are Geom(p)-distributed failures, so the
  // expected cost is O(n + m) instead of O(n^2).
  const double log1mp = std::log1p(-p);
  const std::uint64_t total =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  // Flat index k -> pair: row u covers (n-1-u) pairs starting at row_start.
  std::int64_t k = -1;
  VertexId u = 0;
  std::uint64_t row_start = 0;            // flat index of (u, u+1)
  std::uint64_t row_len = n - 1;          // pairs in row u
  while (true) {
    const double x = rng.uniform01();
    const double skip = std::floor(std::log1p(-x) / log1mp);
    // skip can exceed any integer range for tiny p; clamp via total.
    if (skip >= static_cast<double>(total)) break;
    k += static_cast<std::int64_t>(skip) + 1;
    const auto ku = static_cast<std::uint64_t>(k);
    if (ku >= total) break;
    while (ku >= row_start + row_len) {
      row_start += row_len;
      ++u;
      row_len = n - 1 - u;
    }
    const VertexId v = u + 1 + static_cast<VertexId>(ku - row_start);
    b.add_edge(u, v);
  }
  return std::move(b).build(name.str());
}

namespace {

/// Open-addressing set of undirected edges, keyed (u << 32) | v with
/// u < v: linear probing, backward-shift erase (so no tombstones build
/// up), sized once to at least twice the edges it will hold.
class EdgeSet {
 public:
  explicit EdgeSet(std::size_t max_edges) {
    std::size_t capacity = 16;
    while (capacity < 2 * max_edges) capacity <<= 1;
    slots_.assign(capacity, kEmpty);
    mask_ = capacity - 1;
  }

  [[nodiscard]] bool contains(VertexId u, VertexId v) const {
    return slots_[slot_of(key(u, v))] != kEmpty;
  }

  /// False when {u, v} was already present.
  bool insert(VertexId u, VertexId v) {
    const std::uint64_t k = key(u, v);
    std::uint64_t& slot = slots_[slot_of(k)];
    if (slot == k) return false;
    slot = k;
    return true;
  }

  void erase(VertexId u, VertexId v) {
    std::size_t hole = slot_of(key(u, v));
    if (slots_[hole] == kEmpty) return;
    // Pull each later key of the probe run back into the hole unless its
    // home slot lies cyclically in (hole, j].
    for (std::size_t j = (hole + 1) & mask_; slots_[j] != kEmpty;
         j = (j + 1) & mask_) {
      const std::size_t home = rng::mix64(slots_[j]) & mask_;
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = kEmpty;
  }

  /// Calls f(u, v) for every edge, u < v, in slot order.
  template <typename F>
  void for_each(F&& f) const {
    for (const std::uint64_t k : slots_)
      if (k != kEmpty)
        f(static_cast<VertexId>(k >> 32), static_cast<VertexId>(k));
  }

 private:
  // A self-loop key; self-loops are never stored.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  static std::uint64_t key(VertexId u, VertexId v) {
    COBRA_DCHECK(u != v);
    if (u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }

  [[nodiscard]] std::size_t slot_of(std::uint64_t k) const {
    std::size_t i = rng::mix64(k) & mask_;
    while (slots_[i] != kEmpty && slots_[i] != k) i = (i + 1) & mask_;
    return i;
  }

  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;
};

/// The pairing model's stubs in their unshuffled order: vertex v, r times.
void fill_stubs(VertexId n, std::uint32_t r, std::vector<VertexId>& stubs) {
  stubs.resize(static_cast<std::size_t>(n) * r);
  auto out = stubs.begin();
  for (VertexId v = 0; v < n; ++v) out = std::fill_n(out, r, v);
}

/// One pairing-model attempt: a Fisher–Yates shuffle of the n·r stubs
/// (rng::Rng::shuffle's draws), whose consecutive pairs are the edges.
/// Every attempt draws rng.below(i) for i = n·r, ..., 2 whether it fails
/// or not, so all a failed attempt tells the caller is that it failed.
/// Step i fixes position i-1, so pair (2k, 2k+1) is final once step 2k+1
/// has run: the shuffle tests each pair for a self-loop as it completes
/// (one compare) and, at the first one, stops swapping and only draws the
/// rest. Draws come in blocks of kBlock, and each block's stub lines are
/// prefetched before its swaps, so their cache misses overlap. A shuffle
/// with no self-loop builds the n×r partner table from its pairs,
/// rejecting at the first parallel edge; on success each vertex's r
/// partners sit, unsorted, in partners[v*r, (v+1)*r).
bool try_pairing(VertexId n, std::uint32_t r, rng::Rng& rng,
                 std::vector<VertexId>& stubs, std::vector<VertexId>& partners,
                 std::vector<std::uint32_t>& count) {
  constexpr std::uint64_t kBlock = 32;
  fill_stubs(n, r, stubs);
  VertexId* const s = stubs.data();
  std::uint64_t j[kBlock] = {};
  std::uint64_t i = stubs.size();  // the next draw is rng.below(i)
  bool self_loop = false;
  while (i > 1 && !self_loop) {
    const std::uint64_t block = std::min(kBlock, i - 1);
    for (std::uint64_t k = 0; k < block; ++k) {
      j[k] = rng.below(i - k);
      __builtin_prefetch(s + j[k], 1);
    }
    for (std::uint64_t k = 0; k < block && !self_loop; ++k) {
      const std::uint64_t fixed = i - 1 - k;
      std::swap(s[fixed], s[j[k]]);
      // An even position completes a pair (pair (0, 1) is tested below).
      self_loop = fixed % 2 == 0 && s[fixed] == s[fixed + 1];
    }
    i -= block;
  }
  for (; i > 1; --i) rng.below(i);  // the rest of the full shuffle's draws
  if (self_loop || s[0] == s[1]) return false;

  count.assign(n, 0);
  for (std::size_t p = 0; p < stubs.size(); p += 2) {
    const VertexId a = s[p];
    const VertexId b = s[p + 1];
    VertexId* const first = partners.data() + static_cast<std::size_t>(a) * r;
    if (std::find(first, first + count[a], b) != first + count[a])
      return false;
    first[count[a]++] = b;
    partners[static_cast<std::size_t>(b) * r + count[b]++] = a;
  }
  return true;
}

/// Pairing attempt that keeps collisions, then repairs them with random
/// edge switches: replace {(u,v) bad, (x,y) good} by {(u,x),(v,y)} when the
/// result is simple. Terminates quickly because collisions are O(r^2) in
/// expectation while good edges are ~ nr/2 — unless r is close to n-1,
/// where few switches stay simple: returns false when the guard trips.
/// On success leaves each vertex's r partners in the partner table, as
/// try_pairing does.
bool pairing_with_repair(VertexId n, std::uint32_t r, rng::Rng& rng,
                         std::vector<VertexId>& stubs,
                         std::vector<VertexId>& partners,
                         std::vector<std::uint32_t>& count) {
  fill_stubs(n, r, stubs);
  rng.shuffle(stubs.begin(), stubs.end());

  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(stubs.size() / 2);
  for (std::size_t i = 0; i < stubs.size(); i += 2)
    edges.emplace_back(stubs[i], stubs[i + 1]);

  auto canonical = [](VertexId a, VertexId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  };
  EdgeSet simple(edges.size());
  std::vector<std::size_t> bad;
  std::vector<char> is_bad(edges.size(), 0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto [u, v] = edges[i];
    if (u == v || !simple.insert(u, v)) {
      bad.push_back(i);
      is_bad[i] = 1;
    }
  }

  std::uint64_t guard = 0;
  const std::uint64_t guard_limit =
      1000 + 200 * static_cast<std::uint64_t>(bad.size() + 1) *
                 static_cast<std::uint64_t>(r + 1);
  while (!bad.empty()) {
    if (++guard >= guard_limit) return false;
    const std::size_t i = bad.back();
    const std::size_t j = static_cast<std::size_t>(rng.below(edges.size()));
    if (i == j) continue;
    // j must be a good edge: testing `simple` membership is NOT enough —
    // a duplicate bad edge's canonical form is in `simple` via its good
    // twin, and switching with it would strand that twin outside `simple`
    // (a later switch could then re-create the pair, leaving a duplicate
    // in the final edge list).
    if (is_bad[j]) continue;
    // Propose switch: (u,v),(x,y) -> (u,x),(v,y).
    const auto [u, v] = edges[i];
    const auto [x, y] = edges[j];
    const auto e1 = canonical(u, x);
    const auto e2 = canonical(v, y);
    if (e1.first == e1.second || e2.first == e2.second) continue;
    if (simple.contains(u, x) || simple.contains(v, y) || e1 == e2) continue;
    simple.erase(x, y);
    simple.insert(u, x);
    simple.insert(v, y);
    // Switched edges are stored canonically: a later switch reads their
    // orientation.
    edges[i] = e1;
    edges[j] = e2;
    is_bad[i] = 0;
    bad.pop_back();
  }

  count.assign(n, 0);
  for (const auto& [u, v] : edges) {
    partners[static_cast<std::size_t>(u) * r + count[u]++] = v;
    partners[static_cast<std::size_t>(v) * r + count[v]++] = u;
  }
  return true;
}

}  // namespace

Graph random_regular(VertexId n, std::uint32_t r, rng::Rng& rng,
                     std::uint32_t max_restarts) {
  COBRA_CHECK(n >= 2 && r >= 1 && r < n);
  COBRA_CHECK_MSG((static_cast<std::uint64_t>(n) * r) % 2 == 0,
                  "n*r must be even for an r-regular graph");
  std::ostringstream name;
  name << "random_regular(" << n << ",r=" << r << ")";

  std::vector<VertexId> stubs;
  std::vector<VertexId> partners(static_cast<std::size_t>(n) * r);
  std::vector<std::uint32_t> count;
  // Rejection keeps exact uniformity over simple pairings; success
  // probability is roughly exp(-(r^2-1)/4), so give up early for large r.
  const std::uint32_t restarts = r <= 8 ? max_restarts : max_restarts / 8 + 1;
  bool simple = false;
  for (std::uint32_t attempt = 0; attempt < restarts && !simple; ++attempt)
    simple = try_pairing(n, r, rng, stubs, partners, count);
  if (!simple && !pairing_with_repair(n, r, rng, stubs, partners, count)) {
    COBRA_CHECK_MSG(2 * static_cast<std::uint64_t>(r) > n - 1,
                    "random_regular repair failed to converge (n="
                        << n << ", r=" << r << ")");
    // The complement of a uniform (n-1-r)-regular graph is a uniform
    // r-regular graph, and at n-1-r < n/2 its repair has room to switch.
    const std::uint32_t co_r = n - 1 - r;
    const Graph sparse =
        co_r == 0 ? Graph{} : random_regular(n, co_r, rng, max_restarts);
    std::size_t k = 0;
    for (VertexId v = 0; v < n; ++v) {
      const auto skip =
          co_r == 0 ? std::span<const VertexId>{} : sparse.neighbors(v);
      auto next_skip = skip.begin();
      for (VertexId w = 0; w < n; ++w) {
        if (w == v) continue;
        if (next_skip != skip.end() && *next_skip == w) {
          ++next_skip;
          continue;
        }
        partners[k++] = w;
      }
    }
  }

  // Every vertex has exactly r partners: the partner table, each list
  // sorted, is the CSR adjacency.
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1);
  for (std::size_t v = 0; v <= n; ++v) offsets[v] = v * r;
  for (std::size_t v = 0; v < n; ++v)
    std::sort(partners.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
              partners.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
  return Graph(std::move(offsets), std::move(partners), name.str());
}

Graph watts_strogatz(VertexId n, std::uint32_t k, double beta,
                     rng::Rng& rng) {
  COBRA_CHECK(n >= 4);
  COBRA_CHECK_MSG(k >= 2 && k % 2 == 0 && k < n,
                  "watts_strogatz needs even 2 <= k < n");
  COBRA_CHECK(beta >= 0.0 && beta <= 1.0);

  // Rewiring swaps one edge for another, so the set never outgrows the
  // lattice's n·k/2 edges.
  const std::size_t num_edges = static_cast<std::size_t>(n) * (k / 2);
  EdgeSet edge_set(num_edges);
  for (VertexId u = 0; u < n; ++u)
    for (std::uint32_t s = 1; s <= k / 2; ++s)
      edge_set.insert(u, static_cast<VertexId>((u + s) % n));

  // Rewire pass (lattice order, as in the original model).
  for (VertexId u = 0; u < n; ++u) {
    for (std::uint32_t s = 1; s <= k / 2; ++s) {
      const auto v = static_cast<VertexId>((u + s) % n);
      if (!edge_set.contains(u, v)) continue;  // already rewired
      if (!rng.bernoulli(beta)) continue;
      // Try a handful of replacement endpoints; keep the edge on failure.
      for (int tries = 0; tries < 32; ++tries) {
        const auto w = static_cast<VertexId>(rng.below(n));
        if (w == u || w == v) continue;
        if (edge_set.contains(u, w)) continue;
        edge_set.erase(u, v);
        edge_set.insert(u, w);
        break;
      }
    }
  }

  GraphBuilder b(n);
  b.reserve(num_edges);
  edge_set.for_each([&](VertexId x, VertexId y) { b.add_edge(x, y); });
  std::ostringstream name;
  name << "watts_strogatz(" << n << ",k=" << k << ",beta=" << beta << ")";
  return std::move(b).build(name.str());
}

Graph barabasi_albert(VertexId n, std::uint32_t edges_per_vertex,
                      rng::Rng& rng) {
  const std::uint32_t m = edges_per_vertex;
  COBRA_CHECK(m >= 1);
  COBRA_CHECK(n >= m + 2);

  GraphBuilder b(n);
  // Endpoint multiset for degree-proportional sampling.
  std::vector<VertexId> endpoints;
  endpoints.reserve(2 * static_cast<std::size_t>(n) * m);

  // Seed: star on vertices 0..m (vertex m is the hub) keeps everything
  // connected from the start.
  for (VertexId v = 0; v < m; ++v) {
    b.add_edge(v, m);
    endpoints.push_back(v);
    endpoints.push_back(m);
  }

  std::vector<VertexId> targets;
  for (VertexId v = m + 1; v < n; ++v) {
    targets.clear();
    while (targets.size() < m) {
      const VertexId t =
          endpoints[static_cast<std::size_t>(rng.below(endpoints.size()))];
      if (std::find(targets.begin(), targets.end(), t) == targets.end())
        targets.push_back(t);
    }
    for (const VertexId t : targets) {
      b.add_edge(v, t);
      endpoints.push_back(v);
      endpoints.push_back(t);
    }
  }
  std::ostringstream name;
  name << "barabasi_albert(" << n << ",m=" << m << ")";
  return std::move(b).build(name.str());
}

Graph connected_erdos_renyi(VertexId n, double c, rng::Rng& rng,
                            std::uint32_t max_attempts) {
  COBRA_CHECK(c > 1.0);
  const double p = std::min(1.0, c * std::log(static_cast<double>(n)) /
                                     static_cast<double>(n));
  for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    Graph g = erdos_renyi_gnp(n, p, rng);
    if (is_connected(g)) return g;
  }
  COBRA_CHECK_MSG(false, "connected_erdos_renyi: no connected sample in "
                             << max_attempts << " attempts (n=" << n
                             << ", c=" << c << ")");
  return Graph{};  // unreachable
}

Graph connected_random_regular(VertexId n, std::uint32_t r, rng::Rng& rng,
                               std::uint32_t max_attempts) {
  for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    Graph g = random_regular(n, r, rng);
    if (is_connected(g)) return g;
  }
  COBRA_CHECK_MSG(false, "connected_random_regular: no connected sample in "
                             << max_attempts << " attempts (n=" << n
                             << ", r=" << r << ")");
  return Graph{};  // unreachable
}

}  // namespace cobra::graph
