#include "spectral/spectral.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numbers>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>

#include "rng/splitmix64.hpp"
#include "rng/stream.hpp"
#include "spectral/dense.hpp"
#include "spectral/lanczos.hpp"
#include "util/annotations.hpp"
#include "util/assert.hpp"
#include "util/metrics.hpp"

namespace cobra::spectral {

SpectralInfo compute_lambda(const graph::Graph& g, std::uint64_t seed,
                            graph::VertexId dense_threshold) {
  SpectralInfo info;
  const graph::VertexId n = g.num_vertices();
  COBRA_CHECK(n >= 2);
  if (n <= dense_threshold) {
    const auto spectrum = walk_spectrum_dense(g);  // ascending
    const double mu2 = spectrum[spectrum.size() - 2];
    const double mu_min = spectrum.front();
    info.lambda = std::max(std::fabs(mu2), std::fabs(mu_min));
    info.exact = true;
  } else {
    rng::Rng rng = rng::make_stream(seed, /*stream_id=*/0x5eed);
    const LanczosResult lz = lanczos_extremes(g, rng);
    info.lambda = lz.lambda;
    info.lambda_err = lz.lambda_err;
    info.steps = lz.steps;
    info.exact = false;
  }
  info.lambda = std::min(1.0, std::max(0.0, info.lambda));
  info.gap = 1.0 - info.lambda;
  return info;
}

namespace {

// Process-wide spectrum cache. Guarded by a mutex: cells run sequentially,
// but examples and future drivers may solve from worker threads.
struct SpectralCache {
  util::Mutex mutex;
  std::unordered_map<std::uint64_t, SpectralInfo> entries
      COBRA_GUARDED_BY(mutex);
  std::size_t hits COBRA_GUARDED_BY(mutex) = 0;
  std::size_t misses COBRA_GUARDED_BY(mutex) = 0;
};

SpectralCache& spectral_cache() {
  static SpectralCache cache;
  return cache;
}

// Registry mirror of the cache counters (telemetry sidecars; the struct
// stats above stay authoritative for the introspection API).
util::MetricId spectral_metric(const char* which) {
  return util::MetricsRegistry::instance().counter(which);
}

util::MetricId spectral_hit_id() {
  static const util::MetricId id = spectral_metric("spectral.cache_hits");
  return id;
}

util::MetricId spectral_miss_id() {
  static const util::MetricId id = spectral_metric("spectral.cache_misses");
  return id;
}

}  // namespace

SpectralInfo compute_lambda_cached(const graph::Graph& g, std::uint64_t seed,
                                   graph::VertexId dense_threshold) {
  const std::uint64_t key =
      rng::mix64(g.fingerprint() ^ rng::mix64(seed) ^
                 rng::mix64(0x5BEC7247ull + dense_threshold));
  SpectralCache& cache = spectral_cache();
  {
    const util::MutexLock lock(cache.mutex);
    const auto it = cache.entries.find(key);
    if (it != cache.entries.end()) {
      ++cache.hits;
      util::count_if_collecting(spectral_hit_id());
      return it->second;
    }
  }
  // Solve outside the lock: spectra of large graphs take seconds, and two
  // threads racing on the same key at worst duplicate one solve.
  const SpectralInfo info = compute_lambda(g, seed, dense_threshold);
  {
    const util::MutexLock lock(cache.mutex);
    ++cache.misses;
    cache.entries.emplace(key, info);
  }
  util::count_if_collecting(spectral_miss_id());
  return info;
}

SpectralCacheStats spectral_cache_stats() {
  SpectralCache& cache = spectral_cache();
  const util::MutexLock lock(cache.mutex);
  return SpectralCacheStats{cache.hits, cache.misses, cache.entries.size()};
}

void clear_spectral_cache() {
  SpectralCache& cache = spectral_cache();
  const util::MutexLock lock(cache.mutex);
  cache.entries.clear();
  cache.hits = 0;
  cache.misses = 0;
}

double lambda_complete(graph::VertexId n) {
  COBRA_CHECK(n >= 2);
  return 1.0 / static_cast<double>(n - 1);
}

double lambda_cycle(graph::VertexId n) {
  COBRA_CHECK(n >= 3);
  if (n % 2 == 0) return 1.0;  // bipartite: mu_min = -1
  return std::cos(std::numbers::pi / static_cast<double>(n));
}

double lambda2_cycle(graph::VertexId n) {
  COBRA_CHECK(n >= 3);
  return std::cos(2.0 * std::numbers::pi / static_cast<double>(n));
}

double lambda_hypercube(std::uint32_t d) {
  COBRA_CHECK(d >= 1);
  return 1.0;  // bipartite
}

double lambda2_hypercube(std::uint32_t d) {
  COBRA_CHECK(d >= 1);
  return 1.0 - 2.0 / static_cast<double>(d);
}

double lambda_lazy_hypercube(std::uint32_t d) {
  COBRA_CHECK(d >= 1);
  return 1.0 - 1.0 / static_cast<double>(d);
}

double lambda_complete_bipartite() { return 1.0; }

double lambda_path(graph::VertexId n) {
  COBRA_CHECK(n >= 2);
  return 1.0;  // bipartite
}

double lambda2_path(graph::VertexId n) {
  COBRA_CHECK(n >= 2);
  // Normalised adjacency of P_n has eigenvalues cos(k pi/(n-1)), k=0..n-1.
  return std::cos(std::numbers::pi / static_cast<double>(n - 1));
}

double lambda2_torus(graph::VertexId side, std::uint32_t dim) {
  COBRA_CHECK(side >= 3 && dim >= 1);
  // Walk eigenvalues are averages of per-axis cycle eigenvalues:
  // mu = (1/D) sum_j cos(2 pi k_j / side); the second largest takes one
  // k_j = 1 and the rest 0.
  const double c = std::cos(2.0 * std::numbers::pi / static_cast<double>(side));
  const double d = static_cast<double>(dim);
  return ((d - 1.0) + c) / d;
}

double lambda_torus(graph::VertexId side, std::uint32_t dim) {
  COBRA_CHECK(side >= 3 && dim >= 1);
  if (side % 2 == 0) return 1.0;  // bipartite: mu_min = -1
  // mu_min takes k_j = (side - 1)/2 on every axis: -cos(pi/side). Up to
  // three dimensions it beats mu_2 in absolute value; from four on, mu_2
  // is larger.
  return std::max(lambda2_torus(side, dim),
                  std::cos(std::numbers::pi / static_cast<double>(side)));
}

double lambda_petersen() { return 2.0 / 3.0; }

namespace {

// (side, dim) of a "torus(SxSx...xS)" name with one side >= 3 on every
// axis, as torus_power names it; nullopt for any other shape.
std::optional<std::pair<graph::VertexId, std::uint32_t>> torus_shape(
    const std::string& name) {
  if (name.rfind("torus(", 0) != 0 || name.back() != ')') return std::nullopt;
  std::istringstream in(name.substr(6, name.size() - 7));
  graph::VertexId side = 0;
  std::uint32_t dim = 0;
  std::string part;
  while (std::getline(in, part, 'x')) {
    graph::VertexId s = 0;
    const auto [end, ec] =
        std::from_chars(part.data(), part.data() + part.size(), s);
    if (ec != std::errc() || end != part.data() + part.size() || s < 3 ||
        (dim > 0 && s != side))
      return std::nullopt;
    side = s;
    ++dim;
  }
  if (dim == 0) return std::nullopt;
  return std::make_pair(side, dim);
}

}  // namespace

std::optional<double> theory_lambda(const graph::Graph& g) {
  const std::string& name = g.name();
  const graph::VertexId n = g.num_vertices();
  auto starts_with = [&](const char* prefix) {
    return name.rfind(prefix, 0) == 0;
  };
  if (starts_with("complete_bipartite(")) return lambda_complete_bipartite();
  if (starts_with("complete(")) return lambda_complete(n);
  if (starts_with("cycle(")) return lambda_cycle(n);
  if (starts_with("path(")) return lambda_path(n);
  if (starts_with("star(")) return 1.0;  // K_{1,n-1} is complete bipartite
  if (starts_with("hypercube(")) return lambda_hypercube(1);
  if (name == "petersen") return lambda_petersen();
  if (const auto torus = torus_shape(name))
    return lambda_torus(torus->first, torus->second);
  return std::nullopt;
}

double gap_condition_margin(double lambda, graph::VertexId n) {
  COBRA_CHECK(n >= 2);
  const double threshold =
      std::sqrt(std::log(static_cast<double>(n)) / static_cast<double>(n));
  return (1.0 - lambda) / threshold;
}

}  // namespace cobra::spectral
