#include "graph/spec.hpp"

#include <charconv>
#include <filesystem>
#include <map>
#include <utility>

#include "graph/binary_io.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/random_generators.hpp"
#include "graph/storage.hpp"
#include "rng/stream.hpp"
#include "util/annotations.hpp"
#include "util/assert.hpp"
#include "util/metrics.hpp"

namespace cobra::graph {

namespace {

constexpr const char* kGrammar =
    "complete_N | cycle_N | path_N | star_N | hypercube_D | torus_S_dD | "
    "regular_N_rR | petersen | file:PATH";

// Fixed generator-stream salt for random families: spec-built instances
// depend only on the spec parameters, never on COBRA_SEED, so a graph
// pre-baked to disk with `cobra graph gen` is the same graph every run.
constexpr std::uint64_t kSpecStreamSalt = 0xC06AA5BEC57A11Eull;

std::uint64_t parse_number(std::string_view token, const std::string& spec) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  COBRA_CHECK_MSG(ec == std::errc() && ptr == token.data() + token.size() &&
                      !token.empty(),
                  "bad graph spec '" << spec << "': '" << token
                                     << "' is not a number (grammar: "
                                     << kGrammar << ")");
  return value;
}

std::vector<std::string_view> split_underscores(std::string_view body) {
  std::vector<std::string_view> parts;
  std::size_t pos = 0;
  while (pos <= body.size()) {
    const std::size_t next = body.find('_', pos);
    if (next == std::string_view::npos) {
      parts.push_back(body.substr(pos));
      break;
    }
    parts.push_back(body.substr(pos, next - pos));
    pos = next + 1;
  }
  return parts;
}

// One parse for both uses: `build = false` only validates the grammar and
// parameter ranges (cell enumeration must stay cheap), `build = true`
// additionally constructs the graph. Returns an empty Graph in validate
// mode.
Graph parse_synthetic(const std::string& spec, bool build) {
  const auto parts = split_underscores(spec);
  const std::string_view family = parts[0];
  const auto arity = parts.size();
  const std::string label = "graph spec '" + spec + "'";

  if (family == "petersen" && arity == 1)
    return build ? petersen() : Graph{};

  if (family == "complete" && arity == 2) {
    const std::uint64_t n = parse_number(parts[1], spec);
    COBRA_CHECK_MSG(n >= 2 && n <= 200000,
                    "graph spec '" << spec << "': complete_N needs "
                                   << "2 <= N <= 200000");
    check_csr_fits(label, static_cast<double>(n),
                   static_cast<double>(n) * static_cast<double>(n - 1) / 2);
    return build ? complete(static_cast<VertexId>(n)) : Graph{};
  }
  if (family == "cycle" && arity == 2) {
    const std::uint64_t n = parse_number(parts[1], spec);
    COBRA_CHECK_MSG(n >= 3 && n <= 0xFFFFFFFEull,
                    "graph spec '" << spec << "': cycle_N needs N >= 3");
    check_csr_fits(label, static_cast<double>(n), static_cast<double>(n));
    return build ? cycle(static_cast<VertexId>(n)) : Graph{};
  }
  if (family == "path" && arity == 2) {
    const std::uint64_t n = parse_number(parts[1], spec);
    COBRA_CHECK_MSG(n >= 2 && n <= 0xFFFFFFFEull,
                    "graph spec '" << spec << "': path_N needs N >= 2");
    check_csr_fits(label, static_cast<double>(n), static_cast<double>(n - 1));
    return build ? path(static_cast<VertexId>(n)) : Graph{};
  }
  if (family == "star" && arity == 2) {
    const std::uint64_t n = parse_number(parts[1], spec);
    COBRA_CHECK_MSG(n >= 2 && n <= 0xFFFFFFFEull,
                    "graph spec '" << spec << "': star_N needs N >= 2");
    check_csr_fits(label, static_cast<double>(n), static_cast<double>(n - 1));
    return build ? star(static_cast<VertexId>(n)) : Graph{};
  }
  if (family == "hypercube" && arity == 2) {
    const std::uint64_t d = parse_number(parts[1], spec);
    COBRA_CHECK_MSG(d >= 1 && d <= 30,
                    "graph spec '" << spec << "': hypercube_D needs "
                                   << "1 <= D <= 30");
    const double cube = static_cast<double>(std::uint64_t{1} << d);
    check_csr_fits(label, cube, static_cast<double>(d) * cube / 2);
    return build ? hypercube(static_cast<std::uint32_t>(d)) : Graph{};
  }
  if (family == "torus" && arity == 3 && parts[2].size() >= 2 &&
      parts[2][0] == 'd') {
    const std::uint64_t side = parse_number(parts[1], spec);
    const std::uint64_t dim = parse_number(parts[2].substr(1), spec);
    COBRA_CHECK_MSG(side >= 3 && dim >= 1 && dim <= 6,
                    "graph spec '" << spec << "': torus_S_dD needs "
                                   << "S >= 3 and 1 <= D <= 6");
    // S >= 3: every vertex has 2D distinct neighbours.
    double cells = 1.0;
    for (std::uint64_t i = 0; i < dim; ++i) cells *= static_cast<double>(side);
    check_csr_fits(label, cells, static_cast<double>(dim) * cells);
    return build ? torus_power(static_cast<VertexId>(side),
                               static_cast<std::uint32_t>(dim))
                 : Graph{};
  }
  if (family == "regular" && arity == 3 && parts[2].size() >= 2 &&
      parts[2][0] == 'r') {
    const std::uint64_t n = parse_number(parts[1], spec);
    const std::uint64_t r = parse_number(parts[2].substr(1), spec);
    COBRA_CHECK_MSG(n >= 4 && n <= 0xFFFFFFFEull && r >= 3 && r < n &&
                        (n * r) % 2 == 0,
                    "graph spec '" << spec << "': regular_N_rR needs "
                                   << "N >= 4, 3 <= R < N, N*R even");
    check_csr_fits(label, static_cast<double>(n),
                   static_cast<double>(n) * static_cast<double>(r) / 2);
    if (!build) return Graph{};
    rng::Rng grng =
        rng::make_stream(rng::derive_seed(kSpecStreamSalt, n), r);
    return connected_random_regular(static_cast<VertexId>(n),
                                    static_cast<std::uint32_t>(r), grng);
  }
  COBRA_CHECK_MSG(false, "bad graph spec '" << spec << "' (grammar: "
                                            << kGrammar << ")");
  __builtin_unreachable();
}

bool is_cgr_path(const std::string& path) {
  return std::filesystem::path(path).extension() == ".cgr";
}

struct GraphCache {
  util::Mutex mu;
  std::map<std::string, std::shared_ptr<const Graph>> by_spec
      COBRA_GUARDED_BY(mu);
  std::map<std::uint64_t, std::shared_ptr<const Graph>> by_fingerprint
      COBRA_GUARDED_BY(mu);
  GraphCacheStats stats COBRA_GUARDED_BY(mu);
};

GraphCache& cache() {
  static GraphCache& c = *new GraphCache;  // leaked: process-lifetime
  return c;
}

// Registry mirror of the cache counters (telemetry sidecars; stats above
// stay authoritative for graph_cache_stats()).
struct GraphCacheIds {
  util::MetricId hits;
  util::MetricId misses;
  util::MetricId fingerprint_dedups;
};

const GraphCacheIds& graph_cache_ids() {
  static const GraphCacheIds ids = [] {
    util::MetricsRegistry& reg = util::MetricsRegistry::instance();
    return GraphCacheIds{reg.counter("graph.cache_hits"),
                         reg.counter("graph.cache_misses"),
                         reg.counter("graph.cache_fingerprint_dedups")};
  }();
  return ids;
}

}  // namespace

bool is_file_spec(const std::string& spec) {
  return spec.rfind("file:", 0) == 0;
}

Graph build_graph_spec(const std::string& spec) {
  if (is_file_spec(spec)) {
    const std::string path = spec.substr(5);
    COBRA_CHECK_MSG(!path.empty(),
                    "bad graph spec '" << spec << "': empty file path");
    if (is_cgr_path(path)) return load_cgr_file(path, CgrLoadMode::kMapped);
    return read_edge_list_file(path);
  }
  Graph g = parse_synthetic(spec, /*build=*/true);
  // The canonical spec string is the label everywhere (cells, CSVs, cache
  // keys); pre-baking with `cobra graph gen` persists the same label.
  g.set_name(spec);
  return g;
}

std::string graph_spec_label(const std::string& spec) {
  if (!is_file_spec(spec)) {
    // Validate eagerly so enumeration rejects typos, not cell bodies.
    (void)parse_synthetic(spec, /*build=*/false);
    return spec;
  }
  const std::string path = spec.substr(5);
  COBRA_CHECK_MSG(!path.empty(),
                  "bad graph spec '" << spec << "': empty file path");
  if (is_cgr_path(path)) return read_cgr_header(path).name;
  return std::filesystem::path(path).stem().string();
}

std::shared_ptr<const Graph> shared_graph(const std::string& spec) {
  GraphCache& c = cache();
  {
    util::MutexLock lock(c.mu);
    const auto it = c.by_spec.find(spec);
    if (it != c.by_spec.end()) {
      ++c.stats.hits;
      util::count_if_collecting(graph_cache_ids().hits);
      return it->second;
    }
  }
  // Build outside the lock (generation can take seconds); a concurrent
  // duplicate build is benign — first insert wins below.
  auto built = std::make_shared<const Graph>(build_graph_spec(spec));
  const std::uint64_t fp = built->fingerprint();

  util::MutexLock lock(c.mu);
  if (const auto it = c.by_spec.find(spec); it != c.by_spec.end()) {
    ++c.stats.hits;
    util::count_if_collecting(graph_cache_ids().hits);
    return it->second;
  }
  ++c.stats.misses;
  util::count_if_collecting(graph_cache_ids().misses);
  std::shared_ptr<const Graph> resolved = built;
  if (const auto fit = c.by_fingerprint.find(fp);
      fit != c.by_fingerprint.end()) {
    // Structurally identical to a graph we already hold (e.g. `file:` of
    // a pre-baked family): share the existing instance and its caches.
    resolved = fit->second;
    ++c.stats.fingerprint_dedups;
    util::count_if_collecting(graph_cache_ids().fingerprint_dedups);
  } else {
    c.by_fingerprint.emplace(fp, resolved);
  }
  c.by_spec.emplace(spec, resolved);
  return resolved;
}

GraphCacheStats graph_cache_stats() {
  GraphCache& c = cache();
  util::MutexLock lock(c.mu);
  return c.stats;
}

void clear_graph_cache() {
  GraphCache& c = cache();
  util::MutexLock lock(c.mu);
  c.by_spec.clear();
  c.by_fingerprint.clear();
  c.stats = GraphCacheStats{};
}

std::vector<std::string> split_graph_specs(const std::string& list) {
  std::vector<std::string> specs;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t next = list.find(',', pos);
    if (next == std::string::npos) next = list.size();
    std::string item = list.substr(pos, next - pos);
    const auto first = item.find_first_not_of(" \t");
    const auto last = item.find_last_not_of(" \t");
    if (first != std::string::npos)
      specs.push_back(item.substr(first, last - first + 1));
    pos = next + 1;
  }
  return specs;
}

}  // namespace cobra::graph
