#include "core/bips.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace cobra::core {

namespace {

/// The auto-engine rule: a round runs dense when
/// min(|A_t|, n - |A_t|) · avg_degree <= kDenseEdgeBudget · n — i.e. when
/// the boundary-marking pass is cheaper than the all-vertex scan — with
/// the kernel's 2x hysteresis on the way out. Unlike COBRA's density rule
/// this fires at BOTH extremes (tiny and near-full infected sets), where
/// determined outcomes dominate.
constexpr double kDenseEdgeBudget = 1.0;

}  // namespace

double bips_infection_probability(std::uint32_t d, std::uint32_t da,
                                  bool self_infected,
                                  const ProcessOptions& options) {
  COBRA_DCHECK(d >= 1 && da <= d);
  const double lazy = options.laziness;
  // One selection hits an infected vertex with probability
  //   q = lazy * [self infected] + (1 - lazy) * d_A(u)/d(u).
  const double q = lazy * (self_infected ? 1.0 : 0.0) +
                   (1.0 - lazy) * static_cast<double>(da) /
                       static_cast<double>(d);
  if (q <= 0.0) return 0.0;
  if (q >= 1.0) return 1.0;
  const Branching& b = options.branching;
  const double miss_base = std::pow(1.0 - q, static_cast<double>(b.base));
  // Number of selections is base (w.p. 1-extra) or base+1 (w.p. extra).
  const double miss = (1.0 - b.extra_prob) * miss_base +
                      b.extra_prob * miss_base * (1.0 - q);
  return 1.0 - miss;
}

FrontierKernel::Config BipsProcess::kernel_config() const {
  FrontierKernel::Config cfg;
  cfg.engine = engine_;
  cfg.laziness = options_.process.laziness;
  cfg.track_visited = false;  // A_t is not monotone
  cfg.sampler = options_.process.sampler;
  cfg.metrics = options_.process.metrics;
  cfg.kernel_threads = resolve_kernel_threads(options_.process.kernel_threads);
  return cfg;
}

BipsProcess::BipsProcess(const graph::Graph& g, graph::VertexId source,
                         BipsOptions options)
    : graph_(&g),
      options_(options),
      engine_((options_.process.validate(),
               resolve_engine(options_.process.engine))),
      kernel_(g, kernel_config()) {
  COBRA_CHECK_MSG(g.num_vertices() >= 1, "empty graph");
  COBRA_CHECK_MSG(g.min_degree() >= 1,
                  "BIPS needs every vertex to have a neighbour to select");
  source_set_.resize(g.num_vertices());
  avg_degree_ = static_cast<double>(g.degree_sum()) /
                static_cast<double>(g.num_vertices());
  reset(source);
}

void BipsProcess::reset(graph::VertexId source) {
  const graph::VertexId one[] = {source};
  reset(std::span<const graph::VertexId>(one, 1));
}

void BipsProcess::reset(std::span<const graph::VertexId> sources) {
  COBRA_CHECK(!sources.empty());
  source_set_.reset_all();
  sources_.clear();
  for (const graph::VertexId s : sources) {
    COBRA_CHECK(s < graph_->num_vertices());
    if (source_set_.set_and_test(s)) sources_.push_back(s);
  }
  std::sort(sources_.begin(), sources_.end());
  kernel_.assign(sources_);
  round_ = 0;
  infected_degree_valid_ = false;
}

std::uint64_t BipsProcess::infected_degree() const {
  if (!infected_degree_valid_) {
    std::uint64_t sum = 0;
    kernel_.for_each_in_frontier(
        [&](graph::VertexId u) { sum += graph_->degree(u); });
    infected_degree_ = sum;
    infected_degree_valid_ = true;
  }
  return infected_degree_;
}

std::uint32_t BipsProcess::step(rng::Rng& rng) {
  const std::uint64_t round_key = rng.next_u64();
  const graph::VertexId n = graph_->num_vertices();
  const std::uint32_t a = kernel_.frontier_size();
  // Dense rounds pay O(min-side edges) marking; the plain scan pays O(n·b)
  // draws. Score >= 1 <=> the boundary pass is within the edge budget.
  const double min_side_edges =
      static_cast<double>(std::min(a, n - a)) * avg_degree_;
  const double score =
      min_side_edges <= 0.0
          ? 2.0  // fully infected: the dense round is a pure word pass
          : kDenseEdgeBudget * static_cast<double>(n) /
                min_side_edges;
  if (kernel_.begin_round(score)) {
    step_dense(round_key);
  } else {
    step_sparse(round_key);
  }
  kernel_.commit(FrontierKernel::Commit::kReplace);
  ++round_;
  infected_degree_valid_ = false;
  return infected_count();
}

bool BipsProcess::catches_infection(graph::VertexId u,
                                    VertexDraws& draws) const {
  const Branching& b = options_.process.branching;
  std::uint32_t fanout = b.base;
  if (b.extra_prob > 0.0 && draws.bernoulli(b.extra_prob)) ++fanout;
  const NeighborSampler& sampler = kernel_.sampler();
  // Early exit is legal: the draws are counter-based, so skipping the
  // remaining selections cannot shift any other vertex's randomness.
  for (std::uint32_t j = 0; j < fanout; ++j)
    if (kernel_.in_frontier(sampler.sample(u, draws.next_word())))
      return true;
  return false;
}

void BipsProcess::step_sparse(std::uint64_t round_key) {
  kernel_.plain_vertex_scan(
      [&](FrontierKernel::SparseLane& lane, graph::VertexId u) {
        if (source_set_.test(u)) {
          lane.emit(u);
          return;
        }
        VertexDraws draws = lane.draws(round_key, u);
        if (catches_infection(u, draws)) lane.emit(u);
      });
}

void BipsProcess::step_dense(std::uint64_t round_key) {
  const graph::VertexId n = graph_->num_vertices();
  const bool lazy = options_.process.laziness > 0.0;
  if (scratch_.size() != n) scratch_.resize(n);
  scratch_.reset_all();
  std::uint64_t* next = kernel_.next_words();
  const std::uint32_t a = kernel_.frontier_size();

  const auto sample_marked = [&] {
    // Local-write scan: each marked vertex emits only its own bit, so the
    // lanes write disjoint next-frontier words with no scratch merge.
    kernel_.local_marked_scan(
        scratch_, [&](FrontierKernel::DenseLane& lane, graph::VertexId u) {
          if (source_set_.test(u)) return;
          VertexDraws draws = lane.draws(round_key, u);
          if (catches_infection(u, draws)) lane.emit(u);
        });
  };

  if (2ull * a <= n) {
    // Small infected side: only candidates = N(A_t) (∪ A_t with laziness)
    // can catch the infection; everyone else is determined-uninfected and
    // draws nothing.
    kernel_.scatter_frontier_scan(
        scratch_, [&](FrontierKernel::DenseLane& lane, graph::VertexId v) {
          if (lazy) lane.emit(v);
          for (const graph::VertexId w : graph_->neighbors(v)) lane.emit(w);
        });
    sample_marked();
  } else {
    // Small uninfected side: only the undetermined boundary = N(V \ A_t)
    // (∪ V \ A_t with laziness) can miss; everyone else is determined-
    // infected, installed word-parallel as the complement of the marks.
    kernel_.scatter_complement_scan(
        scratch_, [&](FrontierKernel::DenseLane& lane, graph::VertexId u) {
          if (lazy) lane.emit(u);
          for (const graph::VertexId w : graph_->neighbors(u)) lane.emit(w);
        });
    const auto& marked = scratch_.words();
    for (std::size_t w = 0; w < marked.size(); ++w) next[w] = ~marked[w];
    const std::size_t tail = static_cast<std::size_t>(n) & 63;
    if (tail != 0) next[marked.size() - 1] &= (1ull << tail) - 1;
    sample_marked();
  }
  // The persistent sources are infected whatever they drew.
  for (const graph::VertexId s : sources_) next[s >> 6] |= 1ull << (s & 63);
}

std::optional<std::uint64_t> BipsProcess::run_until_full(
    rng::Rng& rng, std::uint64_t max_rounds) {
  if (fully_infected()) return round_;
  while (round_ < max_rounds) {
    step(rng);
    if (fully_infected()) return round_;
  }
  return std::nullopt;
}

std::vector<graph::VertexId> BipsProcess::candidate_set() const {
  // C = (N(A) ∪ sources) \ B_fix with B_fix = {u : N(u) ⊆ A}.
  std::vector<graph::VertexId> candidates;
  util::DynamicBitset seen(graph_->num_vertices());
  auto consider = [&](graph::VertexId u) {
    if (!seen.set_and_test(u)) return;
    if (infected_neighbor_count(u) < graph_->degree(u))  // u not in B_fix
      candidates.push_back(u);
  };
  kernel_.for_each_in_frontier([&](graph::VertexId a) {
    for (const graph::VertexId u : graph_->neighbors(a)) consider(u);
  });
  for (const graph::VertexId s : sources_) consider(s);
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

std::uint32_t BipsProcess::fixed_count() const {
  std::uint32_t count = 0;
  for (graph::VertexId u = 0; u < graph_->num_vertices(); ++u)
    if (infected_neighbor_count(u) == graph_->degree(u)) ++count;
  return count;
}

std::uint32_t BipsProcess::infected_neighbor_count(graph::VertexId u) const {
  std::uint32_t count = 0;
  for (const graph::VertexId v : graph_->neighbors(u))
    if (kernel_.in_frontier(v)) ++count;
  return count;
}

double BipsProcess::infection_probability(graph::VertexId u) const {
  COBRA_CHECK(!is_source(u));
  return bips_infection_probability(graph_->degree(u),
                                    infected_neighbor_count(u),
                                    kernel_.in_frontier(u), options_.process);
}

}  // namespace cobra::core
