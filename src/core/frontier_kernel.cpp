#include "core/frontier_kernel.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"
#include "util/env.hpp"

namespace cobra::core {

NeighborSampler::NeighborSampler(const graph::Graph& g, double laziness)
    : graph_(&g), laziness_(laziness) {
  COBRA_CHECK(g.num_vertices() >= 1);
  COBRA_CHECK(laziness >= 0.0 && laziness < 1.0);
  if (laziness_ == 0.0) return;  // plain pushes: sample() needs no table

  bucket_of_degree_.assign(g.max_degree() + 1, 0u);
  std::vector<bool> seen(g.max_degree() + 1, false);
  for (graph::VertexId u = 0; u < g.num_vertices(); ++u)
    seen[g.degree(u)] = true;

  for (std::uint32_t d = 0; d <= g.max_degree(); ++d) {
    if (!seen[d]) continue;
    bucket_of_degree_[d] = static_cast<std::uint32_t>(tables_.size());
    std::vector<double> weights;
    if (d == 0) {
      // Single-vertex graph: the only "destination" is staying put.
      weights.assign(1, 1.0);
    } else {
      weights.assign(d, (1.0 - laziness_) / static_cast<double>(d));
      weights.push_back(laziness_);
    }
    tables_.emplace_back(weights);
  }
}

const char* engine_name(Engine engine) {
  switch (engine) {
    case Engine::kDefault: return "default";
    case Engine::kSparse: return "sparse";
    case Engine::kDense: return "dense";
    case Engine::kAuto: return "auto";
  }
  return "invalid";
}

std::optional<Engine> parse_engine(std::string_view name) {
  if (name == "sparse") return Engine::kSparse;
  if (name == "dense") return Engine::kDense;
  if (name == "auto") return Engine::kAuto;
  return std::nullopt;
}

Engine resolve_engine(Engine engine) {
  return engine == Engine::kDefault ? Engine::kAuto : engine;
}

int resolve_kernel_threads(int kernel_threads) {
  if (kernel_threads == 0) return util::kernel_threads();
  return std::clamp(kernel_threads, 1, 256);
}

std::vector<WordRange> partition_word_ranges(std::size_t words, int lanes) {
  std::vector<WordRange> ranges;
  if (words == 0 || lanes <= 0) return ranges;
  const std::size_t count =
      std::min(words, static_cast<std::size_t>(lanes));
  ranges.reserve(count);
  const std::size_t base = words / count;
  const std::size_t extra = words % count;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t size = base + (i < extra ? 1 : 0);
    ranges.push_back(WordRange{begin, begin + size});
    begin += size;
  }
  return ranges;
}

FrontierKernel::FrontierKernel(const graph::Graph& g, const Config& config)
    : graph_(&g),
      engine_(config.engine),
      track_visited_(config.track_visited),
      threads_(std::clamp(config.kernel_threads, 1, 256)),
      avg_degree_(g.degree_sum() / g.num_vertices()),
      metrics_(config.metrics != nullptr ? config.metrics
                                         : session_step_metrics()) {
  COBRA_CHECK_MSG(engine_ != Engine::kDefault,
                  "FrontierKernel needs a resolved engine "
                  "(run core::resolve_engine first)");
  COBRA_CHECK(g.num_vertices() >= 1);
  if (config.sampler) {
    COBRA_CHECK_MSG(&config.sampler->graph() == graph_ &&
                        config.sampler->laziness() == config.laziness,
                    "shared NeighborSampler must match the process's graph "
                    "and laziness");
    sampler_ = config.sampler;
  } else if (config.build_sampler) {
    sampler_ = std::make_shared<const NeighborSampler>(g, config.laziness);
  }
  stamp_.assign(g.num_vertices(), 0);
  if (track_visited_) visited_.resize(g.num_vertices());
}

void FrontierKernel::assign(std::span<const graph::VertexId> starts) {
  COBRA_CHECK(!starts.empty());
  ++epoch_;
  active_.clear();
  if (track_visited_) visited_.reset_all();
  visited_count_ = 0;
  dense_repr_ = false;
  active_valid_ = true;
  dense_rounds_ = 0;
  rounds_committed_ = 0;
  for (const graph::VertexId u : starts) {
    COBRA_CHECK(u < graph_->num_vertices());
    if (stamp_[u] == epoch_) continue;  // deduplicate
    stamp_[u] = epoch_;
    active_.push_back(u);
    if (track_visited_ && visited_.set_and_test(u)) ++visited_count_;
  }
  num_active_ = static_cast<std::uint32_t>(active_.size());
  if (engine_ == Engine::kDense) {
    ensure_bitsets();
    frontier_.reset_all();
    for (const graph::VertexId u : active_) frontier_.set(u);
  }
}

const std::vector<graph::VertexId>& FrontierKernel::frontier_vector() const {
  if (!active_valid_) materialize_active();
  return active_;
}

void FrontierKernel::materialize_active() const {
  active_.clear();
  frontier_.for_each_set([this](std::size_t u) {
    active_.push_back(static_cast<graph::VertexId>(u));
  });
  active_valid_ = true;
}

void FrontierKernel::to_sparse_repr() {
  if (!active_valid_) materialize_active();
  ++epoch_;
  for (const graph::VertexId u : active_) stamp_[u] = epoch_;
  dense_repr_ = false;
}

void FrontierKernel::ensure_bitsets() {
  if (frontier_.size() != graph_->num_vertices()) {
    frontier_.resize(graph_->num_vertices());
    next_frontier_.resize(graph_->num_vertices());
  }
}

void FrontierKernel::ensure_lane_scratch(std::size_t count) {
  if (lane_scratch_.size() < count) lane_scratch_.resize(count);
  for (util::DynamicBitset& scratch : lane_scratch_)
    if (scratch.size() != graph_->num_vertices())
      scratch.resize(graph_->num_vertices());
}

void FrontierKernel::merge_visited_parallel(std::size_t words,
                                            std::uint64_t* newly,
                                            std::uint64_t* active) {
  const std::uint64_t* next = next_frontier_.words().data();
  std::uint64_t* visited = visited_.data();
  const std::size_t lanes =
      lane_count(words, threads_, Pass::kCommit, avg_degree_);
  if (lanes <= 1) {
    util::simd::merge_visited_words(next, visited, words, newly, active);
    return;
  }
  // lane_sums_ holds lane i's first visits at 2i and its active count at
  // 2i + 1; sized once, so the parallel commit allocates nothing.
  if (lane_sums_.size() < 2 * lanes) lane_sums_.resize(2 * lanes);
  fork_join(lanes, [&](std::size_t i) {
    const WordRange r = word_range(words, lanes, i);
    lane_sums_[2 * i] = 0;
    lane_sums_[2 * i + 1] = 0;
    util::simd::merge_visited_words(next + r.begin, visited + r.begin,
                                    r.end - r.begin, &lane_sums_[2 * i],
                                    &lane_sums_[2 * i + 1]);
  });
  for (std::size_t i = 0; i < lanes; ++i) {
    *newly += lane_sums_[2 * i];
    *active += lane_sums_[2 * i + 1];
  }
}

std::uint64_t FrontierKernel::or_count_parallel(std::uint64_t* dst_words,
                                                std::size_t words) {
  const std::uint64_t* next = next_frontier_.words().data();
  const std::size_t lanes =
      lane_count(words, threads_, Pass::kCommit, avg_degree_);
  if (lanes <= 1) return util::simd::or_count_new_words(next, dst_words, words);
  if (lane_sums_.size() < lanes) lane_sums_.resize(lanes);
  fork_join(lanes, [&](std::size_t i) {
    const WordRange r = word_range(words, lanes, i);
    lane_sums_[i] = util::simd::or_count_new_words(
        next + r.begin, dst_words + r.begin, r.end - r.begin);
  });
  std::uint64_t added = 0;
  for (std::size_t i = 0; i < lanes; ++i) added += lane_sums_[i];
  return added;
}

double FrontierKernel::density_score(std::uint32_t count) const {
  const double threshold =
      kDenseDensity * static_cast<double>(graph_->num_vertices());
  return static_cast<double>(count) / threshold;
}

bool FrontierKernel::begin_round(double score) {
  bool dense = engine_ == Engine::kDense;
  if (engine_ == Engine::kAuto)
    dense = score >= (dense_repr_ ? 0.5 : 1.0);
  if (metrics_ != nullptr && dense != dense_repr_ && rounds_committed_ > 0)
    ++metrics_->mode_switches;
  round_dense_ = dense;
  round_stamped_ = false;
  round_newly_ = 0;
  if (dense) {
    ensure_bitsets();
    next_frontier_.reset_all();
  } else {
    if (dense_repr_) to_sparse_repr();
    next_.clear();
  }
  return dense;
}

void FrontierKernel::record_commit(std::uint32_t newly) {
  StepMetrics& m = *metrics_;
  ++m.rounds;
  m.rounds_dense += round_dense_ ? 1 : 0;
  m.frontier_sum += num_active_;
  m.frontier_peak = std::max<std::uint64_t>(m.frontier_peak, num_active_);
  m.first_visits += newly;
  ++m.frontier_hist[std::bit_width(static_cast<std::uint64_t>(num_active_))];
  if (m.record_rounds)
    m.note_round(static_cast<std::size_t>(rounds_committed_), num_active_,
                 newly, round_dense_);
}

std::uint32_t FrontierKernel::commit(Commit policy) {
  if (round_dense_) {
    // Branch-free word-parallel pass: merge the next frontier into the
    // visited set, count first visits and the new frontier size via
    // popcount — SIMD within word ranges, fanned out over the lanes
    // for big bitsets.
    std::uint32_t newly = 0;
    std::uint32_t active_count = 0;
    const auto& next_words = next_frontier_.words();
    if (track_visited_) {
      std::uint64_t newly64 = 0;
      std::uint64_t active64 = 0;
      merge_visited_parallel(next_words.size(), &newly64, &active64);
      newly = static_cast<std::uint32_t>(newly64);
      active_count = static_cast<std::uint32_t>(active64);
    } else {
      active_count = static_cast<std::uint32_t>(
          util::simd::popcount_words(next_words.data(), next_words.size()));
    }
    if (policy == Commit::kReplace) {
      std::swap(frontier_, next_frontier_);
      num_active_ = active_count;
    } else {
      // A dense accumulate round entered from the sparse representation
      // must first materialise the current set into the bitset.
      if (!dense_repr_) {
        frontier_.reset_all();
        for (const graph::VertexId u : active_) frontier_.set(u);
      }
      num_active_ += static_cast<std::uint32_t>(
          or_count_parallel(frontier_.data(), next_words.size()));
    }
    dense_repr_ = true;
    active_valid_ = false;
    visited_count_ += newly;
    ++dense_rounds_;
    if (metrics_ != nullptr) {
      metrics_->merged_words += next_words.size();
      record_commit(newly);
    }
    ++rounds_committed_;
    return newly;
  }

  // Sparse round.
  if (policy == Commit::kReplace) {
    ++epoch_;
    // A coalescing SinkLane already stamped next_ with the new epoch;
    // other rounds leave stamping to the commit.
    active_.swap(next_);
    if (!round_stamped_)
      for (const graph::VertexId u : active_) stamp_[u] = epoch_;
    num_active_ = static_cast<std::uint32_t>(active_.size());
  } else {
    for (const graph::VertexId u : next_) stamp_[u] = epoch_;
    active_.insert(active_.end(), next_.begin(), next_.end());
    num_active_ += static_cast<std::uint32_t>(next_.size());
  }
  active_valid_ = true;
  visited_count_ += round_newly_;
  if (metrics_ != nullptr) record_commit(round_newly_);
  ++rounds_committed_;
  return round_newly_;
}

}  // namespace cobra::core
