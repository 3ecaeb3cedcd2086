// The process-agnostic frontier kernel (docs/ARCHITECTURE.md, "Frontier
// kernel"): the engine machinery shared by every spreading process in the
// library — COBRA, BIPS and the baselines (flooding, push/pull gossip,
// random walks).
//
// Three building blocks, all engine-order-invariant by construction:
//
//   * NeighborSampler — maps one 64-bit word to a push destination in
//     O(1): each neighbour of u with probability (1 - laziness)/deg(u), u
//     itself with probability `laziness`. A plain (laziness 0) push is one
//     fixed-point multiply of the word's high half by deg(u), with no table
//     at all: it is exactly the column an equal-weight alias table would
//     pick and always keep. Lazy pushes go through degree-bucketed alias
//     tables (rng/discrete), one per distinct degree, built once per graph
//     and shared by every vertex of that degree. Either way the sampler is
//     shared across replicates and threads (sampling is const and
//     lock-free).
//
//   * VertexDraws — a counter-based randomness stream for one (round,
//     entity) pair, where the entity is a vertex id (set processes) or a
//     particle index (walks). Word k is a pure function of (round_key,
//     entity, k) through two rounds of the SplitMix64 finalizer — one
//     protocol for every process and engine — so engines may process
//     entities in any order, or any frontier representation, and still
//     make identical random choices. The rule has no exceptions: every
//     process draws one round key per round, so at a fixed seed it gives
//     identical bytes on every engine and lane count.
//
//   * FrontierKernel — the dual sparse/dense frontier state machine: a
//     vector frontier with epoch-stamped O(1) membership, a bitset
//     frontier with word-parallel commit, the auto density switch with 2x
//     hysteresis, and the visited accumulator with branch-free popcount
//     merges. Processes express only their per-entity policy (what an
//     active vertex does with its draws); the kernel owns representation,
//     deduplication, mode transitions and first-visit counting.
//
// Round protocol of a kernel process (see CobraProcess::step for the
// canonical use):
//   1. draw one 64-bit round key from the replicate stream;
//   2. begin_round(score) — the kernel picks this round's representation
//      (engine and density score; the process never branches on it);
//   3. state the per-vertex rule once, as a generic body(lane, u) handed
//      to frontier_scan / complement_scan / vertex_scan<S>, where S names
//      the sink rule. The body derives randomness via lane.draws(key, u)
//      and emits next-frontier vertices via lane.emit(v). A sparse round
//      runs the body serially through a SinkLane over the next-frontier
//      vector; a dense round runs it on the lane-parallel scatter scans
//      through ScatterLanes over bitsets;
//   4. commit(kReplace | kAccumulate) — swap or grow the frontier, merge
//      the visited set, return the number of first visits.
//
// Sink rules (Sink, stated at the scan call):
//   * kCoalescing — a vertex enters at most once per round (COBRA's
//     coalescing rule): epoch stamps in sparse rounds, the bitset itself
//     in dense ones; first visits counted;
//   * kGrowth     — only never-visited vertices enter (monotone
//     processes: flooding layers, gossip): the visited set deduplicates
//     in sparse rounds and filters in dense ones.
// BIPS runs two different algorithms rather than one rule in two
// representations — a full sampling scan (local_vertex_scan) and boundary
// marking (the explicit-dest scatter scans plus local_marked_scan) — both
// on a kernel configured dense, so its frontier is always the bitset; it
// picks the algorithm per round with its own cost score.
//
// In-round parallelism (docs/ARCHITECTURE.md, "Frontier kernel"): dense
// rounds can fan their scans and the commit merge out over up to
// Config::kernel_threads worker lanes; lane_count sizes each pass from its
// width, so a pass forks only when every lane gets at least a floor of
// work (kScanLaneMinEntries, kCommitLaneMinWords). The frontier bitset (or
// the active vector / vertex range) is partitioned into contiguous word
// ranges, each lane derives the same keyed per-vertex draws the serial
// kernel would and emits into lane-owned scratch words, and the scratch is
// OR-merged — all of which commutes, so results are bit-for-bit identical
// at every lane count. Lane telemetry goes to lane-local StepMetrics
// blocks folded after the join; the hot path never touches a shared
// counter. Every parallel pass — the lane scans and the commit merges —
// goes through one private fork-join on the kernel's util::ForkJoinTeam:
// the caller and kernel_threads - 1 persistent workers claim lanes from an
// atomic counter, so any thread may run any lane (lane i still writes only
// lane i's scratch and tally, folded in lane order), a
// parked or descheduled worker never stalls a round, and a parallel round
// allocates nothing. One kernel runs per replicate thread, so replicate
// threads × lanes is the whole thread count.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/metrics.hpp"
#include "core/process.hpp"
#include "graph/graph.hpp"
#include "rng/discrete.hpp"
#include "rng/splitmix64.hpp"
#include "util/assert.hpp"
#include "util/bitset.hpp"
#include "util/fork_join_team.hpp"
#include "util/simd.hpp"

namespace cobra::core {

/// A contiguous range of indices [begin, end) — 64-bit words of a frontier
/// bitset, or plain vertex/slot indices, depending on the scan.
struct WordRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Deterministically partitions [0, words) into at most `lanes` contiguous,
/// non-empty ranges of near-equal size: the first `words % count` ranges
/// get one extra word, where count = min(lanes, words). Pure function of
/// (words, lanes) — the property tests assert the ranges tile [0, words)
/// exactly once for adversarial combinations. Returns no ranges when
/// `words` is 0.
std::vector<WordRange> partition_word_ranges(std::size_t words, int lanes);

/// What one item of a lane-parallel kernel pass is (lane_count).
enum class Pass : std::uint8_t {
  kWordScan,    ///< a bitset word of a scan: 64 vertices
  kVertexScan,  ///< a vertex (or active-vector slot) of a scan
  kCommit,      ///< a word of a commit merge: one OR and popcount
};

/// Scan floor: a scan forks only when every lane spans at least this many
/// adjacency entries (its vertices times the graph's average degree). A
/// body's cost grows with the adjacency it can touch: pushes into a
/// cache-resident graph take nanoseconds, pushes into one that spills
/// the cache wait on memory. micro_cobra's BM_CobraStepLanes sets the
/// value on 8-regular graphs: a dense round at the dense-entry density,
/// where a word carries the least work, gains from a second lane from 64
/// words per lane (32768 entries) on, and loses up to 2x below 32.
inline constexpr std::uint64_t kScanLaneMinEntries = 32768;

/// Commit floor: a commit merge forks only when every lane gets at least
/// this many words. A commit word costs one OR and popcount whatever the
/// graph, so this floor counts words.
inline constexpr std::uint64_t kCommitLaneMinWords = 1024;

/// The kernel's one lane-count rule: a pass of `items` runs on
/// clamp(width / floor, 1, lanes) lanes, where `lanes` is the cap
/// (Config::kernel_threads). A scan's width is the adjacency it spans —
/// items × avg_degree, times 64 for word items — against
/// kScanLaneMinEntries; a commit's width is its word count against
/// kCommitLaneMinWords. 0 when `items` or `lanes` is 0. A pass on one
/// lane stays on the calling thread, so a kernel whose passes are all
/// narrower than two floors never builds its team.
inline std::size_t lane_count(std::size_t items, int lanes, Pass pass,
                              std::uint64_t avg_degree) {
  if (items == 0 || lanes <= 0) return 0;
  std::uint64_t width = items;
  std::uint64_t floor = kCommitLaneMinWords;
  if (pass != Pass::kCommit) {
    width *= std::max<std::uint64_t>(avg_degree, 1) *
             (pass == Pass::kWordScan ? 64 : 1);
    floor = kScanLaneMinEntries;
  }
  return static_cast<std::size_t>(std::clamp<std::uint64_t>(
      width / floor, 1, static_cast<std::uint64_t>(lanes)));
}

/// Range i of partition_word_ranges(words, count) for 1 <= count <= words
/// and i < count, in O(1) and without allocating (the parallel passes use
/// this with count = lane_count(...); the property tests pin it to the
/// reference partition).
inline WordRange word_range(std::size_t words, std::size_t count,
                            std::size_t i) {
  const std::size_t base = words / count;
  const std::size_t extra = words % count;
  const std::size_t begin = i * base + std::min(i, extra);
  return WordRange{begin, begin + base + (i < extra ? 1 : 0)};
}

/// O(1) push-destination sampler: uniform slots for plain pushes,
/// degree-bucketed alias tables for lazy ones.
///
/// Immutable after construction; safe to share across threads and
/// replicates via ProcessOptions::sampler. A vertex of degree 0 (only legal
/// in the single-vertex graph) always "pushes" to itself.
class NeighborSampler {
 public:
  /// With laziness > 0, builds one alias table per distinct degree of `g`,
  /// each with deg + 1 slots (slot deg = stay put). With laziness 0 it
  /// builds nothing: sample() picks the slot directly. The sampler keeps a
  /// reference to the graph, which must outlive it.
  NeighborSampler(const graph::Graph& g, double laziness);

  /// Maps a uniform 64-bit `word` to the destination of one push from `u`.
  /// Exact up to the 2^-32 fixed-point quantisation of the slot choice —
  /// far below Monte-Carlo noise, and identical across engines by design.
  ///
  /// A plain push takes slot ((word >> 32) * deg) >> 32. That is the
  /// column rng::AliasTable::sample_word picks over deg equal weights, and
  /// such a table keeps every column it picks: each scaled weight is the
  /// same double, so Vose's loop pairs nothing and every threshold is
  /// exactly 1.0, above any accept value. test_neighbor_sampler pins the
  /// two paths to each other.
  [[nodiscard]] graph::VertexId sample(graph::VertexId u,
                                       std::uint64_t word) const {
    const std::uint32_t degree = graph_->degree(u);
    if (laziness_ == 0.0) {
      if (degree == 0) return u;
      return graph_->neighbor(
          u, static_cast<std::uint32_t>(((word >> 32) * degree) >> 32));
    }
    const rng::AliasTable& table = tables_[bucket_of_degree_[degree]];
    const std::uint32_t slot = table.sample_word(word);
    return slot < degree ? graph_->neighbor(u, slot) : u;
  }

  /// The laziness the tables were built for (validated against
  /// ProcessOptions::laziness when a shared sampler is injected).
  [[nodiscard]] double laziness() const { return laziness_; }

  /// The graph the tables were built for.
  [[nodiscard]] const graph::Graph& graph() const { return *graph_; }

  /// Number of alias tables: one per distinct degree when lazy, none for
  /// plain pushes (introspection/tests).
  [[nodiscard]] std::size_t num_buckets() const { return tables_.size(); }

 private:
  const graph::Graph* graph_;
  double laziness_;
  std::vector<std::uint32_t> bucket_of_degree_;  // degree -> index in tables_
  std::vector<rng::AliasTable> tables_;
};

/// Counter-based per-entity randomness for one round of a kernel process.
///
/// Produces an unlimited 64-bit word stream that is a pure function of
/// (round_key, entity, word index): word k = mix64(base + k·C2) with
/// base = mix64(round_key + (entity+1)·C1) — two SplitMix64 finalizer
/// rounds from inputs to output, Weyl-spaced in both the entity and the
/// word index (the same structure the SplitMix64 generator itself uses).
/// tests/test_cobra_engines.cpp pins the first words of a few streams, so
/// a change here cannot silently re-key every archive.
class VertexDraws {
 public:
  /// Binds the stream to this round's key and one entity (vertex id or
  /// particle index).
  VertexDraws(std::uint64_t round_key, std::uint32_t entity)
      : base_(rng::mix64(round_key +
                         (static_cast<std::uint64_t>(entity) + 1) *
                             0x9E3779B97F4A7C15ull)) {}

  /// The next 64-bit word of this entity's round stream.
  std::uint64_t next_word() {
    return rng::mix64(base_ + (counter_++) * 0xD1B54A32D192ED03ull);
  }

  /// Uniform double in [0, 1) with 53 bits (same mapping as rng::Rng).
  double uniform01() {
    return static_cast<double>(next_word() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial; consumes one word unless p <= 0 or p >= 1 (the same
  /// short-circuits as rng::Rng::bernoulli).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

 private:
  std::uint64_t base_;
  std::uint64_t counter_ = 0;
};

/// How a process's emissions enter the next frontier, stated at each
/// FrontierKernel round scan.
enum class Sink : std::uint8_t {
  /// Transient frontiers (COBRA): a vertex enters at most once per round,
  /// however many pushes reach it.
  kCoalescing,
  /// Monotone sets (flooding, gossip): only never-visited vertices enter.
  kGrowth,
};

/// The dual sparse/dense frontier state machine shared by every spreading
/// process (see the file comment for the round protocol).
///
/// Not thread-safe; one kernel per process instance, one process per
/// replicate (sim/monte_carlo does this).
class FrontierKernel {
 public:
  /// Construction parameters; `engine` must be resolved (not kDefault —
  /// callers run core::resolve_engine first).
  struct Config {
    /// Resolved representation policy. kSparse never runs a dense round, kDense
    /// always does, and kAuto switches to the dense frontier when
    /// begin_round's score reaches 1 and back below 0.5 (2x hysteresis);
    /// processes compute the score, typically via density_score().
    Engine engine = Engine::kAuto;
    /// Laziness the sampler is built with (when the kernel builds one).
    double laziness = 0.0;
    /// Build a NeighborSampler when none is shared. Processes that never
    /// sample destinations (flooding) skip the construction cost.
    bool build_sampler = true;
    /// Track the first-visit accumulator (visited set + count). BIPS turns
    /// this off: its infected set is not monotone and full infection is
    /// detected from the frontier size alone.
    bool track_visited = true;
    /// Resolved in-round lane cap (>= 1; processes run
    /// core::resolve_kernel_threads on ProcessOptions::kernel_threads
    /// first). 1 keeps every scan on the calling thread; above 1 each dense
    /// scan and commit merge runs on lane_count(...) lanes, on the
    /// kernel's util::ForkJoinTeam of kernel_threads - 1 workers plus the
    /// calling thread, built on the first pass that forks. Bit-for-bit
    /// identical results at every setting.
    int kernel_threads = 1;
    /// Optional pre-built sampler shared across replicates; must match the
    /// kernel's graph and laziness.
    std::shared_ptr<const NeighborSampler> sampler;
    /// Telemetry block (non-owning; must outlive the kernel). When null,
    /// the kernel attaches to the calling thread's session collector iff
    /// the session metrics mode is not "off" (core/metrics.hpp); when that
    /// is off too, every instrumented site reduces to one untaken branch.
    StepMetrics* metrics = nullptr;
  };

  /// The graph must outlive the kernel. Throws util::CheckError when a
  /// shared sampler does not match the graph/laziness.
  FrontierKernel(const graph::Graph& g, const Config& config);

  /// The graph the kernel walks on.
  [[nodiscard]] const graph::Graph& graph() const { return *graph_; }

  /// The resolved stepping engine.
  [[nodiscard]] Engine engine() const { return engine_; }

  /// The destination sampler (only valid when built or shared).
  [[nodiscard]] const NeighborSampler& sampler() const { return *sampler_; }

  /// The shareable sampler handle (null when build_sampler was off and no
  /// sampler was shared).
  [[nodiscard]] std::shared_ptr<const NeighborSampler> shared_sampler()
      const {
    return sampler_;
  }

  /// The keyed word stream of `entity` for the round keyed by `round_key`.
  [[nodiscard]] VertexDraws draws(std::uint64_t round_key,
                                  std::uint32_t entity) const {
    if (metrics_ != nullptr) ++metrics_->draw_streams;
    return VertexDraws(round_key, entity);
  }

  /// The attached telemetry block (null when telemetry is off). Processes
  /// use this to add their own counters (e.g. COBRA's emissions) without
  /// re-deriving the session attachment.
  [[nodiscard]] StepMetrics* metrics() const { return metrics_; }

  // --- frontier lifecycle ------------------------------------------------

  /// Resets the kernel: frontier = deduplicated `starts` (sparse
  /// representation), visited = starts (when tracked), dense round counter
  /// cleared.
  void assign(std::span<const graph::VertexId> starts);

  /// |frontier| in O(1).
  [[nodiscard]] std::uint32_t frontier_size() const { return num_active_; }

  /// True iff u is in the current frontier (O(1) in either
  /// representation).
  [[nodiscard]] bool in_frontier(graph::VertexId u) const {
    return dense_repr_ ? frontier_.test(u) : stamp_[u] == epoch_;
  }

  /// The current frontier as a vector. Order is representation-dependent:
  /// insertion order after sparse rounds, ascending vertex id when the
  /// dense bitset produced it (materialised lazily — prefer
  /// frontier_size() when only the size is needed).
  [[nodiscard]] const std::vector<graph::VertexId>& frontier_vector() const;

  /// Calls fn(u) for every frontier vertex: insertion order in the sparse
  /// representation, ascending id in the dense one.
  template <typename Fn>
  void for_each_in_frontier(Fn&& fn) const {
    if (dense_repr_) {
      if (metrics_ != nullptr)
        metrics_->words_scanned += frontier_.words().size();
      frontier_.for_each_set(
          [&](std::size_t u) { fn(static_cast<graph::VertexId>(u)); });
    } else {
      for (const graph::VertexId u : active_) fn(u);
    }
  }

  /// True iff the current frontier lives in the dense (bitset)
  /// representation.
  [[nodiscard]] bool dense_mode() const { return dense_repr_; }

  /// Rounds committed with the dense representation since assign() —
  /// introspection for tests and the auto-switch benchmarks.
  [[nodiscard]] std::uint64_t dense_rounds() const { return dense_rounds_; }

  // --- visited accumulator -----------------------------------------------

  /// True iff u was ever in a committed frontier (requires track_visited).
  [[nodiscard]] bool is_visited(graph::VertexId u) const {
    return visited_.test(u);
  }

  /// Number of distinct vertices ever in a frontier.
  [[nodiscard]] std::uint32_t num_visited() const { return visited_count_; }

  /// True iff every vertex has been visited.
  [[nodiscard]] bool all_visited() const {
    return visited_count_ == graph_->num_vertices();
  }

  // --- round transaction -------------------------------------------------

  /// COBRA's auto-switch density: a frontier of kDenseDensity · n
  /// vertices or more runs dense, and one below half of that sparse again.
  static constexpr double kDenseDensity = 1.0 / 32.0;

  /// The auto-switch score for a frontier of `count` vertices: count /
  /// (kDenseDensity · n), the rule COBRA uses. Processes with a different
  /// cost model (BIPS) pass their own score to begin_round.
  [[nodiscard]] double density_score(std::uint32_t count) const;

  /// Starts a round and returns true when it runs dense: always for
  /// kDense, never for kSparse, and for kAuto when `score`
  /// reaches 1 (entry) or stays above 0.5 while already dense (the 2x
  /// hysteresis that prevents representation thrash). Prepares the
  /// matching next-frontier buffer for the round's scans.
  bool begin_round(double score);

  /// Mutable word storage of the next-frontier bitset for word-parallel
  /// writers (the dense BIPS round initialises whole complement words in
  /// one pass). Only valid during a dense round; callers must keep bits at
  /// positions >= n clear, like util::DynamicBitset::data().
  [[nodiscard]] std::uint64_t* next_words() { return next_frontier_.data(); }

  // --- round scans -------------------------------------------------------
  //
  // Determinism contract: a scan's body must derive all randomness from
  // lane.draws(round_key, entity) — a pure function of (round_key, entity)
  // — and fold per-lane tallies through lane.tally. Emitted bits OR
  // together and uint64 sums commute, so the scan's outcome is identical
  // at every kernel_threads value and in either representation; only the
  // wall-clock changes. In a dense round the body runs concurrently on
  // several threads: it may read the kernel's committed state
  // (in_frontier, is_visited, the graph) but must not write anything
  // shared.

  /// The resolved in-round lane cap (>= 1; Config::kernel_threads).
  [[nodiscard]] int kernel_threads() const { return threads_; }

  /// Per-lane context of the dense parallel scans: the lane's emission
  /// target words (the shared destination for lane 0 and local-write
  /// scans, a lane-owned scratch bitset otherwise), keyed draw streams, a
  /// process-owned tally, and a lane-local StepMetrics block folded into
  /// the kernel's after the join — the hot path never touches a shared
  /// counter. The telemetry block goes last, so the cold tail of one
  /// lane, not its target, borders the next lane's tally.
  class DenseLane {
   public:
    /// The keyed word stream of `entity` — identical to
    /// FrontierKernel::draws, with lane-local stream accounting.
    [[nodiscard]] VertexDraws draws(std::uint64_t round_key,
                                    std::uint32_t entity) {
      ++block_.draw_streams;
      return VertexDraws(round_key, entity);
    }

    /// The lane's telemetry block (folded after the join, in lane order,
    /// so session totals match the serial kernel's exactly).
    [[nodiscard]] StepMetrics& metrics() { return block_; }

    /// Adds to the process-owned tally (e.g. COBRA transmissions); the
    /// scan returns the lane-ordered sum over all lanes.
    void tally(std::uint64_t count) { user_ += count; }

    /// Marks v in the lane's target bitset (idempotent: the bitset is the
    /// deduplication).
    void emit(graph::VertexId v) { target_[v >> 6] |= 1ull << (v & 63); }

   private:
    friend class FrontierKernel;
    explicit DenseLane(std::uint64_t* words) : target_(words) {}
    std::uint64_t* target_;
    std::uint64_t user_ = 0;
    StepMetrics block_;
  };

  /// The lane a process body sees in a sparse round: one serial lane that
  /// emits straight into the round's next-frontier vector under rule S.
  template <Sink S>
  class SinkLane {
   public:
    /// The keyed word stream of `entity` (FrontierKernel::draws).
    [[nodiscard]] VertexDraws draws(std::uint64_t round_key,
                                    std::uint32_t entity) {
      return k_->draws(round_key, entity);
    }

    /// kCoalescing: adds v unless it already entered this round
    /// (epoch-stamp deduplication), counting a first visit when tracked.
    /// kGrowth: adds v iff it was never visited before.
    void emit(graph::VertexId v) {
      FrontierKernel& k = *k_;
      if constexpr (S == Sink::kCoalescing) {
        if (k.stamp_[v] == k.epoch_ + 1) {
          if (k.metrics_ != nullptr) ++k.metrics_->dedup_hits;
          return;
        }
        k.stamp_[v] = k.epoch_ + 1;
        k.next_.push_back(v);
        if (k.track_visited_ && k.visited_.set_and_test(v)) ++k.round_newly_;
      } else {
        if (!k.visited_.set_and_test(v)) {
          if (k.metrics_ != nullptr) ++k.metrics_->dedup_hits;
          return;
        }
        ++k.round_newly_;
        k.next_.push_back(v);
      }
    }

    /// Adds to the process-owned tally the scan returns.
    void tally(std::uint64_t count) { user_ += count; }

   private:
    friend class FrontierKernel;
    explicit SinkLane(FrontierKernel* k) : k_(k) {
      // The coalescing rule stamps next_ as it emits; commit() must not
      // stamp it again.
      if constexpr (S == Sink::kCoalescing) k->round_stamped_ = true;
    }
    FrontierKernel* k_;
    std::uint64_t user_ = 0;
  };

  /// The lane a process body sees in a dense round: a view of one dense
  /// lane that applies rule S before setting the bit. The bitset already
  /// coalesces; kGrowth also drops vertices the committed visited set
  /// holds.
  template <Sink S>
  class ScatterLane {
   public:
    /// The keyed word stream of `entity` (Lane::draws).
    [[nodiscard]] VertexDraws draws(std::uint64_t round_key,
                                    std::uint32_t entity) {
      return lane_->draws(round_key, entity);
    }

    /// Marks v in the lane's target bitset unless rule S drops it.
    void emit(graph::VertexId v) {
      if constexpr (S == Sink::kGrowth) {
        if ((visited_[v >> 6] >> (v & 63)) & 1) return;
      }
      lane_->emit(v);
    }

    /// Adds to the process-owned tally the scan returns.
    void tally(std::uint64_t count) { lane_->tally(count); }

   private:
    friend class FrontierKernel;
    ScatterLane(DenseLane* lane, const std::uint64_t* visited)
        : lane_(lane), visited_(visited) {}
    DenseLane* lane_;
    const std::uint64_t* visited_;
  };

  /// One process round over the current frontier: body(lane, u) runs for
  /// every frontier vertex and may emit ANY vertex under rule S. A sparse
  /// round runs serially in insertion order through a SinkLane; a dense
  /// round runs the lane-parallel scatter scan (word order in the dense
  /// representation, insertion order in the sparse one) through
  /// ScatterLanes. Returns the sum of the body's tallies.
  template <Sink S, typename Body>
  std::uint64_t frontier_scan(Body&& body) {
    if (!round_dense_) {
      SinkLane<S> lane(this);
      for (const graph::VertexId u : active_) body(lane, u);
      return lane.user_;
    }
    return scatter_frontier_scan(next_frontier_, scatter_body<S>(body));
  }

  /// As frontier_scan, over every vertex NOT in the frontier in ascending
  /// order (the pull-gossip contact pass). A sparse round pays an O(n)
  /// stamp scan; a dense one scans complement words.
  template <Sink S, typename Body>
  std::uint64_t complement_scan(Body&& body) {
    if (!round_dense_) {
      SinkLane<S> lane(this);
      const std::size_t n = graph_->num_vertices();
      for (std::size_t u = 0; u < n; ++u)
        if (stamp_[u] != epoch_) body(lane, static_cast<graph::VertexId>(u));
      return lane.user_;
    }
    return scatter_complement_scan(next_frontier_, scatter_body<S>(body));
  }

  /// As frontier_scan, over every vertex in ascending order (push-pull
  /// gossip: everyone contacts every round).
  template <Sink S, typename Body>
  std::uint64_t vertex_scan(Body&& body) {
    const std::size_t n = graph_->num_vertices();
    if (!round_dense_) {
      SinkLane<S> lane(this);
      for (std::size_t u = 0; u < n; ++u)
        body(lane, static_cast<graph::VertexId>(u));
      return lane.user_;
    }
    auto scatter = scatter_body<S>(body);
    return run_dense_lanes(n, Pass::kVertexScan, next_frontier_,
                           /*local_writes=*/false,
                           [&](WordRange r, DenseLane& lane) {
                             for (std::size_t u = r.begin; u < r.end; ++u)
                               scatter(lane, static_cast<graph::VertexId>(u));
                           });
  }

  /// Lane-parallel scatter scan of the current frontier during a dense
  /// round, emitting into a caller-owned bitset (the BIPS boundary
  /// marking pass targets its scratch, not the next frontier):
  /// body(lane, u) runs for every frontier vertex (word order in the dense
  /// representation, insertion order in the sparse one) and may emit ANY
  /// vertex; per-lane scratch plus an OR merge makes scattered emissions
  /// race-free. `dest` must be sized to the graph and hold the caller's
  /// intended base state. Returns the lane-ordered sum of the tallies.
  template <typename Body>
  std::uint64_t scatter_frontier_scan(util::DynamicBitset& dest,
                                      Body&& body) {
    if (dense_repr_) {
      const auto& words = frontier_.words();
      return run_dense_lanes(
          words.size(), Pass::kWordScan, dest, /*local_writes=*/false,
          [&](WordRange r, DenseLane& lane) {
            lane.metrics().words_scanned += r.end - r.begin;
            for (std::size_t w = r.begin; w < r.end; ++w) {
              std::uint64_t bits = words[w];
              while (bits != 0) {
                const auto tz =
                    static_cast<std::size_t>(std::countr_zero(bits));
                bits &= bits - 1;
                body(lane, static_cast<graph::VertexId>((w << 6) + tz));
              }
            }
          });
    }
    return run_dense_lanes(
        active_.size(), Pass::kVertexScan, dest, /*local_writes=*/false,
        [&](WordRange r, DenseLane& lane) {
          for (std::size_t i = r.begin; i < r.end; ++i) body(lane, active_[i]);
        });
  }

  /// As scatter_frontier_scan, over the complement of the frontier in
  /// ascending vertex order within each lane (the BIPS boundary marking
  /// when the uninfected side is small).
  template <typename Body>
  std::uint64_t scatter_complement_scan(util::DynamicBitset& dest,
                                        Body&& body) {
    const std::size_t n = graph_->num_vertices();
    const std::size_t nwords = (n + 63) >> 6;
    if (dense_repr_) {
      const auto& words = frontier_.words();
      return run_dense_lanes(
          nwords, Pass::kWordScan, dest, /*local_writes=*/false,
          [&](WordRange r, DenseLane& lane) {
            lane.metrics().words_scanned += r.end - r.begin;
            for (std::size_t w = r.begin; w < r.end; ++w) {
              std::uint64_t bits = ~words[w];
              if ((w << 6) + 64 > n) bits &= (1ull << (n & 63)) - 1;  // tail
              while (bits != 0) {
                const auto tz =
                    static_cast<std::size_t>(std::countr_zero(bits));
                bits &= bits - 1;
                body(lane, static_cast<graph::VertexId>((w << 6) + tz));
              }
            }
          });
    }
    return run_dense_lanes(
        nwords, Pass::kWordScan, dest, /*local_writes=*/false,
        [&](WordRange r, DenseLane& lane) {
          const std::size_t end = std::min(r.end << 6, n);
          for (std::size_t u = r.begin << 6; u < end; ++u)
            if (stamp_[u] != epoch_)
              body(lane, static_cast<graph::VertexId>(u));
        });
  }

  /// Lane-parallel scan of `marked`'s set bits during a dense round, with
  /// LOCAL writes: the body may emit only the vertex it was called with
  /// (or nothing), so every lane writes next-frontier words it alone owns
  /// and no scratch or merge is needed — emissions land directly in the
  /// next frontier, including on top of words pre-filled through
  /// next_words() (the BIPS complement install). `marked` must be sized to
  /// the graph. Returns the lane-ordered sum of the tallies.
  template <typename Body>
  std::uint64_t local_marked_scan(const util::DynamicBitset& marked,
                                  Body&& body) {
    const auto& words = marked.words();
    return run_dense_lanes(
        words.size(), Pass::kWordScan, next_frontier_, /*local_writes=*/true,
        [&](WordRange r, DenseLane& lane) {
          for (std::size_t w = r.begin; w < r.end; ++w) {
            std::uint64_t bits = words[w];
            while (bits != 0) {
              const auto tz = static_cast<std::size_t>(std::countr_zero(bits));
              bits &= bits - 1;
              body(lane, static_cast<graph::VertexId>((w << 6) + tz));
            }
          }
        });
  }

  /// As local_marked_scan, over every vertex in ascending order (the BIPS
  /// full sampling round): lanes split the vertex words, and a body that
  /// emits only the vertex it was called with writes only its lane's own
  /// next-frontier words. Returns the lane-ordered sum of the tallies.
  template <typename Body>
  std::uint64_t local_vertex_scan(Body&& body) {
    const std::size_t n = graph_->num_vertices();
    return run_dense_lanes(
        (n + 63) >> 6, Pass::kWordScan, next_frontier_, /*local_writes=*/true,
        [&](WordRange r, DenseLane& lane) {
          const std::size_t end = std::min(r.end << 6, n);
          for (std::size_t u = r.begin << 6; u < end; ++u)
            body(lane, static_cast<graph::VertexId>(u));
        });
  }

  /// What commit() does with the next frontier.
  enum class Commit : std::uint8_t {
    kReplace,     ///< frontier = next (transient frontiers: COBRA, BIPS)
    kAccumulate,  ///< frontier |= next (monotone sets: gossip)
  };

  /// Ends the round: installs the next frontier per `policy`, merges it
  /// into the visited set (word-parallel with popcount in dense rounds)
  /// and returns the number of first visits this round (0 when visited
  /// tracking is off).
  std::uint32_t commit(Commit policy);

 private:
  /// Adapts a process body to the dense scans: each call sees its dense
  /// lane through a ScatterLane<S> view (inlined away).
  template <Sink S, typename Body>
  auto scatter_body(Body& body) {
    return [&body, visited = visited_.words().data()](
               DenseLane& lane, graph::VertexId u) {
      ScatterLane<S> view(&lane, visited);
      body(view, u);
    };
  }

  /// Drives one dense scan of [0, items) across lane_count(items,
  /// threads_, pass, avg_degree_) lanes, lane i taking word_range(items,
  /// lanes, i); any thread of the team may run any lane. With local_writes
  /// every lane targets `dest` directly (the body's emissions stay inside
  /// the lane's own words); otherwise lane 0 targets `dest` and lanes >= 1
  /// per-lane scratch bitsets, zeroed at lane start and OR-merged into
  /// `dest` in lane order after the join. Returns the lane-ordered sum of
  /// the tallies and folds lane telemetry into the kernel block.
  template <typename Task>
  std::uint64_t run_dense_lanes(std::size_t items, Pass pass,
                                util::DynamicBitset& dest, bool local_writes,
                                Task&& task) {
    const std::size_t lanes = lane_count(items, threads_, pass, avg_degree_);
    if (lanes == 0) return 0;
    if (lanes == 1) {
      DenseLane lane(dest.data());
      task(WordRange{0, items}, lane);
      fold_lane(lane.block_);
      return lane.user_;
    }
    if (!local_writes) ensure_lane_scratch(lanes - 1);
    dense_lanes_.reserve(static_cast<std::size_t>(threads_));
    dense_lanes_.clear();
    dense_lanes_.push_back(DenseLane(dest.data()));
    for (std::size_t i = 1; i < lanes; ++i)
      dense_lanes_.push_back(DenseLane(
          local_writes ? dest.data() : lane_scratch_[i - 1].data()));
    fork_join(lanes, [&](std::size_t i) {
      if (!local_writes && i > 0) lane_scratch_[i - 1].reset_all();
      task(word_range(items, lanes, i), dense_lanes_[i]);
    });
    std::uint64_t user = 0;
    const std::size_t merge_words = dest.words().size();
    for (std::size_t i = 0; i < lanes; ++i) {
      DenseLane& lane = dense_lanes_[i];
      if (!local_writes && i > 0)
        util::simd::or_words(dest.data(), lane_scratch_[i - 1].data(),
                             merge_words);
      user += lane.user_;
      fold_lane(lane.block_);
    }
    return user;
  }

  /// The kernel's one fork-join: runs lane_fn(i) for every lane i in
  /// [0, lanes) on the kernel's util::ForkJoinTeam (threads_ - 1 workers
  /// plus the caller, each claiming the next unstarted lane; built on the
  /// first parallel pass) and returns once every lane is done. Callers fold
  /// per-lane results in lane order afterwards, so which thread ran a lane
  /// never shows. Needs lanes >= 2 (single-lane passes stay on the calling
  /// thread). When lanes throw, every lane still finishes before the
  /// lowest-numbered lane's exception is rethrown: no lane may outlive the
  /// caller's frame it reads.
  template <typename LaneFn>
  void fork_join(std::size_t lanes, LaneFn&& lane_fn) {
    COBRA_DCHECK(lanes >= 2);
    if (!team_)
      team_ = std::make_unique<util::ForkJoinTeam>(
          static_cast<std::size_t>(threads_ - 1));
    team_->run(lanes, lane_fn);
  }

  /// Folds a lane's telemetry block into the kernel's (no-op when
  /// telemetry is off).
  void fold_lane(const StepMetrics& block) {
    if (metrics_ != nullptr) metrics_->merge_from(block);
  }

  /// Sizes `count` per-lane scratch bitsets to the graph (lazily; a
  /// serial-only run never pays).
  void ensure_lane_scratch(std::size_t count);

  /// The dense-commit visited merge over the next frontier's words, SIMD
  /// within ranges and fanned out over lane_count(words, threads_,
  /// Pass::kCommit, avg_degree_) lanes (never affects the counters — lane
  /// sums are exact).
  void merge_visited_parallel(std::size_t words, std::uint64_t* newly,
                              std::uint64_t* active);

  /// The dense-accumulate merge: ORs the next frontier into `dst_words`
  /// counting newly set bits, parallel like merge_visited_parallel.
  std::uint64_t or_count_parallel(std::uint64_t* dst_words,
                                  std::size_t words);

  /// Folds one committed round into the attached telemetry block (only
  /// called when metrics_ is non-null).
  void record_commit(std::uint32_t newly);

  /// Rebuilds active_ (ascending) from the dense frontier when stale.
  void materialize_active() const;

  /// Leaves the dense representation: restores the sparse invariants
  /// (active_ valid, stamp_[u] == epoch_ exactly for frontier vertices).
  void to_sparse_repr();

  /// Sizes the dense bitsets on first use (sparse-only runs never pay).
  void ensure_bitsets();

  const graph::Graph* graph_;
  Engine engine_;
  bool track_visited_;
  std::shared_ptr<const NeighborSampler> sampler_;

  // Sparse frontier: a vector with epoch-stamped membership (stamp_[u] ==
  // epoch_ means u in the frontier; avoids an O(n) clear per round).
  // active_ doubles as the lazily materialised view of the dense frontier,
  // hence mutable.
  mutable std::vector<graph::VertexId> active_;
  std::vector<graph::VertexId> next_;
  std::vector<std::uint64_t> stamp_;
  std::uint64_t epoch_ = 0;

  // Dense frontier: a bitset (valid iff dense_repr_), sized lazily.
  util::DynamicBitset frontier_;
  util::DynamicBitset next_frontier_;
  bool dense_repr_ = false;
  mutable bool active_valid_ = true;  // active_ mirrors the frontier
  std::uint32_t num_active_ = 0;
  std::uint64_t dense_rounds_ = 0;
  std::uint64_t rounds_committed_ = 0;  // since assign(); trajectory index

  // Lane-parallel machinery, built on the first parallel pass and reused
  // by every later one, so a parallel round allocates nothing: the team
  // of threads_ - 1 workers, the lane contexts, per-lane next-frontier
  // scratch for scatter scans, and per-lane sums for the commit merges.
  int threads_ = 1;
  std::uint64_t avg_degree_ = 0;  // degree_sum / n, lane_count's scan width
  std::unique_ptr<util::ForkJoinTeam> team_;
  std::vector<DenseLane> dense_lanes_;
  std::vector<util::DynamicBitset> lane_scratch_;
  std::vector<std::uint64_t> lane_sums_;

  // Attached telemetry block (Config::metrics, else the thread's session
  // block, else null). Owned elsewhere; mutated from const scans, hence
  // the pointee is non-const.
  StepMetrics* metrics_ = nullptr;

  // In-flight round state (between begin_round and commit).
  bool round_dense_ = false;
  bool round_stamped_ = false;    // a coalescing SinkLane stamped next_
  std::uint32_t round_newly_ = 0;  // first visits counted by sparse sinks

  util::DynamicBitset visited_;
  std::uint32_t visited_count_ = 0;
};

}  // namespace cobra::core
