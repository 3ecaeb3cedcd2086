// Kernel-level telemetry (docs/ARCHITECTURE.md, "Telemetry").
//
// The frontier kernel's hot loops cannot afford name lookups or atomics,
// so they stream into a StepMetrics block: a plain struct of uint64
// counters captured by pointer once, at kernel construction. Every
// instrumented site is a single `if (metrics_ != nullptr)` away when
// telemetry is off, and none of them consume randomness — which is why
// fixed-seed trajectories are bit-identical with metrics off, summary or
// rounds (asserted by tests/test_runner_metrics.cpp and guarded at <= 2%
// disabled-mode overhead by bench/micro_metrics.cpp).
//
// Wiring: a process passes ProcessOptions::metrics through its kernel
// Config. When that hook is null, the kernel instead attaches to the
// calling thread's session block — created on demand iff the session
// metrics mode (COBRA_METRICS / --metrics) is not "off" — so the runner
// gets telemetry from unmodified experiment code. The runner folds all
// session blocks at each cell boundary (the Monte-Carlo team is idle
// there) with drain_cell_metrics() and writes the result to the cell's
// metrics sidecar (runner/telemetry.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/metrics.hpp"

namespace cobra::core {

/// One round's aggregate across every process/replicate that committed a
/// round with that index since the last drain (rounds mode only). Sums of
/// uint64 are order-independent, so the trajectory is deterministic no
/// matter how the fork-join team schedules replicates.
struct RoundStat {
  /// Processes that committed this round index.
  std::uint64_t processes = 0;
  /// Sum of post-commit frontier sizes.
  std::uint64_t frontier = 0;
  /// Sum of first visits in this round.
  std::uint64_t newly = 0;
  /// Processes whose round ran in the dense representation.
  std::uint64_t dense = 0;
};

/// The frontier kernel's telemetry block: plain uint64 slots bumped from
/// the round loop with no synchronization (one block per thread or per
/// caller). Merge/reset are cheap; the runner publishes drained blocks
/// into the util::MetricsRegistry under "kernel.*" names.
struct StepMetrics {
  /// Committed rounds (every representation).
  std::uint64_t rounds = 0;
  /// Rounds committed in the dense (bitset) representation.
  std::uint64_t rounds_dense = 0;
  /// Sparse<->dense representation flips after the first committed round
  /// (auto-engine hysteresis thrash shows up here).
  std::uint64_t mode_switches = 0;
  /// Sum of post-commit frontier sizes over all rounds.
  std::uint64_t frontier_sum = 0;
  /// Largest post-commit frontier seen (a gauge: merges by max).
  std::uint64_t frontier_peak = 0;
  /// First visits accumulated across rounds.
  std::uint64_t first_visits = 0;
  /// Push-destination emissions (COBRA transmissions; processes that do
  /// not sample destinations leave this 0).
  std::uint64_t emissions = 0;
  /// Sparse-sink suppressions: within-round coalescing (CoalescingSink)
  /// plus already-visited drops (GrowthSink).
  std::uint64_t dedup_hits = 0;
  /// VertexDraws streams created via FrontierKernel::draws.
  std::uint64_t draw_streams = 0;
  /// Dense bitset words iterated by frontier scans.
  std::uint64_t words_scanned = 0;
  /// Words merged word-parallel (popcount) into the visited set /
  /// frontier at dense commits.
  std::uint64_t merged_words = 0;
  /// log2 histogram of post-commit frontier sizes (bucket = bit_width).
  std::array<std::uint64_t, util::kHistogramBuckets> frontier_hist{};

  /// When true the kernel also appends per-round aggregates to
  /// round_trajectory ("--metrics rounds").
  bool record_rounds = false;
  /// Per-round aggregates, indexed by round number since assign().
  std::vector<RoundStat> round_trajectory;

  /// Accumulates one committed round into the trajectory.
  void note_round(std::size_t index, std::uint64_t frontier,
                  std::uint64_t newly, bool dense);
  /// Adds `other` into this block (counters add, peaks max, trajectories
  /// merge index-wise).
  void merge_from(const StepMetrics& other);
  /// Zeroes every counter and clears the trajectory.
  void reset();
};

/// The calling thread's session telemetry block, or nullptr when the
/// session metrics mode is "off". Kernels constructed without an explicit
/// ProcessOptions::metrics hook attach to this; blocks are registered
/// process-wide so drain_cell_metrics() can fold them.
StepMetrics* session_step_metrics();

/// Folds and resets every thread's session block (plus the counts of
/// threads that have exited). Call only at quiescence — in the runner,
/// cell boundaries after the Monte-Carlo team joined its replicates.
StepMetrics drain_session_step_metrics();

/// Publishes a drained block into the util::MetricsRegistry under
/// "kernel.*" metric names (counters, the frontier_peak gauge and the
/// kernel.frontier_size histogram).
void publish_step_metrics(const StepMetrics& metrics);

/// Everything the runner archives for one cell: the folded registry
/// snapshot (kernel counters published, cold-site counters included) and
/// the per-round trajectory when the mode is "rounds".
struct CellMetrics {
  /// Folded registry snapshot (sorted, mergeable, JSONL-serializable).
  util::MetricsSnapshot snapshot;
  /// Aggregate per-round trajectory (empty unless "--metrics rounds").
  std::vector<RoundStat> rounds;
};

/// Drains the session step blocks, publishes them into the registry, and
/// returns the folded snapshot + trajectory, resetting everything. Cell
/// boundaries only (see drain_session_step_metrics).
CellMetrics drain_cell_metrics();

}  // namespace cobra::core
