// Shared configuration for the baseline protocols (random walk, k walks,
// flooding, push/pull gossip).
//
// Every baseline runs on the process-agnostic frontier kernel
// (core/frontier_kernel.hpp): destinations come from the shared
// NeighborSampler and all per-(round, entity) randomness is keyed, so for
// each protocol the sparse, dense and auto engines produce
// bit-for-bit identical results at a fixed seed — the engine only selects
// the frontier representation. The particle protocols (single/multi walk)
// have no frontier to represent, so their engines coincide trivially; the
// set protocols (flooding, push gossip, pull gossip) get real dense paths.
#pragma once

#include <memory>

#include "core/frontier_kernel.hpp"
#include "core/process.hpp"

namespace cobra::baselines {

/// Options accepted by every baseline cover function.
struct BaselineOptions {
  /// Frontier representation; kDefault is kAuto. Only tests and
  /// micro-benchmarks force another.
  core::Engine engine = core::Engine::kDefault;
  /// In-round kernel lane count; 0 defers to --kernel-threads /
  /// COBRA_KERNEL_THREADS, as in ProcessOptions::kernel_threads. Results
  /// are bit-identical at every setting.
  int kernel_threads = 0;
  /// Optional pre-built destination sampler (laziness 0), shared across
  /// replicates; must match the graph. When null, each call builds one.
  std::shared_ptr<const core::NeighborSampler> sampler;
};

}  // namespace cobra::baselines
