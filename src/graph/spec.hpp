// Graph specs: one-string descriptions of where a graph comes from, plus
// the per-process cache that makes resolving the same spec twice free.
//
// A spec is either a synthetic family, canonically named so the spec
// string doubles as the graph's label (and as the cell id in the runner):
//
//   complete_N        K_N                     complete_1024
//   cycle_N           C_N                     cycle_4096
//   path_N            P_N                     path_513
//   star_N            K_{1,N-1}               star_512
//   hypercube_D       Q_D (n = 2^D)           hypercube_10
//   torus_S_dD        D-dim torus, side S     torus_64_d2
//   regular_N_rR      connected random        regular_262144_r8
//                     r-regular (generator
//                     stream derived from
//                     (N, R) only, so the
//                     instance is stable
//                     across seeds/runs)
//   petersen          the Petersen graph
//
// or a file reference:
//
//   file:PATH         PATH ending in .cgr is mmap-loaded (the open scans
//                     offsets and neighbour ids once, pages are shared
//                     between processes — see graph/binary_io.hpp); any
//                     other extension is parsed as a text edge list.
//                     The label is the name embedded
//                     at ingest, so a pre-baked synthetic family keeps its
//                     spec string as its label.
//
// shared_graph() resolves specs through a process-wide cache keyed by the
// spec string and deduplicated by Graph::fingerprint, so multi-cell runs
// and estimator replicates that name the same graph share one instance
// (and one alias table / spectrum via the fingerprint-keyed caches above).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace cobra::graph {

/// True when `spec` is a `file:PATH` reference (vs a synthetic family).
[[nodiscard]] bool is_file_spec(const std::string& spec);

/// Builds the spec's graph, uncached. Synthetic graphs are named with the
/// canonical spec string; file graphs keep their embedded/ingested name.
/// Throws util::CheckError on an unknown family, out-of-range parameter
/// or unreadable file.
[[nodiscard]] Graph build_graph_spec(const std::string& spec);

/// The spec's display label without building the graph: the spec string
/// itself for synthetic families, the embedded name for `file:` specs
/// (read from the `.cgr` header in O(1); the file stem for edge lists).
/// Cheap enough for cell enumeration.
[[nodiscard]] std::string graph_spec_label(const std::string& spec);

/// Resolves `spec` through the per-process cache: the same spec string
/// returns the same instance, and two specs that build structurally
/// identical graphs (equal fingerprints — e.g. `file:` of a pre-baked
/// family and the family itself) share one instance.
[[nodiscard]] std::shared_ptr<const Graph> shared_graph(
    const std::string& spec);

/// Cache effectiveness counters (tests, diagnostics).
struct GraphCacheStats {
  std::uint64_t hits = 0;    ///< spec already resolved
  std::uint64_t misses = 0;  ///< spec built (or loaded) fresh
  std::uint64_t fingerprint_dedups = 0;  ///< fresh build matched an
                                         ///< existing graph's fingerprint
};

/// Snapshot of the process-wide cache counters.
[[nodiscard]] GraphCacheStats graph_cache_stats();

/// Empties the cache and zeroes the counters (tests).
void clear_graph_cache();

/// Splits a comma-separated spec list (the COBRA_GRAPHS / --graphs
/// format), trimming whitespace and dropping empty entries.
[[nodiscard]] std::vector<std::string> split_graph_specs(
    const std::string& list);

}  // namespace cobra::graph
