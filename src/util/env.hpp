// Environment-variable configuration shared by benches and examples.
//
// The experiment harness sizes its workloads by a single multiplier so the
// whole suite can be scaled up (overnight run) or down (CI smoke) without
// editing code:
//   COBRA_SCALE    — positive double, default 1.0
//   COBRA_THREADS  — max worker threads for Monte-Carlo; default: hardware
//   COBRA_SEED     — global base seed for experiments; default 20170724
//                    (the paper's presentation date at SPAA'17).
//   COBRA_GRAPHS   — comma-separated graph specs (graph/spec.hpp grammar,
//                    incl. file:PATH for ingested .cgr graphs) consumed by
//                    spec-driven experiments such as `workload`; default
//                    empty (the experiment's built-in list).
//   COBRA_METRICS  — session telemetry mode: off|summary|rounds; default
//                    "off" (util/metrics.hpp parses and documents it).
//   COBRA_KERNEL_THREADS — in-round worker lanes for the frontier kernel's
//                    parallel dense scans (core/frontier_kernel); default 1
//                    (serial). Results are bit-identical at every setting.
#pragma once

#include <cstdint>
#include <string>

namespace cobra::util {

/// Reads an environment variable; returns `fallback` when unset or invalid.
double env_double(const char* name, double fallback);
std::int64_t env_int(const char* name, std::int64_t fallback);
std::string env_string(const char* name, const std::string& fallback);

/// Global experiment scale multiplier (COBRA_SCALE).
double scale();

/// Programmatic overrides, set by the runner CLI when `--scale`, `--seed`
/// or `--threads` are passed: they take precedence over the environment
/// variables in scale()/global_seed()/max_threads(). Values are validated
/// the same way as their env counterparts (scale must be positive, threads
/// are clamped to [1, 1024]).
void set_scale_override(double value);
void set_seed_override(std::uint64_t value);
void set_threads_override(int value);
void set_graphs_override(const std::string& value);
void set_metrics_override(const std::string& value);
void set_kernel_threads_override(int value);

/// Drops all programmatic overrides (tests; the CLI never needs this).
void clear_env_overrides();

/// Scales an integer quantity by COBRA_SCALE, keeping at least `min_value`.
/// Throws util::CheckError when base · scale does not fit an int64.
std::int64_t scaled(std::int64_t base, std::int64_t min_value = 1);

/// scaled() for a quantity held in 32 bits (a vertex count, a dimension).
/// Throws util::CheckError, located like scaled()'s, when the scaled value
/// exceeds 2^32 - 1 instead of letting the narrowing cast wrap it.
std::uint32_t scaled_u32(std::int64_t base, std::int64_t min_value = 1);

/// Worker thread cap (COBRA_THREADS), at least 1, lowered on the calling
/// thread by any ScopedThreadCap alive there.
int max_threads();

/// Caps max_threads() at `cap` (at least 1) on the calling thread until
/// destroyed, then restores the previous cap; other threads are unaffected.
/// Nested caps only lower it.
/// The fork-join team sets it to 1 around a job's `lead`, so set-up that
/// runs beside busy workers forks no team of its own.
class ScopedThreadCap {
 public:
  explicit ScopedThreadCap(int cap);
  ~ScopedThreadCap();

  ScopedThreadCap(const ScopedThreadCap&) = delete;
  ScopedThreadCap& operator=(const ScopedThreadCap&) = delete;

 private:
  int saved_;
};

/// Base seed for experiments (COBRA_SEED).
std::uint64_t global_seed();

/// Comma-separated graph-spec list (COBRA_GRAPHS / --graphs), raw:
/// graph::split_graph_specs and the spec parser validate it where it is
/// consumed. Empty when unset.
std::string graphs();

/// Session telemetry mode name (COBRA_METRICS / --metrics), as a raw
/// string: util::parse_metrics_mode validates it where it is consumed.
/// "off" when unset.
std::string metrics();

/// In-round frontier-kernel lane count (COBRA_KERNEL_THREADS /
/// --kernel-threads), clamped to [1, 256]; 1 (the default) is the serial
/// kernel. Orthogonal to max_threads(), which caps the Monte-Carlo
/// replicate fan-out — their product is the worst-case thread count.
int kernel_threads();

}  // namespace cobra::util
