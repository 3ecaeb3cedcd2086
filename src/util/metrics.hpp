// Low-overhead telemetry registry: named counters, gauges and log2
// histograms backed by plain uint64_t slot arrays.
//
// Design constraints (ISSUE 7 / ROADMAP "observability substrate"):
//
//   * zero atomics on the hot path — a metric update is `slots[id] += v`
//     into a thread-local slot array; names are resolved to stable slot
//     ids once, at registration, under a mutex;
//   * deterministic output — snapshots are sorted by metric name and the
//     JSON serializer is canonical (no whitespace, fixed key order,
//     unsigned decimals), so write → parse → re-emit is byte-identical;
//   * mergeable — snapshots form a commutative monoid under merge()
//     (counters/histograms add, gauges take the max, the empty snapshot
//     is the identity), so per-cell, per-shard and per-sweep views are
//     all the same fold.
//
// Thread model: every thread that touches a metric gets its own slot
// array (registered with the registry on first use). drain()/snapshot()
// fold all thread arrays; callers must only drain at quiescence — in the
// runner that is a cell boundary, after the Monte-Carlo team has joined
// its replicates (the join gives the happens-before edge).
//
// Collection is gated by the session metrics mode (COBRA_METRICS /
// --metrics = off|summary|rounds). Cold call sites use count()/observe()
// below, which no-op when the mode is off; hot loops (the frontier
// kernel) instead capture a pointer once per construction and branch on
// it (core/metrics.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cobra::util {

/// Session telemetry mode, resolved from COBRA_METRICS / `--metrics`.
enum class MetricsMode : std::uint8_t {
  kOff,      ///< no collection; instrumented paths are a null-check away
  kSummary,  ///< per-cell totals (counters/gauges/histograms) only
  kRounds,   ///< totals plus per-round frontier trajectories
};

/// Parses a metrics-mode name ("off" | "summary" | "rounds"); aborts via
/// COBRA_CHECK with the offending name otherwise.
MetricsMode parse_metrics_mode(std::string_view name);

/// Canonical name of a metrics mode ("off" | "summary" | "rounds").
const char* metrics_mode_name(MetricsMode mode);

/// The session metrics mode: util::metrics() (COBRA_METRICS or the
/// `--metrics` override) parsed and validated.
MetricsMode metrics_mode();

/// True when the session metrics mode is not kOff — the gate cold call
/// sites (cache hit/miss counts, alias-table builds, mmap opens) check
/// before touching the registry.
bool metrics_collecting();

/// What a registered metric accumulates.
enum class MetricKind : std::uint8_t {
  kCounter,    ///< monotonic sum; merge adds
  kGauge,      ///< high-water mark; merge takes the max
  kHistogram,  ///< log2-bucketed value distribution; merge adds buckets
};

/// Histogram bucket count: bucket i holds values whose bit_width is i,
/// i.e. bucket 0 is exactly 0, bucket i (i >= 1) is [2^(i-1), 2^i).
inline constexpr std::size_t kHistogramBuckets = 65;

/// Stable handle for a registered metric: an index into every thread's
/// slot array (histograms own kHistogramBuckets consecutive slots).
using MetricId = std::uint32_t;

/// One metric's folded value in a snapshot.
struct MetricValue {
  /// Registered name (e.g. "kernel.rounds").
  std::string name;
  /// What the slots accumulate (determines merge semantics).
  MetricKind kind = MetricKind::kCounter;
  /// Counter sum or gauge high-water mark; unused for histograms.
  std::uint64_t value = 0;
  /// Histogram buckets (kHistogramBuckets entries); empty otherwise.
  std::vector<std::uint64_t> buckets;
};

/// A deterministic, mergeable point-in-time view of the registry (or of
/// any subset of metrics): entries sorted by name, zero-valued entries
/// omitted.
struct MetricsSnapshot {
  /// Folded metric values, sorted by MetricValue::name.
  std::vector<MetricValue> values;

  /// True when no metric recorded a nonzero value.
  bool empty() const { return values.empty(); }
  /// The entry named `name`, or nullptr.
  const MetricValue* find(std::string_view name) const;
  /// Convenience: the counter/gauge value of `name`, or 0 when absent.
  std::uint64_t value_of(std::string_view name) const;
};

/// Snapshot merge (counters/histograms add, gauges max). Commutative and
/// associative; the empty snapshot is the identity.
MetricsSnapshot merge(const MetricsSnapshot& a, const MetricsSnapshot& b);

/// Serializes a snapshot as one canonical JSON object —
/// `{"counters":{...},"gauges":{...},"histograms":{"name":{"bit":count}}}`
/// with sections omitted when empty, keys in name order, no whitespace.
/// Canonical form makes re-emission byte-identical after a parse.
std::string snapshot_to_json(const MetricsSnapshot& snapshot);

/// Parses the object form produced by snapshot_to_json (aborts via
/// COBRA_CHECK on malformed input).
MetricsSnapshot snapshot_from_json(std::string_view json);

struct JsonValue;

/// Same, from an already-parsed JSON object — for callers (the runner
/// sidecar) that embed a snapshot inside a larger document.
MetricsSnapshot snapshot_from_json_value(const JsonValue& value);

/// The process-wide metric registry. Registration (name → slot id) is
/// mutex-protected and idempotent; updates go to thread-local slot
/// arrays with no synchronization at all.
class MetricsRegistry {
 public:
  /// The process-wide instance (never destroyed).
  static MetricsRegistry& instance();

  /// Registers (or looks up) a counter. Re-registering the same name
  /// returns the same id; registering it as a different kind aborts.
  MetricId counter(std::string_view name);
  /// Registers (or looks up) a gauge (merged by max).
  MetricId gauge(std::string_view name);
  /// Registers (or looks up) a log2 histogram (kHistogramBuckets slots).
  MetricId histogram(std::string_view name);

  /// Adds `delta` to a counter in this thread's slots.
  void add(MetricId id, std::uint64_t delta = 1);
  /// Raises a gauge's high-water mark in this thread's slots.
  void gauge_max(MetricId id, std::uint64_t value);
  /// Records one observation of `value` into a histogram.
  void observe(MetricId id, std::uint64_t value);

  /// This thread's slot array base pointer, for hot loops that update
  /// slots directly (`slots[id] += v`). The array has kMaxSlots entries
  /// regardless of how many metrics are registered, so the pointer stays
  /// valid across later registrations.
  std::uint64_t* local_slots();

  /// Folds every thread's slots into a snapshot. With `reset`, also
  /// zeroes all slots — the per-cell "snapshot and reset" the runner
  /// uses. Caller must guarantee no thread is concurrently updating
  /// (cell boundaries after team joins).
  MetricsSnapshot drain(bool reset = true);

  /// Upper bound on registered slots (histograms use 65 each). Fixed so
  /// thread arrays never reallocate; registration past it aborts.
  static constexpr std::size_t kMaxSlots = 4096;

  /// Internal shared state (defined in metrics.cpp; public only so the
  /// thread-local slot holders there can reach it).
  struct Impl;

 private:
  MetricsRegistry() = default;
  MetricId register_metric(std::string_view name, MetricKind kind,
                           std::size_t slots);

  Impl& impl();
};

/// Cold-site helper: bumps counter `id` iff metrics_collecting().
inline void count_if_collecting(MetricId id, std::uint64_t delta = 1) {
  if (metrics_collecting()) MetricsRegistry::instance().add(id, delta);
}

/// Minimal JSON value used by the metrics (de)serializers and the runner
/// sidecar parser. Supports exactly what the telemetry formats emit:
/// objects (insertion-ordered), arrays, strings, and unsigned integers.
struct JsonValue {
  /// JSON value kind.
  enum class Type : std::uint8_t { kNull, kUInt, kString, kArray, kObject };
  /// The kind of this value.
  Type type = Type::kNull;
  /// Payload for Type::kUInt.
  std::uint64_t number = 0;
  /// Payload for Type::kString.
  std::string text;
  /// Payload for Type::kArray.
  std::vector<JsonValue> array;
  /// Payload for Type::kObject, in document order.
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// Member `key` as an unsigned integer, or `fallback` when absent.
  std::uint64_t uint_or(std::string_view key, std::uint64_t fallback) const;
};

/// Parses a complete JSON document (aborts via COBRA_CHECK, with the
/// byte offset, on malformed input or trailing garbage).
JsonValue parse_json(std::string_view text);

/// Escapes and quotes `s` as a JSON string literal.
std::string json_quote(std::string_view s);

}  // namespace cobra::util
