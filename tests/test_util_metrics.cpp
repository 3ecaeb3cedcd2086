// The telemetry substrate: metrics-mode parsing, registry slot semantics
// (thread-local, drained at quiescence, exited threads fold into the
// retired slots), snapshot merge monoid laws, and the canonical
// JSON serializer whose write → parse → re-emit round trip is
// byte-identical.
#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "util/assert.hpp"
#include "util/env.hpp"

namespace cobra::util {
namespace {

// ---------------------------------------------------------------------------
// Modes

TEST(MetricsMode, ParseAndNameRoundTrip) {
  for (const char* name : {"off", "summary", "rounds"})
    EXPECT_STREQ(metrics_mode_name(parse_metrics_mode(name)), name);
  EXPECT_THROW(parse_metrics_mode("verbose"), CheckError);
  EXPECT_THROW(parse_metrics_mode(""), CheckError);
}

TEST(MetricsMode, SessionModeFollowsOverride) {
  clear_env_overrides();
  EXPECT_FALSE(metrics_collecting());  // default is off
  set_metrics_override("summary");
  EXPECT_EQ(metrics_mode(), MetricsMode::kSummary);
  EXPECT_TRUE(metrics_collecting());
  set_metrics_override("rounds");
  EXPECT_EQ(metrics_mode(), MetricsMode::kRounds);
  clear_env_overrides();
  EXPECT_EQ(metrics_mode(), MetricsMode::kOff);
}

// ---------------------------------------------------------------------------
// Registry

TEST(MetricsRegistry, RegistrationIsIdempotentAndKindChecked) {
  MetricsRegistry& reg = MetricsRegistry::instance();
  const MetricId a = reg.counter("test.reg.idempotent");
  EXPECT_EQ(reg.counter("test.reg.idempotent"), a);
  EXPECT_THROW(reg.gauge("test.reg.idempotent"), CheckError);
  EXPECT_THROW(reg.histogram("test.reg.idempotent"), CheckError);
  EXPECT_THROW(reg.counter(""), CheckError);
}

TEST(MetricsRegistry, DrainFoldsAndResets) {
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.drain(true);  // isolate from other tests
  const MetricId c = reg.counter("test.reg.count");
  const MetricId g = reg.gauge("test.reg.peak");
  reg.add(c, 3);
  reg.add(c);
  reg.gauge_max(g, 7);
  reg.gauge_max(g, 5);  // lower value must not regress the high-water mark

  MetricsSnapshot snap = reg.drain(true);
  EXPECT_EQ(snap.value_of("test.reg.count"), 4u);
  EXPECT_EQ(snap.value_of("test.reg.peak"), 7u);
  // The reset zeroed the slots: a fresh drain omits the (zero) entries.
  MetricsSnapshot empty = reg.drain(true);
  EXPECT_EQ(empty.find("test.reg.count"), nullptr);
  EXPECT_EQ(empty.find("test.reg.peak"), nullptr);
}

TEST(MetricsRegistry, HistogramBucketsByBitWidth) {
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.drain(true);
  const MetricId h = reg.histogram("test.reg.hist");
  reg.observe(h, 0);    // bucket 0
  reg.observe(h, 1);    // bucket 1
  reg.observe(h, 2);    // bucket 2: [2, 4)
  reg.observe(h, 3);    // bucket 2
  reg.observe(h, 100);  // bucket 7: [64, 128)

  const MetricsSnapshot snap = reg.drain(true);
  const MetricValue* v = snap.find("test.reg.hist");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->kind, MetricKind::kHistogram);
  ASSERT_EQ(v->buckets.size(), kHistogramBuckets);
  EXPECT_EQ(v->buckets[0], 1u);
  EXPECT_EQ(v->buckets[1], 1u);
  EXPECT_EQ(v->buckets[2], 2u);
  EXPECT_EQ(v->buckets[7], 1u);
}

TEST(MetricsRegistry, FoldsThreadsAndSurvivesThreadExit) {
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.drain(true);
  const MetricId c = reg.counter("test.reg.threads");
  const MetricId g = reg.gauge("test.reg.threads_peak");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Hot-loop style: resolve the slot pointer once, bump it raw.
      std::uint64_t* slots = reg.local_slots();
      for (std::uint64_t i = 0; i < kPerThread; ++i) slots[c] += 1;
      reg.gauge_max(g, static_cast<std::uint64_t>(t + 1));
    });
  }
  for (std::thread& t : threads) t.join();
  // Every thread has exited: its slots folded into the retired store, so
  // nothing is lost even though the thread-local arrays are gone.
  const MetricsSnapshot snap = reg.drain(true);
  EXPECT_EQ(snap.value_of("test.reg.threads"), kThreads * kPerThread);
  EXPECT_EQ(snap.value_of("test.reg.threads_peak"),
            static_cast<std::uint64_t>(kThreads));
}

// ---------------------------------------------------------------------------
// Snapshot algebra

MetricsSnapshot make_snapshot(
    std::vector<std::tuple<std::string, MetricKind, std::uint64_t>>
        entries) {
  MetricsSnapshot snap;
  for (auto& [name, kind, value] : entries) {
    MetricValue v;
    v.name = name;
    v.kind = kind;
    if (kind == MetricKind::kHistogram) {
      v.buckets.assign(kHistogramBuckets, 0);
      v.buckets[1] = value;
    } else {
      v.value = value;
    }
    snap.values.push_back(std::move(v));
  }
  return snap;
}

TEST(MetricsSnapshot, MergeIsACommutativeMonoid) {
  const MetricsSnapshot a = make_snapshot(
      {{"c", MetricKind::kCounter, 3},
       {"g", MetricKind::kGauge, 10},
       {"h", MetricKind::kHistogram, 2}});
  const MetricsSnapshot b = make_snapshot(
      {{"c", MetricKind::kCounter, 4},
       {"g", MetricKind::kGauge, 7},
       {"x", MetricKind::kCounter, 1}});
  const MetricsSnapshot c = make_snapshot({{"g", MetricKind::kGauge, 20}});

  const MetricsSnapshot ab = merge(a, b);
  EXPECT_EQ(ab.value_of("c"), 7u);    // counters add
  EXPECT_EQ(ab.value_of("g"), 10u);   // gauges max
  EXPECT_EQ(ab.value_of("x"), 1u);
  EXPECT_EQ(ab.find("h")->buckets[1], 2u);  // histograms add buckets

  // Commutativity and associativity, observed through the serializer.
  EXPECT_EQ(snapshot_to_json(merge(a, b)), snapshot_to_json(merge(b, a)));
  EXPECT_EQ(snapshot_to_json(merge(merge(a, b), c)),
            snapshot_to_json(merge(a, merge(b, c))));
  // The empty snapshot is the identity.
  EXPECT_EQ(snapshot_to_json(merge(a, MetricsSnapshot{})),
            snapshot_to_json(a));
  EXPECT_EQ(snapshot_to_json(merge(MetricsSnapshot{}, a)),
            snapshot_to_json(a));
}

TEST(MetricsSnapshot, MergeRejectsKindMismatch) {
  const MetricsSnapshot a = make_snapshot({{"m", MetricKind::kCounter, 1}});
  const MetricsSnapshot b = make_snapshot({{"m", MetricKind::kGauge, 1}});
  EXPECT_THROW(merge(a, b), CheckError);
}

// ---------------------------------------------------------------------------
// Canonical JSON

TEST(MetricsJson, RoundTripIsByteIdentical) {
  const MetricsSnapshot snap = make_snapshot(
      {{"kernel.rounds", MetricKind::kCounter, 42},
       {"kernel.frontier_peak", MetricKind::kGauge, 1u << 20},
       {"kernel.frontier_size", MetricKind::kHistogram, 17},
       {"rng.alias_builds", MetricKind::kCounter, 3}});
  const std::string json = snapshot_to_json(snap);
  EXPECT_EQ(snapshot_to_json(snapshot_from_json(json)), json);
}

TEST(MetricsJson, EmptySnapshotAndSections) {
  EXPECT_EQ(snapshot_to_json(MetricsSnapshot{}), "{}");
  EXPECT_TRUE(snapshot_from_json("{}").empty());
  // A counters-only snapshot omits the gauge/histogram sections.
  const std::string json = snapshot_to_json(
      make_snapshot({{"c", MetricKind::kCounter, 1}}));
  EXPECT_EQ(json, "{\"counters\":{\"c\":1}}");
}

TEST(MetricsJson, RejectsMalformedInput) {
  EXPECT_THROW(snapshot_from_json("{"), CheckError);
  EXPECT_THROW(snapshot_from_json("[]"), CheckError);
  EXPECT_THROW(snapshot_from_json("{} trailing"), CheckError);
  EXPECT_THROW(snapshot_from_json("{\"counters\":{\"c\":-1}}"), CheckError);
  EXPECT_THROW(snapshot_from_json("{\"counters\":[1]}"), CheckError);
  EXPECT_THROW(
      snapshot_from_json("{\"histograms\":{\"h\":{\"999\":1}}}"),
      CheckError);
}

TEST(MetricsJson, QuoteEscapes) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  // Escaped strings survive a parse.
  const JsonValue v = parse_json(json_quote("tab\there \"q\" \\"));
  EXPECT_EQ(v.text, "tab\there \"q\" \\");
}

TEST(MetricsJson, ParserHandlesDocumentShapes) {
  const JsonValue doc =
      parse_json("{\"a\":1,\"b\":[2,3],\"c\":{\"d\":\"x\"},\"e\":null}");
  EXPECT_EQ(doc.uint_or("a", 0), 1u);
  ASSERT_NE(doc.find("b"), nullptr);
  EXPECT_EQ(doc.find("b")->array.size(), 2u);
  EXPECT_EQ(doc.find("c")->find("d")->text, "x");
  EXPECT_EQ(doc.find("e")->type, JsonValue::Type::kNull);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(parse_json("18446744073709551616"), CheckError);  // overflow
}

}  // namespace
}  // namespace cobra::util
