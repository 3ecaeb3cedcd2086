// Pins the frontier kernel's telemetry counters to exact values for every
// kernel process (COBRA, BIPS, flooding and the three gossips) on two
// fixtures, at forced sparse and forced dense, with 1 and 3 lanes. The
// counters are a function of the trajectory and of the representation the
// kernel ran it in, never of the lane count, so a change to how rounds
// are scanned or emitted that keeps every value here keeps the telemetry
// the archives record.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>

#include "baselines/flooding.hpp"
#include "baselines/pull_gossip.hpp"
#include "baselines/push_gossip.hpp"
#include "core/bips.hpp"
#include "core/cobra.hpp"
#include "core/metrics.hpp"
#include "graph/generators.hpp"
#include "graph/random_generators.hpp"
#include "rng/stream.hpp"
#include "util/env.hpp"

namespace cobra::core {
namespace {

/// rounds, rounds_dense, emissions, dedup_hits, draw_streams,
/// words_scanned, merged_words, first_visits, frontier_sum.
using Counters = std::array<std::uint64_t, 9>;

Counters counters_of(const StepMetrics& m) {
  return {m.rounds,       m.rounds_dense, m.emissions,
          m.dedup_hits,   m.draw_streams, m.words_scanned,
          m.merged_words, m.first_visits, m.frontier_sum};
}

const graph::Graph& fixture(int index) {
  static const graph::Graph hypercube = graph::hypercube(6);
  static const graph::Graph regular = [] {
    // 130 vertices: a three-word bitset with a ragged tail word.
    rng::Rng gen = rng::make_stream(2718, 0);
    return graph::connected_random_regular(130, 4, gen);
  }();
  return index == 0 ? hypercube : regular;
}

enum class Proc { kCobra, kBips, kFlooding, kPush, kPull, kPushPull };

/// Runs one process to completion with the session telemetry on and
/// returns the drained counters.
Counters run(Proc proc, int graph_index, Engine engine, int lanes) {
  const graph::Graph& g = fixture(graph_index);
  util::clear_env_overrides();
  util::set_metrics_override("summary");
  (void)drain_session_step_metrics();
  rng::Rng rng = rng::make_stream(31337, static_cast<std::uint64_t>(proc));
  ProcessOptions process;
  process.engine = engine;
  process.kernel_threads = lanes;
  baselines::BaselineOptions baseline;
  baseline.engine = engine;
  baseline.kernel_threads = lanes;
  bool completed = false;
  switch (proc) {
    case Proc::kCobra: {
      CobraProcess p(g, process);
      completed = p.run_until_cover(rng, 100000).has_value();
      break;
    }
    case Proc::kBips: {
      BipsOptions opt;
      opt.process = process;
      BipsProcess p(g, 0, opt);
      completed = p.run_until_full(rng, 100000).has_value();
      break;
    }
    case Proc::kFlooding:
      completed = baselines::flooding_cover(g, 0, 100000, baseline).completed;
      break;
    case Proc::kPush:
      completed =
          baselines::push_gossip_cover(g, 0, rng, 100000, baseline).completed;
      break;
    case Proc::kPull:
      completed =
          baselines::pull_gossip_cover(g, 0, rng, 100000, baseline).completed;
      break;
    case Proc::kPushPull:
      completed = baselines::push_pull_gossip_cover(g, 0, rng, 100000,
                                                    baseline)
                      .completed;
      break;
  }
  EXPECT_TRUE(completed);
  const Counters counters = counters_of(drain_session_step_metrics());
  util::clear_env_overrides();
  return counters;
}

struct Pin {
  Proc proc;
  int graph_index;
  Engine engine;
  Counters expected;
};

// BIPS keeps A_t in the frontier bitset on every engine, so its sparse
// rows (the full sampling scan) count dense rounds and merged words too.
// clang-format off
constexpr Pin kPins[] = {
  {Proc::kCobra, 0, Engine::kSparse, {11, 0, 262, 104, 131, 0, 0, 63, 158}},
  {Proc::kCobra, 0, Engine::kDense, {11, 11, 262, 0, 131, 10, 11, 63, 158}},
  {Proc::kCobra, 1, Engine::kSparse, {14, 0, 1112, 447, 556, 0, 0, 129, 665}},
  {Proc::kCobra, 1, Engine::kDense, {14, 14, 1112, 0, 556, 39, 42, 129, 665}},
  {Proc::kBips, 0, Engine::kSparse, {12, 12, 0, 0, 756, 0, 12, 0, 387}},
  {Proc::kBips, 0, Engine::kDense, {12, 12, 0, 0, 337, 11, 12, 0, 387}},
  {Proc::kBips, 1, Engine::kSparse, {14, 14, 0, 0, 1806, 0, 42, 0, 739}},
  {Proc::kBips, 1, Engine::kDense, {14, 14, 0, 0, 605, 39, 42, 0, 739}},
  {Proc::kFlooding, 0, Engine::kSparse, {6, 0, 0, 315, 0, 0, 0, 63, 63}},
  {Proc::kFlooding, 0, Engine::kDense, {6, 6, 0, 0, 0, 11, 6, 63, 63}},
  {Proc::kFlooding, 1, Engine::kSparse, {5, 0, 0, 251, 0, 0, 0, 129, 129}},
  {Proc::kFlooding, 1, Engine::kDense, {5, 5, 0, 0, 0, 27, 15, 129, 129}},
  {Proc::kPush, 0, Engine::kSparse, {11, 0, 0, 207, 270, 0, 0, 63, 333}},
  {Proc::kPush, 0, Engine::kDense, {11, 11, 0, 0, 270, 10, 11, 63, 333}},
  {Proc::kPush, 1, Engine::kSparse, {17, 0, 0, 812, 941, 0, 0, 129, 1070}},
  {Proc::kPush, 1, Engine::kDense, {17, 17, 0, 0, 941, 48, 51, 129, 1070}},
  {Proc::kPull, 0, Engine::kSparse, {8, 0, 0, 0, 332, 0, 0, 63, 243}},
  {Proc::kPull, 0, Engine::kDense, {8, 8, 0, 0, 332, 7, 8, 63, 243}},
  {Proc::kPull, 1, Engine::kSparse, {13, 0, 0, 0, 1095, 0, 0, 129, 724}},
  {Proc::kPull, 1, Engine::kDense, {13, 13, 0, 0, 1095, 36, 39, 129, 724}},
  {Proc::kPushPull, 0, Engine::kSparse, {8, 0, 0, 14, 512, 0, 0, 63, 273}},
  {Proc::kPushPull, 0, Engine::kDense, {8, 8, 0, 0, 512, 0, 8, 63, 273}},
  {Proc::kPushPull, 1, Engine::kSparse, {10, 0, 0, 40, 1300, 0, 0, 129, 618}},
  {Proc::kPushPull, 1, Engine::kDense, {10, 10, 0, 0, 1300, 0, 30, 129, 618}},
};
// clang-format on

std::string format(const Counters& c) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < c.size(); ++i) os << (i ? ", " : "") << c[i];
  os << '}';
  return os.str();
}

TEST(KernelTelemetry, CountersPinnedAcrossEnginesAndLanes) {
  for (const Pin& pin : kPins) {
    for (const int lanes : {1, 3}) {
      const Counters actual =
          run(pin.proc, pin.graph_index, pin.engine, lanes);
      EXPECT_EQ(actual, pin.expected)
          << "process " << static_cast<int>(pin.proc) << ", graph "
          << pin.graph_index << ", engine " << engine_name(pin.engine)
          << ", lanes " << lanes << ": got " << format(actual);
    }
  }
}

}  // namespace
}  // namespace cobra::core
