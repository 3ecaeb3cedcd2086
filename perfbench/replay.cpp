// cobra_replay — the traced per-layer replay of a perfbench workload.
//
// The measured runs of perfbench/run.py time the shipped `cobra` binary
// end to end, with tracing off. This program re-executes the same work by
// calling each layer's public functions in the order, and with the seeds,
// that the registered experiment cells use (bench/exp_workload.cpp and
// bench/exp_regular_bound.cpp), and times every call from here:
//
//   setup    graph::build_graph_spec, graph::write_cgr_file   (pre-bake)
//   cell     graph::shared_graph | graph::connected_random_regular
//            spectral::compute_lambda_cached (cache cleared first),
//            spectral::estimate_conductance
//            core::NeighborSampler (the estimators' shared sampler)
//            sim::parallel_replicates over CobraProcess / BipsProcess,
//            stepped round by round
//   lanes    the same replicates once at 1 kernel lane and once at the
//            workload's lane count (serial, after the cells)
//
// Its summary rows are formatted exactly as the cells format their CSV
// rows, so run.py can assert that the per-layer numbers describe the
// computation the untraced run archived. Kernel counts come from the
// metrics registry's public drain (session mode "summary"). Spans (name,
// start, end, parent, cell id) are kept in memory and written at exit as
// Chrome trace-event JSON.
//
//   cobra_replay context
//   cobra_replay workload --graphs LIST [--bake LIST --bake-dir DIR]
//                --scale S --seed N --threads T --kernel-threads L
//                --trace-out FILE
//   cobra_replay regular_bound --cells K --scale S --seed N --threads T
//                --kernel-threads L --trace-out FILE
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bips.hpp"
#include "core/bounds.hpp"
#include "core/cobra.hpp"
#include "core/estimators.hpp"
#include "core/metrics.hpp"
#include "graph/binary_io.hpp"
#include "graph/random_generators.hpp"
#include "graph/spec.hpp"
#include "rng/stream.hpp"
#include "sim/experiment.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/stats.hpp"
#include "spectral/conductance.hpp"
#include "spectral/spectral.hpp"
#include "util/env.hpp"
#include "util/metrics.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"

namespace {
using namespace cobra;
using Clock = std::chrono::steady_clock;

std::int64_t elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

// ---------------------------------------------------------------- spans

struct Span {
  std::string name;
  std::string cell;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

// Main-thread span recorder. Scopes nest strictly, so a span's children
// never overlap and its self time is its duration minus theirs.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::string cell)
        : tracer_(tracer), index_(static_cast<int>(tracer.spans_.size())) {
      Span span;
      span.name = std::move(name);
      span.cell = cell.empty() && !tracer.stack_.empty()
                      ? tracer.spans_[tracer.stack_.back()].cell
                      : std::move(cell);
      span.parent = tracer.stack_.empty() ? -1 : tracer.stack_.back();
      span.start_ns = tracer.now_ns();
      tracer.spans_.push_back(std::move(span));
      tracer.stack_.push_back(index_);
    }
    ~Scope() {
      tracer_.spans_[index_].end_ns = tracer_.now_ns();
      tracer_.stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  Scope scope(std::string name, std::string cell = "") {
    return Scope(*this, std::move(name), std::move(cell));
  }

  // Self seconds per span name.
  std::map<std::string, double> self_seconds() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    for (const Span& span : spans_)
      if (span.parent >= 0) self[span.parent] -= span.end_ns - span.start_ns;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
    return out;
  }

  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":" << util::json_quote(s.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << static_cast<double>(s.start_ns) * 1e-3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"cell\":" << util::json_quote(s.cell) << "}}";
    }
    out << "\n]}\n";
  }

 private:
  std::int64_t now_ns() const { return elapsed_ns(origin_, Clock::now()); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ------------------------------------------------------- replicate timing

// Written by exactly one replicate (its own index), summed after the join.
struct ReplicateTiming {
  std::int64_t init_ns = 0;  // process constructor + reset
  std::int64_t body_ns = 0;  // the whole replicate body
  std::int64_t sparse_ns = 0;
  std::int64_t dense_ns = 0;
  std::uint64_t sparse_rounds = 0;
  std::uint64_t dense_rounds = 0;
};

struct KernelTotals {
  std::int64_t sparse_ns = 0;
  std::int64_t dense_ns = 0;
  std::uint64_t sparse_rounds = 0;
  std::uint64_t dense_rounds = 0;
};

struct Replay {
  Tracer tracer;
  std::vector<std::vector<std::string>> rows;
  std::uint64_t edges_built = 0;
  std::uint64_t bytes_written = 0;
  KernelTotals cobra;
  KernelTotals bips;
  std::uint64_t replicates = 0;
  std::int64_t init_ns = 0;
  std::int64_t busy_ns = 0;
  double capacity_s = 0.0;  // Σ workers × parallel_replicates wall
  std::vector<std::shared_ptr<const graph::Graph>> graphs;
};

void fold(Replay& r, KernelTotals& kernel,
          const std::vector<ReplicateTiming>& timing, double wall_s) {
  for (const ReplicateTiming& t : timing) {
    r.init_ns += t.init_ns;
    r.busy_ns += t.body_ns;
    kernel.sparse_ns += t.sparse_ns;
    kernel.dense_ns += t.dense_ns;
    kernel.sparse_rounds += t.sparse_rounds;
    kernel.dense_rounds += t.dense_rounds;
  }
  r.replicates += timing.size();
  const auto workers = std::min<std::uint64_t>(
      timing.size(), static_cast<std::uint64_t>(sim::worker_count()));
  r.capacity_s += static_cast<double>(workers) * wall_s;
}

// One round of `process`, attributed to the sparse or dense engine by the
// process's own dense-round counter.
template <typename Process>
void timed_step(Process& process, rng::Rng& rng, ReplicateTiming& t) {
  const std::uint64_t dense_before = process.dense_rounds();
  const auto start = Clock::now();
  process.step(rng);
  const std::int64_t ns = elapsed_ns(start, Clock::now());
  if (process.dense_rounds() != dense_before) {
    t.dense_ns += ns;
    ++t.dense_rounds;
  } else {
    t.sparse_ns += ns;
    ++t.sparse_rounds;
  }
}

// Drops the timeout sentinels the way the estimators do.
core::TimeSamples collect(const std::vector<double>& rounds) {
  core::TimeSamples out;
  for (const double value : rounds) {
    if (value < 0.0) {
      ++out.timeouts;
      continue;
    }
    out.rounds.push_back(value);
  }
  return out;
}

// core::estimate_cobra_cover, layer by layer.
core::TimeSamples replay_cobra_cover(Replay& r, const graph::Graph& g,
                                     graph::VertexId start,
                                     std::uint64_t replicates,
                                     std::uint64_t seed,
                                     std::uint64_t max_rounds) {
  core::ProcessOptions options;
  options.engine = core::resolve_engine(options.engine);
  if (options.engine != core::Engine::kReference) {
    auto span = r.tracer.scope("sampler.build");
    options.sampler =
        std::make_shared<const core::NeighborSampler>(g, options.laziness);
  }
  std::vector<double> rounds(replicates, 0.0);
  std::vector<ReplicateTiming> timing(replicates);
  const auto wall_start = Clock::now();
  {
    auto span = r.tracer.scope("sched.replicates");
    sim::parallel_replicates(
        replicates, seed, [&](std::uint64_t i, rng::Rng& rng) {
          ReplicateTiming& t = timing[i];
          const auto body_start = Clock::now();
          core::CobraProcess process(g, options);
          process.reset(start);
          t.init_ns = elapsed_ns(body_start, Clock::now());
          std::optional<std::uint64_t> cover;
          if (process.all_visited()) cover = process.round();
          while (!cover && process.round() < max_rounds) {
            timed_step(process, rng, t);
            if (process.all_visited()) cover = process.round();
          }
          rounds[i] = cover ? static_cast<double>(*cover) : -1.0;
          t.body_ns = elapsed_ns(body_start, Clock::now());
        });
  }
  fold(r, r.cobra, timing,
       static_cast<double>(elapsed_ns(wall_start, Clock::now())) * 1e-9);
  return collect(rounds);
}

// core::estimate_bips_infection, layer by layer.
core::TimeSamples replay_bips_infection(Replay& r, const graph::Graph& g,
                                        graph::VertexId source,
                                        std::uint64_t replicates,
                                        std::uint64_t seed,
                                        std::uint64_t max_rounds) {
  core::BipsOptions options;
  options.process.engine = core::resolve_engine(options.process.engine);
  if (options.kernel == core::BipsKernel::kSampling) {
    auto span = r.tracer.scope("sampler.build");
    options.process.sampler = std::make_shared<const core::NeighborSampler>(
        g, options.process.laziness);
  }
  std::vector<double> rounds(replicates, 0.0);
  std::vector<ReplicateTiming> timing(replicates);
  const auto wall_start = Clock::now();
  {
    auto span = r.tracer.scope("sched.replicates");
    sim::parallel_replicates(
        replicates, seed, [&](std::uint64_t i, rng::Rng& rng) {
          ReplicateTiming& t = timing[i];
          const auto body_start = Clock::now();
          core::BipsProcess process(g, source, options);
          t.init_ns = elapsed_ns(body_start, Clock::now());
          std::optional<std::uint64_t> full;
          if (process.fully_infected()) full = process.round();
          while (!full && process.round() < max_rounds) {
            timed_step(process, rng, t);
            if (process.fully_infected()) full = process.round();
          }
          rounds[i] = full ? static_cast<double>(*full) : -1.0;
          t.body_ns = elapsed_ns(body_start, Clock::now());
        });
  }
  fold(r, r.bips, timing,
       static_cast<double>(elapsed_ns(wall_start, Clock::now())) * 1e-9);
  return collect(rounds);
}

std::string csv(double value) { return util::format_double(value, 6); }
std::string csv(std::uint64_t value) { return std::to_string(value); }

// --------------------------------------------------------- the workloads

// bench/exp_workload.cpp's pre-bake step (`cobra graph gen SPEC -o F`).
void replay_bake(Replay& r, const std::string& spec, const std::string& dir) {
  auto setup = r.tracer.scope("setup", spec);
  std::optional<graph::Graph> g;
  {
    auto span = r.tracer.scope("graph.build");
    g.emplace(graph::build_graph_spec(spec));
  }
  r.edges_built += g->num_edges();
  const std::string path = dir + "/" + spec + ".cgr";
  {
    auto span = r.tracer.scope("graph_io.write");
    graph::write_cgr_file(*g, path);
  }
  r.bytes_written += std::filesystem::file_size(path);
}

// bench/exp_workload.cpp: run_workload(spec, label, ctx).
void replay_workload_cell(Replay& r, const std::string& spec) {
  const std::string label = graph::graph_spec_label(spec);
  auto cell = r.tracer.scope("cell", label);
  std::shared_ptr<const graph::Graph> g;
  {
    const bool from_file = graph::is_file_spec(spec);
    auto span = r.tracer.scope(from_file ? "graph_io.open" : "graph.build");
    g = graph::shared_graph(spec);
    if (!from_file) r.edges_built += g->num_edges();
  }
  r.graphs.push_back(g);
  const std::uint64_t reps = sim::default_replicates(16);
  const auto n = static_cast<std::uint64_t>(g->num_vertices());
  const std::uint64_t base =
      rng::derive_seed(util::global_seed(), g->fingerprint());
  const std::uint64_t max_rounds = 200 * n + 100000;

  const auto cover = replay_cobra_cover(r, *g, 0, reps,
                                        rng::derive_seed(base, 1), max_rounds);
  const auto cs = sim::summarize(cover.rounds);
  r.rows.push_back({label, csv(n), csv(g->num_edges()), "cobra-cover",
                    csv(cs.mean), csv(cs.p95), csv(cover.timeouts)});

  const auto infect = replay_bips_infection(
      r, *g, 0, reps, rng::derive_seed(base, 2), max_rounds);
  const auto is = sim::summarize(infect.rounds);
  r.rows.push_back({label, csv(n), csv(g->num_edges()), "bips-infect",
                    csv(is.mean), csv(is.p95), csv(infect.timeouts)});
}

// bench/exp_regular_bound.cpp: run_case(index, ctx) for the four
// random-regular cases (r = 3, 8, 16, 32).
void replay_regular_bound_cell(Replay& r, std::size_t index) {
  static constexpr std::uint32_t kDegrees[] = {3, 8, 16, 32};
  const std::uint32_t degree = kDegrees[index];
  const std::string label = "random_regular r=" + std::to_string(degree);
  auto cell = r.tracer.scope("cell", label);

  const std::uint64_t seed = util::global_seed();
  const std::uint64_t reps = sim::default_replicates(24);
  const auto n_base = static_cast<graph::VertexId>(util::scaled(1024, 128));
  rng::Rng grng = rng::make_stream(rng::derive_seed(seed, 21), index);
  std::optional<graph::Graph> built;
  {
    auto span = r.tracer.scope("graph.build");
    built.emplace(graph::connected_random_regular(n_base, degree, grng));
  }
  const graph::Graph& g = *built;
  r.edges_built += g.num_edges();

  spectral::clear_spectral_cache();
  spectral::SpectralInfo spec;
  {
    auto span = r.tracer.scope("spectral.lambda");
    spec = spectral::compute_lambda_cached(g, seed);
  }
  double phi = 0.0;
  {
    auto span = r.tracer.scope("spectral.conductance");
    phi = spectral::estimate_conductance(g, seed);
  }
  const double margin =
      spectral::gap_condition_margin(spec.lambda, g.num_vertices());
  const double b_new = core::bound_thm12_regular(g.num_vertices(),
                                                 g.max_degree(), spec.lambda);
  const double b_podc =
      core::bound_podc16_regular(g.num_vertices(), spec.lambda);
  const double b_spaa =
      core::bound_spaa16_regular(g.num_vertices(), g.max_degree(), phi);

  const auto samples = replay_cobra_cover(
      r, g, 0, reps, rng::derive_seed(seed, 22),
      static_cast<std::uint64_t>(100.0 * b_new) + 10000);
  const auto s = sim::summarize(samples.rounds);
  const char* winner = (b_new <= b_podc && b_new <= b_spaa) ? "thm1.2"
                       : (b_podc <= b_spaa)                 ? "podc16"
                                                            : "spaa16";
  r.rows.push_back({label, csv(static_cast<std::uint64_t>(g.num_vertices())),
                    csv(static_cast<std::uint64_t>(g.max_degree())),
                    csv(spec.lambda), csv(margin), csv(s.mean), csv(s.p95),
                    csv(b_new), csv(b_podc), csv(b_spaa), csv(s.p95 / b_new),
                    winner});
  r.graphs.push_back(std::make_shared<const graph::Graph>(std::move(*built)));
}

// The same replicates of every cell graph, serially, at 1 lane and at
// `lanes`: process construction (the per-kernel lane pool) plus the
// rounds. Returns t(1 lane) / t(lanes); 1 when the workload runs 1 lane.
double lane_speedup(Replay& r, int lanes, std::uint64_t per_graph) {
  if (lanes <= 1) return 1.0;
  auto span = r.tracer.scope("lanes");
  std::int64_t ns[2] = {0, 0};
  for (const auto& g : r.graphs) {
    const std::uint64_t n = g->num_vertices();
    for (int side = 0; side < 2; ++side) {
      core::ProcessOptions options;
      options.engine = core::resolve_engine(options.engine);
      options.kernel_threads = side == 0 ? 1 : lanes;
      options.sampler =
          std::make_shared<const core::NeighborSampler>(*g, options.laziness);
      core::BipsOptions bips;
      bips.process = options;
      const auto start = Clock::now();
      for (std::uint64_t i = 0; i < per_graph; ++i) {
        rng::Rng cobra_rng = rng::make_stream(1, i);
        core::CobraProcess cobra_process(*g, options);
        cobra_process.reset(0);
        (void)cobra_process.run_until_cover(cobra_rng, 200 * n + 100000);
        rng::Rng bips_rng = rng::make_stream(2, i);
        core::BipsProcess bips_process(*g, 0, bips);
        (void)bips_process.run_until_full(bips_rng, 200 * n + 100000);
      }
      ns[side] += elapsed_ns(start, Clock::now());
    }
  }
  return ns[1] > 0 ? static_cast<double>(ns[0]) / static_cast<double>(ns[1])
                   : 1.0;
}

double per_round_us(std::int64_t ns, std::uint64_t rounds) {
  return rounds ? static_cast<double>(ns) * 1e-3 / static_cast<double>(rounds)
                : 0.0;
}

void print_result(Replay& r, const util::MetricsSnapshot& counts,
                  double lanes_speedup) {
  const auto self = r.tracer.self_seconds();
  auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double build_s = self_of("graph.build");
  const std::int64_t round_ns = r.cobra.sparse_ns + r.cobra.dense_ns +
                                r.bips.sparse_ns + r.bips.dense_ns;
  const std::uint64_t emissions = counts.value_of("kernel.emissions");
  const double busy_s = static_cast<double>(r.busy_ns) * 1e-9;

  std::map<std::string, double> m;
  m["graph.build_s"] = build_s;
  m["graph.build_edges_per_s"] =
      build_s > 0 ? static_cast<double>(r.edges_built) / build_s : 0.0;
  m["graph_io.write_s"] = self_of("graph_io.write");
  m["graph_io.write_bytes"] = static_cast<double>(r.bytes_written);
  m["graph_io.open_s"] = self_of("graph_io.open");
  m["graph.mmap_bytes"] =
      static_cast<double>(counts.value_of("graph.mmap_bytes"));
  m["sampler.build_s"] = self_of("sampler.build");
  m["rng.alias_builds"] =
      static_cast<double>(counts.value_of("rng.alias_builds"));
  m["spectral.lambda_s"] = self_of("spectral.lambda");
  m["spectral.conductance_s"] = self_of("spectral.conductance");
  for (const char* name : {"kernel.rounds", "kernel.rounds_dense",
                           "kernel.emissions", "kernel.words_scanned"})
    m[name] = static_cast<double>(counts.value_of(name));
  m["kernel.round_s"] = static_cast<double>(round_ns) * 1e-9;
  m["kernel.cobra.sparse_round_us"] =
      per_round_us(r.cobra.sparse_ns, r.cobra.sparse_rounds);
  m["kernel.cobra.dense_round_us"] =
      per_round_us(r.cobra.dense_ns, r.cobra.dense_rounds);
  m["kernel.bips.round_us"] =
      per_round_us(r.bips.sparse_ns + r.bips.dense_ns,
                   r.bips.sparse_rounds + r.bips.dense_rounds);
  m["kernel.ns_per_emission"] =
      emissions ? static_cast<double>(round_ns) / static_cast<double>(emissions)
                : 0.0;
  m["kernel.lane_speedup"] = lanes_speedup;
  m["sched.replicates"] = static_cast<double>(r.replicates);
  m["sched.replicate_us"] =
      r.replicates ? busy_s * 1e6 / static_cast<double>(r.replicates) : 0.0;
  m["sched.process_init_us"] =
      r.replicates ? static_cast<double>(r.init_ns) * 1e-3 /
                         static_cast<double>(r.replicates)
                   : 0.0;
  m["sched.busy_s"] = busy_s;
  m["sched.idle_frac"] =
      r.capacity_s > 0 ? std::max(0.0, 1.0 - busy_s / r.capacity_s) : 0.0;

  // The layers whose self times compete for "largest": everything the
  // setup and cell spans cover except the cell bookkeeping itself.
  static constexpr const char* kLayers[] = {
      "graph.build",     "graph_io.write",       "graph_io.open",
      "sampler.build",   "spectral.lambda",      "spectral.conductance",
      "sched.replicates"};
  std::string largest;
  double largest_s = -1.0;
  std::ostringstream layers;
  layers.precision(17);
  for (const char* name : kLayers) {
    const double s = self_of(name);
    layers << (layers.tellp() > 0 ? "," : "") << util::json_quote(name) << ":"
           << s;
    if (s > largest_s) {
      largest_s = s;
      largest = name;
    }
  }

  std::ostringstream out;
  out.precision(17);
  out << "{\"largest_layer\":" << util::json_quote(largest)
      << ",\"layer_self_s\":{" << layers.str() << "},\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : m) {
    out << (first ? "" : ",") << util::json_quote(name) << ":" << value;
    first = false;
  }
  out << "},\"rows\":[";
  for (std::size_t i = 0; i < r.rows.size(); ++i) {
    out << (i ? "," : "") << "[";
    for (std::size_t j = 0; j < r.rows[i].size(); ++j)
      out << (j ? "," : "") << util::json_quote(r.rows[i][j]);
    out << "]";
  }
  out << "]}";
  std::cout << out.str() << "\n";
}

// ------------------------------------------------------------------ main

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::runtime_error("bad flag " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string flag(const std::map<std::string, std::string>& flags,
                 const std::string& key, const std::string& fallback = "") {
  const auto it = flags.find(key);
  if (it != flags.end()) return it->second;
  if (!fallback.empty()) return fallback;
  throw std::runtime_error("missing --" + key);
}

int run(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "context") {
    std::cout << "{\"compiler\":" << util::json_quote(COBRA_REPLAY_COMPILER)
              << ",\"build_type\":" << util::json_quote(COBRA_REPLAY_BUILD_TYPE)
              << ",\"avx2\":" << (util::simd::avx2_available() ? "true" : "false")
              << "}\n";
    return 0;
  }
  if (mode != "workload" && mode != "regular_bound") {
    std::cerr << "usage: cobra_replay context|workload|regular_bound "
                 "[--flag value]...\n";
    return 2;
  }
  const auto flags = parse_flags(argc, argv);
  util::set_scale_override(std::stod(flag(flags, "scale")));
  util::set_seed_override(std::stoull(flag(flags, "seed")));
  util::set_threads_override(std::stoi(flag(flags, "threads")));
  const int lanes = std::stoi(flag(flags, "kernel-threads"));
  util::set_kernel_threads_override(lanes);
  util::set_metrics_override("summary");
  (void)util::MetricsRegistry::instance().drain(true);

  Replay r;
  if (mode == "workload") {
    const std::string bake = flag(flags, "bake", "-");
    if (bake != "-")
      for (const std::string& spec : graph::split_graph_specs(bake))
        replay_bake(r, spec, flag(flags, "bake-dir"));
    for (const std::string& spec :
         graph::split_graph_specs(flag(flags, "graphs")))
      replay_workload_cell(r, spec);
  } else {
    const int cells = std::stoi(flag(flags, "cells"));
    for (int i = 0; i < cells; ++i)
      replay_regular_bound_cell(r, static_cast<std::size_t>(i));
  }
  const util::MetricsSnapshot counts = core::drain_cell_metrics().snapshot;

  // Lane comparison outside the faithful replay, with telemetry off.
  util::set_metrics_override("off");
  const double speedup = lane_speedup(r, lanes, 8);

  print_result(r, counts, speedup);
  r.tracer.write_chrome_trace(flag(flags, "trace-out"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "cobra_replay: " << e.what() << "\n";
    return 1;
  }
}
