#include "util/env.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <thread>

#include "util/assert.hpp"

namespace cobra::util {

namespace {
// CLI-provided values (runner/options) that shadow the environment. Plain
// statics: overrides are applied once at process startup, before any
// experiment code runs.
std::optional<double> scale_override;
std::optional<std::uint64_t> seed_override;
std::optional<int> threads_override;
std::optional<std::string> graphs_override;
std::optional<std::string> metrics_override;
std::optional<int> kernel_threads_override;
// The calling thread's ScopedThreadCap, 0 when none is alive.
thread_local int thread_cap = 0;
}  // namespace

void set_scale_override(double value) {
  COBRA_CHECK_MSG(value > 0.0, "scale override must be positive");
  scale_override = value;
}

void set_seed_override(std::uint64_t value) { seed_override = value; }

void set_threads_override(int value) {
  threads_override = std::clamp(value, 1, 1024);
}

void set_graphs_override(const std::string& value) {
  graphs_override = value;
}

void set_metrics_override(const std::string& value) {
  COBRA_CHECK_MSG(!value.empty(), "metrics override must not be empty");
  metrics_override = value;
}

void set_kernel_threads_override(int value) {
  kernel_threads_override = std::clamp(value, 1, 256);
}

void clear_env_overrides() {
  scale_override.reset();
  seed_override.reset();
  threads_override.reset();
  graphs_override.reset();
  metrics_override.reset();
  kernel_threads_override.reset();
}

double env_double(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const double value = std::strtod(raw, &end);
  if (end == raw) return fallback;
  return value;
}

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const long long value = std::strtoll(raw, &end, 10);
  if (end == raw) return fallback;
  return static_cast<std::int64_t>(value);
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  return (raw == nullptr || *raw == '\0') ? fallback : std::string(raw);
}

double scale() {
  if (scale_override) return *scale_override;
  const double s = env_double("COBRA_SCALE", 1.0);
  return s > 0.0 ? s : 1.0;
}

std::int64_t scaled(std::int64_t base, std::int64_t min_value) {
  const double s = scale();
  const double v = static_cast<double>(base) * s;
  // [-2^63, 2^63) is exactly the range a double converts to int64 in;
  // outside it (or at infinity) the conversion is undefined.
  COBRA_CHECK_MSG(v >= -0x1p63 && v < 0x1p63,
                  "--scale/COBRA_SCALE " << s << " times base " << base
                                         << " does not fit a 64-bit count");
  return std::max<std::int64_t>(min_value, static_cast<std::int64_t>(v));
}

std::uint32_t scaled_u32(std::int64_t base, std::int64_t min_value) {
  const std::int64_t v = scaled(base, min_value);
  COBRA_CHECK_MSG(v >= 0 && v <= 0xFFFFFFFF,
                  "--scale/COBRA_SCALE " << scale() << " times base " << base
                                         << " does not fit a 32-bit count");
  return static_cast<std::uint32_t>(v);
}

int max_threads() {
  int threads = 0;
  if (threads_override) {
    threads = *threads_override;
  } else {
    const auto hw = static_cast<std::int64_t>(
        std::max(1u, std::thread::hardware_concurrency()));
    const std::int64_t cap = env_int("COBRA_THREADS", hw);
    threads = static_cast<int>(std::clamp<std::int64_t>(cap, 1, 1024));
  }
  return thread_cap > 0 ? std::min(threads, thread_cap) : threads;
}

ScopedThreadCap::ScopedThreadCap(int cap) : saved_(thread_cap) {
  cap = std::max(cap, 1);
  thread_cap = saved_ > 0 ? std::min(saved_, cap) : cap;
}

ScopedThreadCap::~ScopedThreadCap() { thread_cap = saved_; }

std::uint64_t global_seed() {
  if (seed_override) return *seed_override;
  return static_cast<std::uint64_t>(env_int("COBRA_SEED", 20170724));
}

std::string graphs() {
  if (graphs_override) return *graphs_override;
  return env_string("COBRA_GRAPHS", "");
}

std::string metrics() {
  if (metrics_override) return *metrics_override;
  return env_string("COBRA_METRICS", "off");
}

int kernel_threads() {
  if (kernel_threads_override) return *kernel_threads_override;
  const std::int64_t lanes = env_int("COBRA_KERNEL_THREADS", 1);
  return static_cast<int>(std::clamp<std::int64_t>(lanes, 1, 256));
}

}  // namespace cobra::util
