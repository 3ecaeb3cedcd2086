// A persistent, claim-based fork-join team: W worker threads plus the
// calling thread.
//
// Runs the Monte-Carlo replicate fan-out (sim/monte_carlo, one team per
// call), the frontier kernel's in-round lanes (core/frontier_kernel, one
// team per kernel, built on its first parallel pass) and the spectral
// solves' matvec rows (spectral/lanczos, one team per solve).
//
// run(count, fn) publishes one job and then claims indices from a shared
// atomic counter alongside the workers: whichever thread is free takes the
// next index, the caller included, so a worker that is descheduled or still
// asleep never stalls the job — the caller simply runs that index itself.
// A round trip costs a cache-line handoff, not a queue push, a mutex and a
// futex wake-up, and run() allocates nothing. Waiting threads (idle workers
// and the caller joining the last indices) spin for kSpinPauses pauses and
// then park on std::atomic::wait.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/annotations.hpp"

namespace cobra::util {

class ForkJoinTeam {
 public:
  /// Pause iterations a waiting thread spins before it parks: long enough
  /// to span the serial gap between two lane passes of one round, short
  /// enough (well under a millisecond) that an idle team soon stops
  /// burning its CPUs.
  static constexpr int kSpinPauses = 4000;

  /// Spawns `workers` threads (0 is legal: run() then executes every
  /// index on the calling thread).
  explicit ForkJoinTeam(std::size_t workers);
  ~ForkJoinTeam();

  ForkJoinTeam(const ForkJoinTeam&) = delete;
  ForkJoinTeam& operator=(const ForkJoinTeam&) = delete;
  ForkJoinTeam(ForkJoinTeam&&) = delete;
  ForkJoinTeam& operator=(ForkJoinTeam&&) = delete;

  /// run() takes fewer indices than this (2^32 - 1): the claim word keeps
  /// the next index in 32 bits, and this value marks a closed job.
  static constexpr std::uint64_t kCountLimit = 0xFFFFFFFFull;

  /// Number of worker threads (the caller is not counted).
  [[nodiscard]] std::size_t workers() const { return threads_.size(); }

  /// Runs fn(i) exactly once for every i in [0, count) and returns when
  /// all of them have finished. Indices are claimed dynamically, so the
  /// thread an index runs on is unspecified; fn must be safe to call
  /// concurrently for distinct indices. When some fn(i) throw, every
  /// claimed index still runs to completion before the exception of the
  /// lowest throwing index is rethrown. One thread drives a team at a
  /// time, and fn must not call run() on the same team.
  template <typename Fn>
  void run(std::size_t count, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    run_erased(count, const_cast<void*>(static_cast<const void*>(&fn)),
               [](void* ctx, std::size_t i) { (*static_cast<F*>(ctx))(i); });
  }

 private:
  using Invoke = void (*)(void*, std::size_t);

  void run_erased(std::size_t count, void* ctx, Invoke invoke);

  /// Claims and runs indices of the published job until none is left.
  void drain();

  /// Runs one claimed index, recording (not propagating) its exception.
  void execute(Invoke invoke, void* ctx, std::size_t index);

  void worker_loop();

  /// Waits (spin, then park) until `count` indices of the job finished.
  void await_done(std::size_t count);

  /// Joins every worker (destructor, and a constructor that failed).
  void stop();

  // The claim word: generation in the high 32 bits, next unclaimed index in
  // the low 32. Between jobs the index field holds kClosed, which no job's
  // count reaches, and every job opens a fresh generation, so a worker
  // holding a stale word can never claim (see drain()). Each group of
  // atomics below sits on its own cache line: idle workers spin on
  // epoch_, busy ones write claim_ and done_.
  static constexpr std::uint64_t kClosed = kCountLimit;
  alignas(64) std::atomic<std::uint64_t> claim_{kClosed};

  // The published job. Atomics (read relaxed) because a late worker may
  // read them while the next job is being written; a successful claim
  // proves the values it read belong to the claimed generation.
  std::atomic<Invoke> invoke_{nullptr};
  std::atomic<void*> ctx_{nullptr};
  std::atomic<std::size_t> count_{0};

  // Finished indices of the current job; the caller parks on it when its
  // spin budget runs out, and caller_parked_ tells the finisher to notify.
  alignas(64) std::atomic<std::uint32_t> done_{0};
  std::atomic<bool> caller_parked_{false};

  // Bumped once per job (and at shutdown): idle workers spin, then park,
  // on it. sleepers_ lets run() skip the notify syscall when none parked.
  alignas(64) std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> sleepers_{0};
  std::atomic<bool> stopping_{false};

  // Lowest-index exception of the current job (cold path only).
  alignas(64) std::atomic<bool> failed_{false};
  Mutex error_mutex_;
  std::exception_ptr error_ COBRA_GUARDED_BY(error_mutex_);
  std::size_t error_index_ COBRA_GUARDED_BY(error_mutex_) = 0;

  bool running_ = false;  // touched only by the driving thread

  // Declared last: the workers read every member above.
  std::vector<std::thread> threads_;
};

}  // namespace cobra::util
