#include "util/fork_join_team.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "util/assert.hpp"
#include "util/env.hpp"

namespace cobra::util {
namespace {

/// One spin-wait step: a pause hint on x86, a yield elsewhere.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

/// Runs a job's lead, if it has one, with the thread cap at 1; returns its
/// exception instead of throwing, so the job still joins.
std::exception_ptr run_lead(void* ctx, void (*lead)(void*)) {
  if (lead == nullptr) return nullptr;
  const ScopedThreadCap serial(1);
  try {
    lead(ctx);
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

}  // namespace

ForkJoinTeam::ForkJoinTeam(std::size_t workers) {
  threads_.reserve(workers);
  try {
    for (std::size_t i = 0; i < workers; ++i)
      threads_.emplace_back([this] { worker_loop(); });
  } catch (...) {
    stop();
    throw;
  }
}

ForkJoinTeam::~ForkJoinTeam() { stop(); }

void ForkJoinTeam::stop() {
  stopping_.store(true, std::memory_order_release);
  epoch_.fetch_add(1);
  epoch_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ForkJoinTeam::run_erased(std::size_t count, void* ctx, Invoke invoke,
                              void* lead_ctx, LeadInvoke lead) {
  if (count == 0 && lead == nullptr) return;
  COBRA_CHECK_MSG(!running_, "ForkJoinTeam::run is not re-entrant");
  COBRA_CHECK(count < kClosed);
  std::exception_ptr lead_error;
  if (threads_.empty() || count == 0) {
    lead_error = run_lead(lead_ctx, lead);
    for (std::size_t i = 0; i < count; ++i) execute(invoke, ctx, i);
  } else {
    running_ = true;
    invoke_.store(invoke, std::memory_order_relaxed);
    ctx_.store(ctx, std::memory_order_relaxed);
    count_.store(count, std::memory_order_relaxed);
    done_.store(0, std::memory_order_relaxed);
    // Open a fresh generation (release: a claimant that reads it sees the
    // job above), then wake the team. The seq_cst bump pairs with the
    // sleepers_ increment in worker_loop, so a worker either sees the new
    // epoch before parking or is counted and notified.
    const std::uint64_t generation =
        ((claim_.load(std::memory_order_relaxed) >> 32) + 1) << 32;
    claim_.store(generation, std::memory_order_release);
    epoch_.fetch_add(1);
    if (sleepers_.load() != 0) epoch_.notify_all();
    lead_error = run_lead(lead_ctx, lead);
    drain();
    await_done(count);
    // Close the generation before the next job is written. The acquire
    // exchange orders those writes after it and synchronises with every
    // successful claim, so a worker whose claim succeeded read this job.
    claim_.exchange(generation | kClosed, std::memory_order_acquire);
    running_ = false;
  }
  const std::exception_ptr error = take_error();
  if (lead_error) std::rethrow_exception(lead_error);
  if (error) std::rethrow_exception(error);
}

std::exception_ptr ForkJoinTeam::take_error() {
  if (!failed_.load(std::memory_order_relaxed)) return nullptr;
  std::exception_ptr error;
  {
    MutexLock lock(error_mutex_);
    error = std::move(error_);
    error_ = nullptr;
  }
  failed_.store(false, std::memory_order_relaxed);
  return error;
}

void ForkJoinTeam::drain() {
  std::uint64_t word = claim_.load(std::memory_order_acquire);
  while (true) {
    // Read the job before claiming. If the claim below succeeds, the word
    // was still current, so run() had not closed this generation and the
    // values read are this job's; a stale word fails the exchange, or
    // shows an index at or past the count, and the loop ends.
    const Invoke invoke = invoke_.load(std::memory_order_relaxed);
    void* const ctx = ctx_.load(std::memory_order_relaxed);
    const std::size_t count = count_.load(std::memory_order_relaxed);
    const std::uint64_t index = word & kClosed;
    if (index >= count) return;
    if (!claim_.compare_exchange_weak(word, word + 1,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire))
      continue;
    execute(invoke, ctx, static_cast<std::size_t>(index));
    // seq_cst, paired with await_done's caller_parked_ store: either the
    // finisher sees the caller parked and notifies, or the caller sees
    // the final count before parking.
    if (static_cast<std::size_t>(done_.fetch_add(1)) + 1 == count &&
        caller_parked_.load())
      done_.notify_one();
    word = claim_.load(std::memory_order_acquire);
  }
}

void ForkJoinTeam::execute(Invoke invoke, void* ctx, std::size_t index) {
  try {
    invoke(ctx, index);
  } catch (...) {
    MutexLock lock(error_mutex_);
    if (!error_ || index < error_index_) {
      error_ = std::current_exception();
      error_index_ = index;
    }
    failed_.store(true, std::memory_order_relaxed);
  }
}

void ForkJoinTeam::await_done(std::size_t count) {
  const auto target = static_cast<std::uint32_t>(count);
  std::uint32_t done = done_.load(std::memory_order_acquire);
  for (int spin = 0; done != target && spin < kSpinPauses; ++spin) {
    cpu_relax();
    done = done_.load(std::memory_order_acquire);
  }
  if (done == target) return;
  caller_parked_.store(true);
  while ((done = done_.load()) != target) done_.wait(done);
  caller_parked_.store(false, std::memory_order_relaxed);
}

void ForkJoinTeam::worker_loop() {
  // Starts at 0, not at the current epoch: a job published before this
  // thread got going is still joined (if any index is left).
  std::uint32_t seen = 0;
  while (true) {
    std::uint32_t now = epoch_.load(std::memory_order_acquire);
    for (int spin = 0; now == seen && spin < kSpinPauses; ++spin) {
      cpu_relax();
      now = epoch_.load(std::memory_order_acquire);
    }
    if (now == seen) {
      sleepers_.fetch_add(1);
      while ((now = epoch_.load()) == seen) epoch_.wait(seen);
      sleepers_.fetch_sub(1);
    }
    seen = now;
    if (stopping_.load(std::memory_order_acquire)) return;
    drain();
  }
}

}  // namespace cobra::util
