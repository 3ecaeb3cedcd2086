// Clang thread-safety annotations and the annotated mutex the shared-state
// modules use (docs/ARCHITECTURE.md, "Static analysis & the determinism
// contract").
//
// The determinism contract (archives byte-identical at every lane count
// and metrics mode) leans on a handful of carefully guarded shared
// structures: the fork-join team's lowest-index exception slot, the metrics
// registry's slot bookkeeping, the spectral and graph caches, and the sweep
// supervisor's shard board. Clang's -Wthread-safety analysis proves, at compile time,
// that every access to those structures happens under the declared lock —
// the static counterpart of the TSan CI job.
//
// Everything here is a no-op on non-clang compilers: the macros expand to
// nothing and Mutex/MutexLock compile down to std::mutex/std::unique_lock
// exactly (the bench baselines gate the hot paths at zero overhead either
// way). libstdc++'s std::mutex carries no capability attributes, so the
// analysis needs this thin annotated wrapper — the same approach Abseil
// takes — rather than raw std::mutex members.
#pragma once

#include <mutex>

#if defined(__clang__)
#define COBRA_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define COBRA_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Declares a type to be a capability ("mutex") the analysis can track.
#define COBRA_CAPABILITY(x) COBRA_THREAD_ANNOTATION(capability(x))

/// Declares that a member/variable may only be accessed while holding `x`.
#define COBRA_GUARDED_BY(x) COBRA_THREAD_ANNOTATION(guarded_by(x))

/// Declares that the pointed-to data may only be accessed holding `x`.
#define COBRA_PT_GUARDED_BY(x) COBRA_THREAD_ANNOTATION(pt_guarded_by(x))

/// Declares that a function may only be called while holding `...`.
#define COBRA_REQUIRES(...) \
  COBRA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Declares that a function acquires `...` and does not release it.
#define COBRA_ACQUIRE(...) \
  COBRA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Declares that a function releases `...`.
#define COBRA_RELEASE(...) \
  COBRA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Declares that a function must be called *without* holding `...`
/// (deadlock prevention: re-entry on a non-recursive mutex).
#define COBRA_EXCLUDES(...) \
  COBRA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Declares a try-lock: acquires `...` iff the return value is `result`.
#define COBRA_TRY_ACQUIRE(result, ...) \
  COBRA_THREAD_ANNOTATION(try_acquire_capability(result, __VA_ARGS__))

/// Declares an RAII type whose constructor acquires and destructor
/// releases a capability.
#define COBRA_SCOPED_CAPABILITY COBRA_THREAD_ANNOTATION(scoped_lockable)

/// Escape hatch: disables the analysis inside one function. Every use
/// needs a comment justifying why the analysis cannot see the invariant.
#define COBRA_NO_THREAD_SAFETY_ANALYSIS \
  COBRA_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace cobra::util {

/// std::mutex with capability annotations: lock()/unlock() teach the
/// analysis when the capability is held, so COBRA_GUARDED_BY members are
/// checked at every access. Same size and cost as std::mutex.
class COBRA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// Acquires the mutex (blocking).
  void lock() COBRA_ACQUIRE() { mu_.lock(); }
  /// Releases the mutex.
  void unlock() COBRA_RELEASE() { mu_.unlock(); }
  /// Acquires the mutex iff it returns true.
  bool try_lock() COBRA_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped std::mutex, for interop that needs the real type
  /// (std::condition_variable waits on std::unique_lock<std::mutex>).
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// Scoped lock over Mutex (the std::lock_guard/std::unique_lock of the
/// annotated world). Holds from construction to destruction; waiting on a
/// condition variable through native() is invisible to the analysis, which
/// conservatively treats the capability as held throughout — exactly the
/// invariant a cv wait re-establishes before returning.
class COBRA_SCOPED_CAPABILITY MutexLock {
 public:
  /// Acquires `mu` for the lifetime of the lock.
  explicit MutexLock(Mutex& mu) COBRA_ACQUIRE(mu) : lock_(mu.native()) {}
  ~MutexLock() COBRA_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// The underlying std::unique_lock, for condition-variable waits.
  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace cobra::util
