// Clang thread-safety annotation shim (DESIGN.md §17).
//
// Wraps Clang's `-Wthread-safety` attribute set so the concurrency
// contracts that TSan and the differential suites check at runtime are also
// enforced at compile time: which mutex guards which member, which
// capability a function requires, and which scopes acquire/release. Under
// any compiler without the attributes (GCC) every macro expands to nothing,
// so the annotated tree builds everywhere; the dedicated CI job compiles
// with Clang and `-Werror=thread-safety` (see cmake/ThreadSafety.cmake,
// which also proves the annotations are load-bearing with a negative
// compile check).
//
// Use the annotated primitives in util/sync.hpp (util::Mutex,
// util::MutexLock, util::ThreadRole) — std::mutex under
// libstdc++ carries no capability attributes, so the analysis cannot see
// plain standard-library locks.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define DREAMSIM_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef DREAMSIM_THREAD_ANNOTATION
#define DREAMSIM_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a type as a capability (a lock, or a phantom role) the analysis
/// tracks. `x` names the capability kind in diagnostics ("mutex", "role").
#define CAPABILITY(x) DREAMSIM_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases a
/// capability (util::MutexLock).
#define SCOPED_CAPABILITY DREAMSIM_THREAD_ANNOTATION(scoped_lockable)

/// Declares that a member is protected by the given capability: every read
/// or write must happen with the capability held.
#define GUARDED_BY(x) DREAMSIM_THREAD_ANNOTATION(guarded_by(x))

/// Like GUARDED_BY for the data a pointer points to.
#define PT_GUARDED_BY(x) DREAMSIM_THREAD_ANNOTATION(pt_guarded_by(x))

/// The function may only be called while holding the capability; it is
/// still held on return.
#define REQUIRES(...) \
  DREAMSIM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// The function acquires the capability (and must be called without it).
#define ACQUIRE(...) \
  DREAMSIM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// The function releases the capability (and must be called with it).
#define RELEASE(...) \
  DREAMSIM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// The function acquires the capability when it returns `b`.
#define TRY_ACQUIRE(b, ...) \
  DREAMSIM_THREAD_ANNOTATION(try_acquire_capability(b, __VA_ARGS__))

/// The function must be called *without* the capability (deadlock guard).
#define EXCLUDES(...) DREAMSIM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Tells the analysis the capability is held here without acquiring it —
/// the bridge for facts the analysis cannot see (a thread role established
/// at thread entry, a lock handed across a queue). util::ThreadRole backs
/// this with a debug-build runtime owner check so asserted roles stay
/// honest under plain ctest too.
#define ASSERT_CAPABILITY(x) DREAMSIM_THREAD_ANNOTATION(assert_capability(x))

/// Returns the capability object guarding the returned data.
#define RETURN_CAPABILITY(x) DREAMSIM_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Use only with a
/// comment explaining which invariant makes the unchecked access safe.
#define NO_THREAD_SAFETY_ANALYSIS \
  DREAMSIM_THREAD_ANNOTATION(no_thread_safety_analysis)
