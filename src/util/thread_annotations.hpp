// Clang thread-safety annotation shim (DESIGN.md §17).
//
// Wraps the part of Clang's `-Wthread-safety` attribute set that the
// process-global log sink uses: which mutex guards which state, which
// capability a function requires, and which scopes acquire and release
// it. Under any compiler without the attributes (GCC) every macro expands
// to nothing, so the annotated tree builds everywhere; the dedicated CI
// job compiles with Clang and `-Werror=thread-safety` (see
// cmake/ThreadSafety.cmake, whose negative probe proves the annotations
// are load-bearing). Runs themselves are single-threaded and carry no
// annotations; TSan checks the code that starts threads.
//
// Lock through util::Mutex / util::MutexLock (util/sync.hpp): std::mutex
// under libstdc++ carries no capability attributes.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define DREAMSIM_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef DREAMSIM_THREAD_ANNOTATION
#define DREAMSIM_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a type as a capability (a lock) the analysis tracks. `x` names
/// the capability kind in diagnostics ("mutex").
#define CAPABILITY(x) DREAMSIM_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases a
/// capability (util::MutexLock).
#define SCOPED_CAPABILITY DREAMSIM_THREAD_ANNOTATION(scoped_lockable)

/// Declares that a member is protected by the given capability: every read
/// or write must happen with the capability held.
#define GUARDED_BY(x) DREAMSIM_THREAD_ANNOTATION(guarded_by(x))

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
