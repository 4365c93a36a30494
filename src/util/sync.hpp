// Annotated synchronization primitives (DESIGN.md §17).
//
// libstdc++'s std::mutex carries no thread-safety attributes, so Clang's
// analysis cannot check code that locks it directly. These thin wrappers
// add the capability annotations (util/thread_annotations.hpp) while
// delegating every operation to the standard primitives — no behavior
// change, no extra state on the lock path.
//
// ThreadRole is the *phantom* capability for single-writer structures that
// cross threads without a lock: the tracer, sampler and metrics-writer
// buffers. A role is never "locked"; the owning thread asserts it at each
// entry point (AssertHeld), which tells the analysis the capability is
// live and — in debug builds — checks at runtime that every asserting
// thread is the same one.
#pragma once

#include <mutex>

#ifndef NDEBUG
#include <atomic>
#include <cstdlib>
#include <thread>
#endif

#include "util/thread_annotations.hpp"

namespace dreamsim::util {

/// std::mutex with capability annotations. Lock through MutexLock (scoped)
/// or lock()/unlock() when a scope cannot express the critical section.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// Scoped lock (std::lock_guard shape) the analysis understands.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Phantom capability for single-thread ownership ("the simulation thread
/// owns this structure's mutable state"). Guard members with
/// GUARDED_BY(role_), mark internal helpers REQUIRES(role_), and have each
/// public entry point assert the role:
///
///   class Tracer {
///     void OnEvent(...) { role_.AssertHeld(); pending_.push_back(...); }
///     util::ThreadRole role_;
///     std::vector<Event> pending_ GUARDED_BY(role_);
///   };
///
/// Compile time: any new code path that touches guarded state without
/// asserting or requiring the role fails under -Werror=thread-safety.
/// Run time (debug builds): the first AssertHeld() binds the role to the
/// calling thread and every later assert must come from that same thread,
/// so a role asserted from two threads aborts even without Clang.
class CAPABILITY("role") ThreadRole {
 public:
  ThreadRole() = default;
  ThreadRole(const ThreadRole&) = delete;
  ThreadRole& operator=(const ThreadRole&) = delete;

  void AssertHeld() const ASSERT_CAPABILITY(this) {
#ifndef NDEBUG
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id expected{};  // unbound
    if (owner_.compare_exchange_strong(expected, self,
                                       std::memory_order_relaxed)) {
      return;  // first assertion binds the role to this thread
    }
    if (expected != self) std::abort();  // cross-thread role violation
#endif
  }

  /// Hands the role to the next thread that asserts it. Only legal at a
  /// quiescent point (no concurrent asserts possible) — e.g. between runs
  /// when a structure is reused from a different driver thread.
  void Release() const {
#ifndef NDEBUG
    owner_.store(std::thread::id{}, std::memory_order_relaxed);
#endif
  }

 private:
#ifndef NDEBUG
  mutable std::atomic<std::thread::id> owner_{};
#endif
};

}  // namespace dreamsim::util
