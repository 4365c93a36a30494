// Annotated mutex (DESIGN.md §17).
//
// libstdc++'s std::mutex carries no thread-safety attributes, so Clang's
// analysis cannot check code that locks it directly. These thin wrappers
// add the capability annotations (util/thread_annotations.hpp) while
// delegating every operation to std::mutex: no behavior change, no extra
// state on the lock path. The log sink is their one user.
#pragma once

#include <mutex>

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

}  // namespace dreamsim::util
