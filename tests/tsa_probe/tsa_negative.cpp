// Negative thread-safety probe (cmake/ThreadSafety.cmake).
//
// Reads a GUARDED_BY member without holding its util::Mutex. Under Clang
// with -Werror=thread-safety this translation unit MUST fail to compile;
// if it ever builds, the annotations have gone vacuous (e.g. the shim
// expanded to nothing under a compiler that was supposed to enforce them)
// and the configure step aborts. The probe declares its own struct with a
// public member, so the failure it provokes can only come from the
// thread-safety analysis — never from access control.
//
// This file is compiled by try_compile only; it is not part of any
// product or test target.
#include <cstddef>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

struct GuardedCounter {
  dreamsim::util::Mutex mu;
  std::size_t count GUARDED_BY(mu) = 0;
};

std::size_t ProbeEntry(GuardedCounter& counter) {
  return counter.count;  // guarded by counter.mu, read without it: must fail
}
