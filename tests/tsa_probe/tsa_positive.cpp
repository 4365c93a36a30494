// Positive thread-safety probe (cmake/ThreadSafety.cmake).
//
// The well-locked twin of tsa_negative.cpp: reads the same kind of guarded
// member, but under its mutex. This translation unit MUST compile cleanly
// with -Werror=thread-safety. Together the pair proves the negative
// probe's failure is specific to the missing lock — not a broken include
// path, a C++ standard mismatch, or any other incidental build error that
// would make the negative check pass vacuously.
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
  const dreamsim::util::MutexLock lock(counter.mu);
  return counter.count;
}
