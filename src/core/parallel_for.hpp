// The worker pool behind the sweep and replication drivers: independent
// simulations fanned out over threads that claim indices off one shared
// counter (simulations share nothing, so no further synchronization).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace dreamsim::core {

/// Calls job(i) once for every i in [0, count) on up to `threads` workers
/// (0 = hardware concurrency, never more than `count`). With one worker the
/// jobs run inline on the calling thread, in index order.
template <typename Job>
void ParallelFor(std::size_t count, unsigned threads, const Job& job) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = std::min<unsigned>(
      threads, static_cast<unsigned>(std::max<std::size_t>(1, count)));
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      job(i);
    }
  };
  if (threads == 1) {
    worker();
    return;
  }
  std::vector<std::jthread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
}

}  // namespace dreamsim::core
