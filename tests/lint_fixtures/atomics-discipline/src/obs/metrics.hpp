// The registry's cell is relaxed-only.
#include <atomic>

struct Cell {
  std::atomic<long> value{0};
  void Bump() { value.fetch_add(1, std::memory_order_relaxed); }
  long Read() const {
    return value.load(std::memory_order_acquire);  // expect: atomics-discipline
  }
};
