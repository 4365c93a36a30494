// Positive: a non-owner reaches into ResourceStore's intrusive mirrors.
struct ResourceStore;

void Probe(ResourceStore& store) {
  store.idle_lists_.clear();  // expect: store-internals
  store.busy_area_ = 0;       // expect: store-internals
  ++store.fleet_totals_.wasted_area;  // expect: store-internals
}
