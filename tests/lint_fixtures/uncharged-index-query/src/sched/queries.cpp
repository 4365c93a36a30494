// Modeled-effort contract: every function body that calls an indexed
// query must also charge the WorkloadMeter.
struct Index {
  long OldestExactMatch(long key);
  long OldestEligible(long key);
};
struct Meter {
  void Add(long steps);
};
struct Catalogue {
  long FindPreferred(long id, long& steps) const;
  long FindClosestMatch(long area, long& steps) const;
};
struct Queue {
  Index* index_;
  long Bad();
  long Good(Meter& meter);
  long Raw(Index& index);
};

// Positive: a query with no visible charge in the enclosing function.
long Queue::Bad() {
  return index_->OldestExactMatch(3);  // expect: uncharged-index-query
}

// Negative: the charge sits beside the call.
long Queue::Good(Meter& meter) {
  meter.Add(12);
  return index_->OldestEligible(3);
}

// Positive: a catalogue index answer reports the scan's steps, but
// nothing here charges them.
long ClosestUncharged(const Catalogue& catalogue) {
  long steps = 0;
  return catalogue.FindClosestMatch(400, steps);  // expect: uncharged-index-query
}

// Negative: the catalogue answers' steps reach the meter.
long ResolveCharged(const Catalogue& catalogue, Meter& meter) {
  long steps = 0;
  const long exact = catalogue.FindPreferred(2, steps);
  meter.Add(steps);
  return exact;
}

// Negative: only the owner's index_ calls are modeled-effort paths; a
// query on a standalone index (a test oracle) is not.
long Queue::Raw(Index& index) { return index.OldestExactMatch(3); }

// Negative: a qualified name is the query's definition, not a call site.
long Index::OldestExactMatch(long key) { return key; }
