// Positive: a non-owner pokes EntryList's cells or writes the list position
// a config-task pair records.
struct EntryList;
struct ConfigTaskPair;

void Poke(EntryList& list, ConfigTaskPair& pair, ConfigTaskPair* slots) {
  list.cells_[0].next = 0;  // expect: list-internals
  pair.list_pos = 3;        // expect: list-internals
  pair.list_pos += 1;       // expect: list-internals
  slots[2].list_pos--;      // expect: list-internals
  ++slots[1].list_pos;      // expect: list-internals
  --slots->list_pos;        // expect: list-internals
}
