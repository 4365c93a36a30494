// Negative: anyone may read the list position a config-task pair records.
struct ConfigTaskPair {
  unsigned list_pos;
};

unsigned Read(const ConfigTaskPair& pair, unsigned pos) {
  if (pair.list_pos == pos || pair.list_pos <= pos) return pair.list_pos;
  return pos >= pair.list_pos ? pair.list_pos + 1 : 0;
}
