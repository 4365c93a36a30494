// Negative: the node threads its free list through the slots' list_pos.
struct ConfigTaskPair {
  unsigned list_pos;
};

void Free(ConfigTaskPair* slots, unsigned slot, unsigned& free_head) {
  slots[slot].list_pos = free_head;
  free_head = slot;
}
