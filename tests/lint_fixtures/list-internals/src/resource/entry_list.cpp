// Negative: entry_list.cpp is the owner and touches its state freely.
void Reset() {
  int cells_ = 0;
  (void)cells_;
}
