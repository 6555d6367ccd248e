// FlatJoinTable: the engine's one hash table from int64 keys to the
// row positions holding them. The hash join keys it by an INT build
// column; a relstore table's declared index is one, built lazily over
// the indexed column and probed by the index-nested-loop join and the
// partition build's rid lookups (relstore/table.h); the CVD record
// manager keys it by record content hashes (commit resolution,
// primary-key checks, merging-checkout dedupe) and by rids (edge
// weights, diff).
//
// Callers compute the keys. Power-of-two open-addressing slots hold
// {key, head row} (multiplicative hashing, linear probing, load at
// most 1/2); next_[row] chains the further rows holding the same key.
// The build walks rows in reverse and pushes each onto the front of
// its key's chain, so every chain lists its rows in ascending order —
// callers that want "the first equal row" walk a chain front to back.
// Built serially and read-only afterwards, so any number of threads
// may probe it concurrently.

#ifndef ORPHEUS_COMMON_FLAT_JOIN_TABLE_H_
#define ORPHEUS_COMMON_FLAT_JOIN_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace orpheus {

class FlatJoinTable {
 public:
  static constexpr uint32_t kEnd = UINT32_MAX;

  // Indexes row i under keys[i] for every i with !skip(i).
  template <typename SkipFn>
  void Build(const std::vector<int64_t>& keys, SkipFn skip) {
    next_.assign(keys.size(), kEnd);
    size_t capacity = 2;
    shift_ = 63;
    while (capacity < 2 * keys.size()) {
      capacity *= 2;
      --shift_;
    }
    slots_.assign(capacity, Slot{0, kEnd});
    num_keys_ = 0;
    for (size_t i = keys.size(); i-- > 0;) {
      if (skip(i)) continue;
      Slot& slot = slots_[SlotOf(keys[i])];
      if (slot.head == kEnd) {
        slot.key = keys[i];
        ++num_keys_;
      }
      next_[i] = slot.head;
      slot.head = static_cast<uint32_t>(i);
    }
  }
  void Build(const std::vector<int64_t>& keys) {
    Build(keys, [](size_t) { return false; });
  }

  // Lowest row holding `key`, or kEnd.
  uint32_t Find(int64_t key) const { return slots_[SlotOf(key)].head; }
  // Next row holding the same key as `row`, or kEnd.
  uint32_t Next(uint32_t row) const { return next_[row]; }
  size_t num_keys() const { return num_keys_; }

 private:
  struct Slot {
    int64_t key;
    uint32_t head;  // kEnd: empty slot
  };

  // The slot holding `key`, else the empty slot that ends its probe.
  size_t SlotOf(int64_t key) const {
    const size_t mask = slots_.size() - 1;
    size_t s = static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
    while (slots_[s].head != kEnd && slots_[s].key != key) s = (s + 1) & mask;
    return s;
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> next_;
  int shift_ = 63;
  size_t num_keys_ = 0;
};

}  // namespace orpheus

#endif  // ORPHEUS_COMMON_FLAT_JOIN_TABLE_H_
