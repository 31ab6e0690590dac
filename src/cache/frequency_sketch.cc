#include "src/cache/frequency_sketch.h"

#include <algorithm>

namespace rc::cache {

namespace {

// Row seeds (large odd constants): each count-min row sees an independently
// mixed view of the key hash.
constexpr uint64_t kRowSeed[4] = {
    0xc3a5c85c97cb3127ULL,
    0xb492b66fbe98f273ULL,
    0x9ae16a3b2f90404fULL,
    0x85ebca6b27d4eb2fULL,
};

size_t NextPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

uint64_t Mix(uint64_t h, uint64_t seed) {
  uint64_t x = h * seed;
  x ^= x >> 32;
  return x;
}

// Saturating 4-bit increment at `shift` inside `word`; false once saturated.
bool IncrementNibble(uint64_t& word, int shift) {
  if (((word >> shift) & 0xF) == 0xF) return false;
  word += 1ULL << shift;
  return true;
}

}  // namespace

void FrequencySketch::Init(size_t capacity) {
  capacity = std::max<size_t>(capacity, 16);
  table_words_ = NextPow2(capacity);
  table_ = std::make_unique<uint64_t[]>(table_words_);
  door_bits_ = NextPow2(capacity * 4);
  door_ = std::make_unique<uint64_t[]>(door_bits_ / 64);
  sample_size_ = 10 * capacity;
  additions_ = 0;
}

size_t FrequencySketch::CounterIndex(uint64_t hash, int row) const {
  // 16 counters per word: the low 4 bits select the nibble, the rest the word.
  return static_cast<size_t>(Mix(hash, kRowSeed[row])) &
         (table_words_ * 16 - 1);
}

void FrequencySketch::Observe(uint64_t hash) {
  if (table_ == nullptr) return;
  // Doorkeeper: two probe bits. A never-seen key just sets its bits; the
  // count-min rows only see keys accessed at least twice, which keeps
  // one-shot scans out of the counters entirely.
  const size_t b1 = static_cast<size_t>(Mix(hash, kRowSeed[0] ^ kRowSeed[2])) &
                    (door_bits_ - 1);
  const size_t b2 = static_cast<size_t>(Mix(hash, kRowSeed[1] ^ kRowSeed[3])) &
                    (door_bits_ - 1);
  const uint64_t m1 = 1ULL << (b1 & 63);
  const uint64_t m2 = 1ULL << (b2 & 63);
  if ((door_[b1 >> 6] & m1) == 0 || (door_[b2 >> 6] & m2) == 0) {
    door_[b1 >> 6] |= m1;
    door_[b2 >> 6] |= m2;
    ++additions_;
    return;
  }
  bool incremented = false;
  for (int row = 0; row < kDepth; ++row) {
    size_t idx = CounterIndex(hash, row);
    incremented |= IncrementNibble(table_[idx >> 4], (idx & 15) * 4);
  }
  if (incremented) ++additions_;
}

int FrequencySketch::Frequency(uint64_t hash) const {
  if (table_ == nullptr) return 0;
  int freq = 15;
  for (int row = 0; row < kDepth; ++row) {
    size_t idx = CounterIndex(hash, row);
    uint64_t word = table_[idx >> 4];
    freq = std::min(freq, static_cast<int>((word >> ((idx & 15) * 4)) & 0xF));
  }
  const size_t b1 = static_cast<size_t>(Mix(hash, kRowSeed[0] ^ kRowSeed[2])) &
                    (door_bits_ - 1);
  const size_t b2 = static_cast<size_t>(Mix(hash, kRowSeed[1] ^ kRowSeed[3])) &
                    (door_bits_ - 1);
  const bool in_door =
      (door_[b1 >> 6] & (1ULL << (b1 & 63))) != 0 &&
      (door_[b2 >> 6] & (1ULL << (b2 & 63))) != 0;
  return freq + (in_door ? 1 : 0);
}

void FrequencySketch::Reset() {
  if (table_ == nullptr) return;
  // Halve every nibble in place: shift the word right once and mask out the
  // bit that leaked in from the neighboring nibble.
  constexpr uint64_t kHalveMask = 0x7777777777777777ULL;
  for (size_t w = 0; w < table_words_; ++w) table_[w] = (table_[w] >> 1) & kHalveMask;
  std::fill_n(door_.get(), door_bits_ / 64, 0);
  additions_ = sample_size_ / 2;
  ++resets_;
}

}  // namespace rc::cache
