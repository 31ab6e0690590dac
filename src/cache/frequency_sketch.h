// TinyLFU frequency sketch (DESIGN.md "Admission-controlled caching"): a
// 4-bit count-min sketch with a doorkeeper bloom filter in front and
// periodic halving ("aging"), so an entry's estimated popularity tracks its
// *recent* request rate rather than its lifetime count. The admission policy
// (sharded_cache) compares the sketch frequency of an eviction candidate
// against the main region's victim; one-shot scan keys never accumulate
// enough frequency to displace the hot working set.
//
// Concurrency: none of its own. The sketch is plain integers; the caller
// must serialize every call. Word2Cache owns one sketch per shard and calls
// Observe, Frequency, ShouldReset and Reset only under that shard's `mu`
// (the insert path, the drain of buffered hits and the admission duel), and
// lock-free readers never touch it. Counter increments saturate at 15.
#ifndef RC_SRC_CACHE_FREQUENCY_SKETCH_H_
#define RC_SRC_CACHE_FREQUENCY_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>

namespace rc::cache {

class FrequencySketch {
 public:
  FrequencySketch() = default;

  // Sizes the sketch for ~`capacity` cached entries: one 64-bit word of
  // sixteen 4-bit counters per entry (4x headroom over the 4 hashed rows)
  // and a 4-bits-per-entry doorkeeper. Must be called before any Observe;
  // the cache calls it while building the shard table, before the table is
  // published to readers.
  void Init(size_t capacity);
  bool initialized() const { return table_ != nullptr; }

  // Records one access. First-time keys only set doorkeeper bits; keys seen
  // again increment their four count-min nibbles (saturating at 15).
  void Observe(uint64_t hash);

  // Estimated access count: min of the four nibbles, plus one if the
  // doorkeeper remembers the key. Range [0, 16].
  int Frequency(uint64_t hash) const;

  // True once enough accesses accumulated that counts should be halved.
  bool ShouldReset() const { return sample_size_ > 0 && additions_ >= sample_size_; }

  // Halves every counter and clears the doorkeeper.
  void Reset();

  uint64_t resets() const { return resets_; }

 private:
  static constexpr int kDepth = 4;  // count-min rows

  // Spreads `hash` into the i-th row's counter index.
  size_t CounterIndex(uint64_t hash, int row) const;

  std::unique_ptr<uint64_t[]> table_;  // 16 nibbles per word
  size_t table_words_ = 0;             // power of two
  std::unique_ptr<uint64_t[]> door_;   // doorkeeper bitset
  size_t door_bits_ = 0;               // power of two
  uint64_t sample_size_ = 0;           // reset threshold
  uint64_t additions_ = 0;
  uint64_t resets_ = 0;
};

}  // namespace rc::cache

#endif  // RC_SRC_CACHE_FREQUENCY_SKETCH_H_
