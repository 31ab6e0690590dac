#include "src/cache/sharded_cache.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <vector>

#include "src/common/hashing.h"

namespace rc::cache {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;
constexpr auto kAcquire = std::memory_order_acquire;
constexpr auto kRelease = std::memory_order_release;

constexpr uint32_t kNil = 0xFFFFFFFFu;
constexpr uint8_t kCtrlEmpty = 0;
constexpr uint8_t kCtrlTombstone = 1;

std::atomic<uint64_t> g_shard_lock_count{0};

// Per-shard read buffers (see Shard::reads): stripes and entries per stripe.
constexpr size_t kReadStripes = 8;
constexpr size_t kReadBufferSize = 256;

// The read-buffer stripe this thread appends to in every shard, assigned
// round-robin on first use so up to kReadStripes threads never share one.
size_t ReadStripe() {
  static std::atomic<size_t> next{0};
  thread_local const size_t stripe = next.fetch_add(1, kRelaxed) % kReadStripes;
  return stripe;
}

// Control byte for a present entry: high bit set plus 7 tag bits from the
// top of the mixed hash (disjoint from the probe-start bits), so a probe
// touches the 32-byte slot only when the tag already agrees.
uint8_t TagFor(uint64_t h) { return static_cast<uint8_t>(0x80u | (h >> 57)); }

size_t NextPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// One cached entry as readers see it. All fields are atomics so the seqlock
// read protocol is expressible without fences and visible to TSan as plain
// atomic traffic: writers bump `seq` odd (acq_rel RMW — later stores cannot
// hoist above it), store the fields with release, then bump `seq` even with
// release; readers load `seq` with acquire, load the fields with acquire
// (which pins the revalidating `seq` load after them), and retry on any
// mismatch or odd value.
struct Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> key{0};
  std::atomic<uint64_t> w0{0};
  std::atomic<uint64_t> w1{0};
};

enum Region : uint8_t { kFree = 0, kWindow = 1, kProbation = 2, kProtected = 3 };

// Writer-side per-slot policy metadata: intrusive LRU links + region tag.
struct Meta {
  uint32_t prev = kNil;
  uint32_t next = kNil;
  uint8_t region = kFree;
};

struct List {
  uint32_t head = kNil;  // LRU end (eviction candidates)
  uint32_t tail = kNil;  // MRU end
  size_t size = 0;
};

}  // namespace

uint64_t ShardLockAcquisitions() { return g_shard_lock_count.load(kRelaxed); }

struct Word2Cache::Shard {
  mutable std::mutex mu;  // writers only; the hit path never touches it

  // Reader-visible table, published with a release store of `ctrl` after
  // everything else is initialized under mu (lazy: a never-inserted shard
  // costs two null pointers).
  std::atomic<std::atomic<uint8_t>*> ctrl{nullptr};
  std::atomic<Slot*> slots{nullptr};
  size_t table_mask = 0;
  std::unique_ptr<std::atomic<uint8_t>[]> ctrl_storage;
  std::unique_ptr<Slot[]> slots_storage;

  FrequencySketch sketch;  // read and written only under mu

  // Lossy per-thread read buffers (Caffeine's striped read buffer): a hit
  // appends its key to the stripe its thread is pinned to, the writer drains
  // every stripe on insert into the sketch (frequency) and the LRU lists
  // (recency). A stripe's head is written by its owner thread only, so a hit
  // stores into cache lines no other reader writes. An overrun drops the
  // oldest events, and threads beyond kReadStripes share stripes and may
  // drop each other's — the policy is an approximation either way.
  struct alignas(64) ReadBuffer {
    std::atomic<uint64_t> head{0};
    uint64_t tail = 0;  // guarded by mu
    alignas(64) std::atomic<uint64_t> keys[kReadBufferSize];
  };
  std::unique_ptr<ReadBuffer[]> reads;  // kReadStripes, allocated with the table

  // W-TinyLFU policy state; all guarded by mu.
  std::vector<Meta> meta;
  List window, probation, prot;
  size_t capacity = 0;
  size_t window_cap = 0;
  size_t main_cap = 0;
  size_t protected_cap = 0;
  size_t entries = 0;
  size_t tombstones = 0;
};

Word2Cache::Word2Cache(const CacheOptions& options) : options_(options) {
  const size_t shard_count =
      NextPow2(std::clamp<size_t>(options_.shards, 1, 256));
  shard_mask_ = shard_count - 1;
  shard_capacity_ =
      options_.capacity == 0
          ? 0
          : std::max<size_t>(1, options_.capacity / shard_count);
  shards_ = std::make_unique<Shard[]>(shard_count);
  for (size_t i = 0; i <= shard_mask_; ++i) {
    Shard& s = shards_[i];
    s.capacity = shard_capacity_;
    if (!options_.admission) {
      // Plain-LRU control arm: the window is the whole cache.
      s.window_cap = s.capacity;
    } else {
      s.window_cap = std::max<size_t>(
          1, static_cast<size_t>(
                 std::llround(static_cast<double>(s.capacity) *
                              options_.window_fraction)));
      s.window_cap = std::min(s.window_cap, s.capacity);
      s.main_cap = s.capacity - s.window_cap;
      s.protected_cap = static_cast<size_t>(
          std::llround(static_cast<double>(s.main_cap) *
                       options_.protected_fraction));
    }
  }
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<rc::obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  RegisterInstruments();
}

Word2Cache::~Word2Cache() = default;

void Word2Cache::RegisterInstruments() {
  auto labeled = [this](const char* key, const char* value) {
    rc::obs::Labels labels = options_.metric_labels;
    labels.emplace_back(key, value);
    return labels;
  };
  m_.entries = &metrics_->GetGauge("rc_cache_entries", options_.metric_labels,
                                   "live cached entries across shards");
  m_.admit_rejects =
      &metrics_->GetCounter("rc_cache_admit_rejects", options_.metric_labels,
                            "window candidates rejected by TinyLFU admission");
  m_.evictions_window = &metrics_->GetCounter(
      "rc_cache_evictions", labeled("region", "window"), "evictions by region");
  m_.evictions_probation =
      &metrics_->GetCounter("rc_cache_evictions", labeled("region", "probation"));
  m_.evictions_protected =
      &metrics_->GetCounter("rc_cache_evictions", labeled("region", "protected"));
  m_.sketch_resets =
      &metrics_->GetCounter("rc_cache_sketch_resets", options_.metric_labels,
                            "frequency-sketch halving events");
  m_.probe_retries = &metrics_->GetCounter(
      "rc_cache_probe_retries", options_.metric_labels,
      "seqlock validation failures on the lock-free probe path");
  m_.rebuilds =
      &metrics_->GetCounter("rc_cache_rebuilds", options_.metric_labels,
                            "tombstone-compaction table rebuilds");
}

Word2Cache::Shard& Word2Cache::ShardFor(uint64_t mixed_hash) const {
  return shards_[mixed_hash & shard_mask_];
}

namespace {

// --- intrusive LRU list helpers (writer lock held) ---

void ListPushBack(std::vector<Meta>& meta, List& list, uint32_t idx,
                  uint8_t region) {
  Meta& m = meta[idx];
  m.region = region;
  m.next = kNil;
  m.prev = list.tail;
  if (list.tail != kNil) meta[list.tail].next = idx;
  list.tail = idx;
  if (list.head == kNil) list.head = idx;
  list.size += 1;
}

void ListRemove(std::vector<Meta>& meta, List& list, uint32_t idx) {
  Meta& m = meta[idx];
  if (m.prev != kNil) meta[m.prev].next = m.next; else list.head = m.next;
  if (m.next != kNil) meta[m.next].prev = m.prev; else list.tail = m.prev;
  m.prev = m.next = kNil;
  list.size -= 1;
}

// Seqlock write cycle over one slot. Requires the shard writer lock.
void SeqlockWrite(Slot& slot, uint64_t key, uint64_t w0, uint64_t w1) {
  slot.seq.fetch_add(1, std::memory_order_acq_rel);  // odd: readers back off
  slot.key.store(key, std::memory_order_release);
  slot.w0.store(w0, std::memory_order_release);
  slot.w1.store(w1, std::memory_order_release);
  slot.seq.fetch_add(1, std::memory_order_release);  // even: stable again
}

}  // namespace

bool Word2Cache::Lookup(uint64_t key, uint64_t out[2]) const {
  if (shard_capacity_ == 0) return false;
  const uint64_t h = HashU64(key);
  Shard& s = ShardFor(h);
  std::atomic<uint8_t>* ctrl = s.ctrl.load(kAcquire);
  if (ctrl == nullptr) return false;  // shard never written
  Slot* slots = s.slots.load(kRelaxed);  // published before ctrl
  const size_t mask = s.table_mask;
  const uint8_t tag = TagFor(h);
  size_t i = (h >> 8) & mask;
  for (size_t n = 0; n <= mask; ++n, i = (i + 1) & mask) {
    const uint8_t c = ctrl[i].load(kAcquire);
    if (c == kCtrlEmpty) return false;
    if (c != tag) continue;  // tombstone or different 7-bit tag
    Slot& slot = slots[i];
    for (int attempt = 0; attempt < 8; ++attempt) {
      const uint64_t s1 = slot.seq.load(kAcquire);
      if (s1 & 1) {  // writer mid-cycle
        m_.probe_retries->Increment();
        continue;
      }
      const uint64_t k = slot.key.load(kAcquire);
      const uint64_t a = slot.w0.load(kAcquire);
      const uint64_t b = slot.w1.load(kAcquire);
      if (slot.seq.load(kRelaxed) != s1) {  // torn: slot changed under us
        m_.probe_retries->Increment();
        continue;
      }
      if (k != key) break;  // tag collision: keep probing the chain
      out[0] = a;
      out[1] = b;
      // Record the access for the next writer to apply (lossy, lock-free).
      Shard::ReadBuffer& buffer = s.reads[ReadStripe()];
      const uint64_t pos = buffer.head.load(kRelaxed);
      buffer.keys[pos & (kReadBufferSize - 1)].store(key, kRelaxed);
      buffer.head.store(pos + 1, kRelease);
      return true;
    }
    // Retries exhausted under writer churn: treat as a miss for this slot
    // and keep probing — a false miss is safe, a torn value is not.
  }
  return false;
}

// --- write side; every method below requires the shard lock ---

void Word2Cache::Insert(uint64_t key, const uint64_t value[2],
                        uint64_t epoch_token) {
  if (shard_capacity_ == 0) return;
  const uint64_t h = HashU64(key);
  Shard& s = ShardFor(h);
  g_shard_lock_count.fetch_add(1, kRelaxed);
  std::lock_guard<std::mutex> lock(s.mu);
  // An invalidation ran after the caller read its token; dropping the insert
  // keeps stale values from outliving the invalidation. (If the epoch bumps
  // after this check, Invalidate's pending per-shard clear — which takes
  // this same lock — removes the entry.)
  if (epoch_.load(kAcquire) != epoch_token) return;
  EnsureTableLocked(s);
  DrainReadsLocked(s);
  s.sketch.Observe(h);
  if (s.sketch.ShouldReset()) {
    s.sketch.Reset();
    m_.sketch_resets->Increment();
  }
  uint32_t idx = FindSlotLocked(s, key, h);
  if (idx != kNil) {  // present: update value in place, refresh recency
    SeqlockWrite(s.slots_storage[idx], key, value[0], value[1]);
    TouchLocked(s, idx);
    return;
  }
  idx = PlaceLocked(s, key, h, value);
  ListPushBack(s.meta, s.window, idx, kWindow);
  s.entries += 1;
  total_entries_.fetch_add(1, kRelaxed);
  // A new arrival always lands in the window; overflow sheds the window's
  // LRU candidate through TinyLFU admission — one entry per insert, never a
  // shard flush.
  while (s.window.size > s.window_cap) EvictFromWindowLocked(s);
  m_.entries->Set(static_cast<double>(total_entries_.load(kRelaxed)));
  MaybeRebuildLocked(s);
}

void Word2Cache::EnsureTableLocked(Shard& s) {
  if (s.ctrl.load(kRelaxed) != nullptr) return;
  const size_t table = NextPow2(std::max<size_t>(64, s.capacity * 2));
  s.table_mask = table - 1;
  s.ctrl_storage = std::make_unique<std::atomic<uint8_t>[]>(table);
  s.slots_storage = std::make_unique<Slot[]>(table);
  s.reads = std::make_unique<Shard::ReadBuffer[]>(kReadStripes);
  s.meta.assign(table, Meta{});
  s.sketch.Init(s.capacity);
  s.slots.store(s.slots_storage.get(), kRelease);
  // Publishing ctrl last makes every prior write visible to the lock-free
  // reader that acquires it.
  s.ctrl.store(s.ctrl_storage.get(), kRelease);
}

uint32_t Word2Cache::FindSlotLocked(const Shard& s, uint64_t key, uint64_t h) {
  const std::atomic<uint8_t>* ctrl = s.ctrl.load(kRelaxed);
  const size_t mask = s.table_mask;
  const uint8_t tag = TagFor(h);
  size_t i = (h >> 8) & mask;
  for (size_t n = 0; n <= mask; ++n, i = (i + 1) & mask) {
    const uint8_t c = ctrl[i].load(kRelaxed);
    if (c == kCtrlEmpty) return kNil;
    if (c != tag) continue;
    if (s.slots_storage[i].key.load(kRelaxed) == key) {
      return static_cast<uint32_t>(i);
    }
  }
  return kNil;
}

uint32_t Word2Cache::PlaceLocked(Shard& s, uint64_t key, uint64_t h,
                                 const uint64_t value[2]) {
  const size_t mask = s.table_mask;
  size_t i = (h >> 8) & mask;
  size_t target = SIZE_MAX;
  for (size_t n = 0; n <= mask; ++n, i = (i + 1) & mask) {
    const uint8_t c = s.ctrl_storage[i].load(kRelaxed);
    if (c == kCtrlTombstone && target == SIZE_MAX) target = i;
    if (c == kCtrlEmpty) {
      if (target == SIZE_MAX) target = i;
      break;
    }
  }
  if (s.ctrl_storage[target].load(kRelaxed) == kCtrlTombstone) {
    s.tombstones -= 1;
  }
  SeqlockWrite(s.slots_storage[target], key, value[0], value[1]);
  // Tag after the slot write: a reader never sees a tagged, unwritten slot.
  s.ctrl_storage[target].store(TagFor(h), kRelease);
  s.meta[target] = Meta{};
  return static_cast<uint32_t>(target);
}

void Word2Cache::EvictSlotLocked(Shard& s, uint32_t idx) {
  SeqlockWrite(s.slots_storage[idx], 0, 0, 0);
  s.ctrl_storage[idx].store(kCtrlTombstone, kRelease);
  s.meta[idx].region = kFree;
  s.entries -= 1;
  s.tombstones += 1;
  total_entries_.fetch_sub(1, kRelaxed);
}

void Word2Cache::EvictFromWindowLocked(Shard& s) {
  const uint32_t cand = s.window.head;
  ListRemove(s.meta, s.window, cand);
  if (s.main_cap == 0) {  // plain-LRU mode (or degenerate tiny cache)
    EvictSlotLocked(s, cand);
    m_.evictions_window->Increment();
    return;
  }
  if (s.probation.size + s.prot.size < s.main_cap) {
    ListPushBack(s.meta, s.probation, cand, kProbation);
    return;
  }
  // Admission duel: the window candidate displaces the main region's victim
  // only if the sketch says it is the more frequent key.
  const uint32_t victim =
      s.probation.head != kNil ? s.probation.head : s.prot.head;
  const uint64_t cand_key = s.slots_storage[cand].key.load(kRelaxed);
  const uint64_t victim_key = s.slots_storage[victim].key.load(kRelaxed);
  const int cand_freq = s.sketch.Frequency(HashU64(cand_key));
  const int victim_freq = s.sketch.Frequency(HashU64(victim_key));
  if (cand_freq > victim_freq) {
    const bool from_protected = s.meta[victim].region == kProtected;
    ListRemove(s.meta, from_protected ? s.prot : s.probation, victim);
    EvictSlotLocked(s, victim);
    (from_protected ? m_.evictions_protected : m_.evictions_probation)
        ->Increment();
    ListPushBack(s.meta, s.probation, cand, kProbation);
  } else {
    EvictSlotLocked(s, cand);
    m_.evictions_window->Increment();
    m_.admit_rejects->Increment();
  }
}

void Word2Cache::TouchLocked(Shard& s, uint32_t idx) {
  switch (s.meta[idx].region) {
    case kWindow:
      ListRemove(s.meta, s.window, idx);
      ListPushBack(s.meta, s.window, idx, kWindow);
      break;
    case kProbation:
      // Re-accessed on probation: promote. The protected segment sheds its
      // own LRU back to probation when over budget (no eviction).
      ListRemove(s.meta, s.probation, idx);
      ListPushBack(s.meta, s.prot, idx, kProtected);
      while (s.prot.size > s.protected_cap && s.prot.head != kNil) {
        const uint32_t demoted = s.prot.head;
        ListRemove(s.meta, s.prot, demoted);
        ListPushBack(s.meta, s.probation, demoted, kProbation);
      }
      break;
    case kProtected:
      ListRemove(s.meta, s.prot, idx);
      ListPushBack(s.meta, s.prot, idx, kProtected);
      break;
    default:
      break;
  }
}

void Word2Cache::DrainReadsLocked(Shard& s) {
  for (size_t b = 0; b < kReadStripes; ++b) {
    Shard::ReadBuffer& buffer = s.reads[b];
    const uint64_t head = buffer.head.load(kAcquire);
    if (head - buffer.tail > kReadBufferSize) {
      buffer.tail = head - kReadBufferSize;  // overrun: oldest lost
    }
    for (; buffer.tail != head; ++buffer.tail) {
      const uint64_t key =
          buffer.keys[buffer.tail & (kReadBufferSize - 1)].load(kRelaxed);
      const uint64_t h = HashU64(key);
      s.sketch.Observe(h);
      const uint32_t idx = FindSlotLocked(s, key, h);
      if (idx != kNil) TouchLocked(s, idx);
    }
  }
}

void Word2Cache::MaybeRebuildLocked(Shard& s) {
  const size_t table = s.table_mask + 1;
  if (s.tombstones <= table / 4) return;
  // Compact tombstones away: collect every live entry in LRU order per
  // region, wipe the control bytes, and replay the inserts. Readers racing
  // the rebuild see spurious misses at worst — the seqlock and key check
  // keep recycled slots from ever yielding a wrong value.
  struct Saved {
    uint64_t key, w0, w1;
    uint8_t region;
  };
  std::vector<Saved> saved;
  saved.reserve(s.entries);
  auto collect = [&](const List& list, uint8_t region) {
    for (uint32_t i = list.head; i != kNil; i = s.meta[i].next) {
      Slot& slot = s.slots_storage[i];
      saved.push_back({slot.key.load(kRelaxed), slot.w0.load(kRelaxed),
                       slot.w1.load(kRelaxed), region});
    }
  };
  collect(s.window, kWindow);
  collect(s.probation, kProbation);
  collect(s.prot, kProtected);
  for (size_t i = 0; i < table; ++i) {
    s.ctrl_storage[i].store(kCtrlEmpty, kRelease);
  }
  s.meta.assign(table, Meta{});
  s.window = s.probation = s.prot = List{};
  s.tombstones = 0;
  for (const Saved& e : saved) {
    const uint64_t value[2] = {e.w0, e.w1};
    const uint32_t idx = PlaceLocked(s, e.key, HashU64(e.key), value);
    switch (e.region) {
      case kWindow: ListPushBack(s.meta, s.window, idx, kWindow); break;
      case kProbation: ListPushBack(s.meta, s.probation, idx, kProbation); break;
      default: ListPushBack(s.meta, s.prot, idx, kProtected); break;
    }
  }
  m_.rebuilds->Increment();
}

void Word2Cache::Invalidate() {
  // Bump first: inserts racing this call fail their token check, and any
  // insert that squeaked past it is removed by the per-shard clears below
  // (which serialize on the same writer locks).
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  for (size_t sh = 0; sh <= shard_mask_; ++sh) {
    Shard& s = shards_[sh];
    g_shard_lock_count.fetch_add(1, kRelaxed);
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.ctrl.load(kRelaxed) == nullptr) continue;
    const size_t table = s.table_mask + 1;
    for (size_t i = 0; i < table; ++i) {
      if (s.meta[i].region != kFree) {
        SeqlockWrite(s.slots_storage[i], 0, 0, 0);
      }
      s.ctrl_storage[i].store(kCtrlEmpty, kRelease);
    }
    s.meta.assign(table, Meta{});
    s.window = s.probation = s.prot = List{};
    s.tombstones = 0;
    total_entries_.fetch_sub(static_cast<int64_t>(s.entries), kRelaxed);
    s.entries = 0;
    for (size_t b = 0; b < kReadStripes; ++b) {  // drop queued reads
      s.reads[b].tail = s.reads[b].head.load(kAcquire);
    }
    // The sketch survives: the invalidated keys are about to be re-requested
    // and their frequency history is exactly what admission needs.
  }
  m_.entries->Set(static_cast<double>(std::max<int64_t>(
      0, total_entries_.load(kRelaxed))));
}

size_t Word2Cache::size() const {
  return static_cast<size_t>(std::max<int64_t>(0, total_entries_.load(kRelaxed)));
}

CacheStats Word2Cache::Stats() const {
  CacheStats out;
  out.entries = size();
  out.admit_rejects = m_.admit_rejects->Value();
  out.evictions_window = m_.evictions_window->Value();
  out.evictions_probation = m_.evictions_probation->Value();
  out.evictions_protected = m_.evictions_protected->Value();
  out.sketch_resets = m_.sketch_resets->Value();
  out.probe_retries = m_.probe_retries->Value();
  out.rebuilds = m_.rebuilds->Value();
  return out;
}

}  // namespace rc::cache
