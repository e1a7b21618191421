#ifndef HETEX_JIT_HASH_TABLE_H_
#define HETEX_JIT_HASH_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/int_width.h"
#include "common/status.h"
#include "memory/memory_manager.h"

namespace hetex::jit {

/// Aggregation functions supported by generated pipelines.
enum class AggFunc : uint8_t { kSum, kCount, kMin, kMax };

/// Applies an aggregation function to an accumulator (non-atomic flavor).
inline void AggApply(AggFunc f, int64_t* acc, int64_t v) {
  switch (f) {
    case AggFunc::kSum: *acc += v; break;
    case AggFunc::kCount: *acc += 1; break;
    case AggFunc::kMin: if (v < *acc) *acc = v; break;
    case AggFunc::kMax: if (v > *acc) *acc = v; break;
  }
}

/// Atomic flavor, used by GPU kernels (worker-scoped atomics, Table 1).
inline void AggApplyAtomic(AggFunc f, std::atomic<int64_t>* acc, int64_t v) {
  switch (f) {
    case AggFunc::kSum: acc->fetch_add(v, std::memory_order_relaxed); break;
    case AggFunc::kCount: acc->fetch_add(1, std::memory_order_relaxed); break;
    case AggFunc::kMin: {
      int64_t cur = acc->load(std::memory_order_relaxed);
      while (v < cur && !acc->compare_exchange_weak(cur, v)) {
      }
      break;
    }
    case AggFunc::kMax: {
      int64_t cur = acc->load(std::memory_order_relaxed);
      while (v > cur && !acc->compare_exchange_weak(cur, v)) {
      }
      break;
    }
  }
}

/// Identity element of an aggregation function.
inline int64_t AggIdentity(AggFunc f) {
  switch (f) {
    case AggFunc::kSum:
    case AggFunc::kCount: return 0;
    case AggFunc::kMin: return INT64_MAX;
    case AggFunc::kMax: return INT64_MIN;
  }
  return 0;
}

/// \brief Chained hash table for joins: key -> fixed payload, packed.
///
/// Build is lock-free (one CAS on a bucket head or a chain link per insert,
/// atomic bump allocation of entries) so the same structure serves CPU
/// task-parallel builds and simulated GPU kernels — generated code only
/// differs in which provider supplied the atomics, exactly as in the paper's
/// Fig. 3. Probing is wait-free.
class JoinHashTable {
 public:
  /// \brief The packed layout of a join hash table, defined once: the table
  /// allocates exactly Bytes(), the three JIT tiers read keys, links and
  /// payloads through its fields, and the coster sizes the table with it
  /// (plan::JoinHtBytes).
  ///
  /// A bucket head is one 64-bit word: the low 32 bits are the entry index
  /// of the bucket's chain (-1 when empty), the high 32 bits its tag, one
  /// bit per key hash class (TagBit). Chain links are 32-bit entry indexes,
  /// -1 ending the chain. An entry is `next | key | payload...`: the key and
  /// each payload value take their build column's width (1, 2, 4 or 8
  /// bytes, IsIntWidth) and are sign-extended on load. The link leads and
  /// the stride is padded to a multiple of 4 bytes, so every entry's link
  /// stays 4-byte aligned for the CAS that links an insert in.
  class Layout {
   public:
    /// Payload values one entry carries at most (a VM insert's register window).
    static constexpr int kMaxPayload = 8;
    /// Entries a 32-bit index addresses (-1 is the empty marker).
    static constexpr uint64_t kMaxCapacity = INT32_MAX;

    /// Byte offset and width of one field within an entry.
    struct Field {
      uint32_t offset = 0;
      uint32_t width = 0;
    };

    /// `capacity` entries (0 counts as 1); `key_width` and each of
    /// `payload_widths` is a build column's width in bytes.
    Layout(uint64_t capacity, uint32_t key_width,
           const std::vector<uint32_t>& payload_widths);

    /// InvalidArgument when the entries overflow a 32-bit index, a width is
    /// not 1, 2, 4 or 8, or there are more than kMaxPayload payload values.
    Status Check() const;

    uint64_t capacity() const { return capacity_; }
    int payload_count() const { return n_payload_; }
    const Field& next() const { return fields_[0]; }
    const Field& key() const { return fields_[1]; }
    const Field& payload(int i) const { return fields_[2 + i]; }
    /// Bytes per entry: the fields, padded to a multiple of 4.
    uint32_t stride() const { return stride_; }
    /// Bucket heads: half the next power of two of 2 x capacity, so the
    /// 8-byte heads take the bytes 4-byte heads for twice as many buckets
    /// would.
    uint64_t buckets() const;
    /// Footprint: capacity x stride entry bytes plus 8 bytes per bucket head.
    uint64_t Bytes() const;

    /// The field widths in one integer, a nibble each: the key's lowest,
    /// then each payload's. The compiler stamps it on a probe loop's
    /// kHtProbeInit, and the tier-2 codegen lays the slot's chain walk and
    /// payload loads out from it at generation time.
    uint64_t WidthCode() const;
    /// The layout (of one entry) whose widths `code` holds (WidthCode).
    static Layout FromWidthCode(uint64_t code);

    /// `cap=C;key=W;payload=W,W` (shared-build keys, diagnostics).
    std::string ToString() const;

   private:
    uint64_t capacity_;
    int n_payload_;
    uint32_t stride_;
    Field fields_[2 + kMaxPayload];
  };

  /// The tag bit of a key's hash class, at its place in the head word: bit
  /// 32 + the hash's top 5 bits. A bucket index takes at most the hash's
  /// low 31 bits (buckets() <= 2^31), so the tag and the bucket are
  /// independent. The tier-2 codegen emits the same expression.
  static constexpr int kTagShift = 64 - 5;
  static uint64_t TagBit(uint64_t hash) {
    return uint64_t{1} << (32 + (hash >> kTagShift));
  }
  /// The hash a key's bucket and tag derive from.
  static uint64_t Hash(int64_t key) { return HashMix64(static_cast<uint64_t>(key)); }

  /// \param layout checked (Layout::Check); the table does not rehash, so
  ///        its capacity comes from table stats at plan time, as in typical
  ///        codegen engines
  JoinHashTable(memory::MemoryManager* mm, const Layout& layout);
  ~JoinHashTable();

  JoinHashTable(const JoinHashTable&) = delete;
  JoinHashTable& operator=(const JoinHashTable&) = delete;

  /// Inserts key + payload (layout().payload_count() values), each stored at
  /// its field's width, and sets the key's tag bit; thread-safe. A bucket's
  /// chain stays in descending key order (equal keys newest first), so a
  /// key's position in it does not depend on the order of concurrent
  /// inserts. Returns false, inserting nothing, once the table holds its
  /// capacity (see OverCapacity).
  bool Insert(int64_t key, const int64_t* payload);

  /// What a tier returns when an insert of pipeline `pipeline` found the
  /// table full: a terminal OutOfMemory (a retry overflows again) naming the
  /// pipeline, whose label names the build table, and the capacity.
  Status OverCapacity(const std::string& pipeline) const;

  /// Returns the first entry index of the chain for `key`'s bucket, or -1
  /// when the bucket's tag rules the key out (or the bucket is empty).
  int64_t ProbeHead(int64_t key) const { return HeadOf(Hash(key)); }

  /// Batched-probe decomposition: the vectorized tier hashes a whole batch of
  /// keys in one pass (Hash), then resolves heads with software-pipelined
  /// prefetching — the lookahead a tuple-at-a-time interpreter cannot do.
  /// One head load gives both the chain and the tag, and a key its tag
  /// rules out gets -1, so PrefetchEntry skips it.
  int64_t HeadOf(uint64_t hash) const {
    const uint64_t word = heads_[hash & bucket_mask_].load(std::memory_order_acquire);
    return (word & TagBit(hash)) != 0 ? static_cast<int32_t>(word) : -1;
  }
  void PrefetchHead(uint64_t hash) const {
    __builtin_prefetch(&heads_[hash & bucket_mask_], 0, 1);
  }
  void PrefetchEntry(int64_t entry) const {
    if (entry >= 0) __builtin_prefetch(EntryAt(entry), 0, 1);
  }

  /// Follows the chain from `entry` to the first entry with key == `key`
  /// (including `entry` itself); returns -1 when exhausted. `hops` counts chain
  /// links traversed (cost accounting).
  int64_t FindKeyFrom(int64_t entry, int64_t key, uint64_t* hops) const {
    while (entry >= 0) {
      const std::byte* e = EntryAt(entry);
      ++*hops;
      if (Load(e, layout_.key()) == key) return entry;
      entry = Load(e, layout_.next());
    }
    return entry;
  }

  /// Next chain entry after `entry`.
  int64_t NextEntry(int64_t entry) const {
    return Load(EntryAt(entry), layout_.next());
  }

  /// Payload value `i` of `entry`, sign-extended.
  int64_t PayloadAt(int64_t entry, int i) const {
    return Load(EntryAt(entry), layout_.payload(i));
  }

  const Layout& layout() const { return layout_; }
  /// Entries inserted (at most the capacity).
  uint64_t size() const {
    return std::min(cursor_.load(std::memory_order_relaxed), layout_.capacity());
  }

  /// Total footprint in bytes (layout().Bytes()) — drives the random-access
  /// size class in the cost model (cache-resident dimension tables probe
  /// fast; DRAM-sized ones do not).
  uint64_t bytes() const { return layout_.Bytes(); }

  /// Raw layout accessors for the tier-2 codegen backend, which unrolls probe
  /// loops into inline bucket-chain walks over these arrays (jit/codegen.cc).
  /// `raw_heads()` is bit-compatible with a plain uint64_t array (asserted at
  /// the single cast site) of head words; entries are `layout().stride()`
  /// bytes each, read through `layout().key()`, `layout().next()` and
  /// `layout().payload(i)`.
  const std::atomic<uint64_t>* raw_heads() const { return heads_; }
  const std::byte* raw_entries() const { return entries_; }
  uint64_t bucket_mask() const { return bucket_mask_; }

 private:
  /// Loads a field, sign-extending a narrow one.
  static int64_t Load(const std::byte* e, Layout::Field f) {
    return LoadInt(e + f.offset, f.width);
  }
  static void Store(std::byte* e, Layout::Field f, int64_t v) {
    StoreInt(e + f.offset, f.width, v);
  }
  const std::byte* EntryAt(int64_t i) const {
    return entries_ + static_cast<uint64_t>(i) * layout_.stride();
  }

  memory::MemoryManager* mm_;
  Layout layout_;
  uint64_t bucket_mask_;
  std::atomic<uint64_t>* heads_ = nullptr;
  std::byte* entries_ = nullptr;
  std::atomic<uint64_t> cursor_{0};
  void* raw_ = nullptr;
};

/// \brief Open-addressing aggregation hash table: int64 key -> N accumulators.
///
/// Supports both a non-atomic mode (one table per CPU pipeline instance; the CPU
/// provider elides atomics since #threadsInWorker == 1) and an atomic mode (one
/// table per GPU shared by all kernel threads).
class AggHashTable {
 public:
  AggHashTable(memory::MemoryManager* mm, uint64_t capacity, int n_aggs,
               const AggFunc* funcs);
  ~AggHashTable();

  AggHashTable(const AggHashTable&) = delete;
  AggHashTable& operator=(const AggHashTable&) = delete;

  /// Finds or creates the group for `key` and folds `vals` in. Returns
  /// false, folding nothing, when a new group takes the table past half its
  /// slots (see OverCapacity).
  /// \param probes incremented once per slot inspected (cost accounting)
  bool Update(int64_t key, const int64_t* vals, bool atomic, uint64_t* probes);

  /// What a tier returns when an update of pipeline `pipeline` overflowed
  /// the group-by: a terminal OutOfMemory naming the pipeline and the
  /// groups the table holds.
  Status OverCapacity(const std::string& pipeline) const;

  /// Number of occupied groups.
  uint64_t size() const { return used_.load(std::memory_order_relaxed); }
  uint64_t bytes() const { return bytes_; }
  int n_aggs() const { return n_aggs_; }

  /// Iteration over groups for the pipeline-breaker flush.
  /// Visits each group as (key, accumulator array).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint64_t i = 0; i < slots_; ++i) {
      const int64_t key = keys_[i].load(std::memory_order_relaxed);
      if (key != kEmpty) fn(key, accs_ + i * n_aggs_);
    }
  }

  static constexpr int64_t kEmpty = INT64_MIN;

 private:
  memory::MemoryManager* mm_;
  uint64_t slots_;
  uint64_t slot_mask_;
  int n_aggs_;
  AggFunc funcs_[8];
  uint64_t bytes_ = 0;
  std::atomic<int64_t>* keys_ = nullptr;
  int64_t* accs_ = nullptr;  ///< also aliased as std::atomic<int64_t> in atomic mode
  std::atomic<uint64_t> used_{0};
  void* raw_keys_ = nullptr;
  void* raw_accs_ = nullptr;
};

}  // namespace hetex::jit

#endif  // HETEX_JIT_HASH_TABLE_H_
