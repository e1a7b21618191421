#include "jit/hash_table.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

#include "common/logging.h"

namespace hetex::jit {

namespace {
uint64_t NextPow2(uint64_t v) {
  if (v < 2) return 2;
  return std::bit_ceil(v);
}

/// An empty bucket's head word: no tag bit set, the chain index -1.
constexpr uint64_t kEmptyHead = UINT32_MAX;

std::vector<IntCode> PlainCodes(const std::vector<uint32_t>& widths) {
  std::vector<IntCode> codes;
  for (const uint32_t w : widths) codes.push_back({w, 0});
  return codes;
}

/// Appends `W`, or `W@base` for a nonzero base.
void AppendField(std::string* out, const JoinHashTable::Layout::Field& f) {
  *out += std::to_string(f.width);
  if (f.base != 0) {
    *out += '@';
    *out += std::to_string(f.base);
  }
}
}  // namespace

JoinHashTable::Layout::Layout(uint64_t capacity, IntCode key,
                              const std::vector<IntCode>& payload)
    : capacity_(capacity == 0 ? 1 : capacity),
      n_payload_(static_cast<int>(payload.size())),
      fields_{} {
  fields_[0] = {0, sizeof(int32_t)};  // next: a 32-bit entry index
  fields_[1] = {sizeof(int32_t), key.width, key.base};
  uint32_t offset = sizeof(int32_t) + key.width;
  for (int i = 0; i < n_payload_; ++i) {
    if (i < kMaxPayload) fields_[2 + i] = {offset, payload[i].width, payload[i].base};
    offset += payload[i].width;
  }
  stride_ = (offset + 3) & ~uint32_t{3};  // keeps every entry's link aligned
}

JoinHashTable::Layout::Layout(uint64_t capacity, uint32_t key_width,
                              const std::vector<uint32_t>& payload_widths)
    : Layout(capacity, IntCode{key_width, 0}, PlainCodes(payload_widths)) {}

Status JoinHashTable::Layout::Check() const {
  if (capacity_ > kMaxCapacity) {
    return Status::InvalidArgument(
        "join hash table of " + std::to_string(capacity_) +
        " entries overflows its 32-bit entry index (at most " +
        std::to_string(kMaxCapacity) + ")");
  }
  if (n_payload_ > kMaxPayload) {
    return Status::InvalidArgument("join hash table with " +
                                   std::to_string(n_payload_) +
                                   " payload values (at most " +
                                   std::to_string(kMaxPayload) + ")");
  }
  for (int f = 0; f < 2 + n_payload_; ++f) {
    if (!IsIntWidth(fields_[f].width)) {
      return Status::InvalidArgument("join hash table field of " +
                                     std::to_string(fields_[f].width) +
                                     " bytes (1, 2, 4 or 8)");
    }
  }
  return Status::OK();
}

uint64_t JoinHashTable::Layout::buckets() const {
  return NextPow2(capacity_ * 2) / 2;
}

uint64_t JoinHashTable::Layout::Bytes() const {
  return capacity_ * stride_ + buckets() * sizeof(uint64_t);
}

uint64_t JoinHashTable::Layout::WidthCode() const {
  uint64_t code = 0;
  for (int i = std::min(n_payload_, kMaxPayload); i-- > 0;) {
    code = (code << 4) | payload(i).width;
  }
  return (code << 4) | key().width;
}

JoinHashTable::Layout JoinHashTable::Layout::FromWidthCode(uint64_t code) {
  std::vector<uint32_t> payload;
  for (uint64_t rest = code >> 4; rest != 0; rest >>= 4) {
    payload.push_back(static_cast<uint32_t>(rest & 0xF));
  }
  return Layout(1, static_cast<uint32_t>(code & 0xF), payload);
}

std::string JoinHashTable::Layout::ToString() const {
  std::string out = "cap=" + std::to_string(capacity_) + ";key=";
  AppendField(&out, key());
  out += ";payload=";
  for (int i = 0; i < n_payload_ && i < kMaxPayload; ++i) {
    if (i > 0) out += ',';
    AppendField(&out, payload(i));
  }
  return out;
}

JoinHashTable::JoinHashTable(memory::MemoryManager* mm, const Layout& layout)
    : mm_(mm), layout_(layout) {
  const Status checked = layout_.Check();
  HETEX_CHECK(checked.ok()) << checked.ToString();
  const uint64_t buckets = layout_.buckets();
  bucket_mask_ = buckets - 1;
  auto alloc = mm_->Allocate(layout_.Bytes());
  HETEX_CHECK(alloc.ok()) << "join hash table allocation: "
                          << alloc.status().ToString();
  raw_ = alloc.value();
  heads_ = static_cast<std::atomic<uint64_t>*>(raw_);
  for (uint64_t i = 0; i < buckets; ++i) {
    heads_[i].store(kEmptyHead, std::memory_order_relaxed);
  }
  entries_ = static_cast<std::byte*>(raw_) + buckets * sizeof(uint64_t);
}

JoinHashTable::~JoinHashTable() { mm_->Free(raw_); }

bool JoinHashTable::Insert(int64_t key, const int64_t* payload) {
  const uint64_t idx = cursor_.fetch_add(1, std::memory_order_relaxed);
  if (idx >= layout_.capacity()) return false;
  std::byte* e = entries_ + idx * layout_.stride();
  Store(e, layout_.key(), key);
  for (int i = 0; i < layout_.payload_count(); ++i) {
    Store(e, layout_.payload(i), payload[i]);
  }
  const uint64_t hash = Hash(key);
  std::atomic<uint64_t>& head = heads_[hash & bucket_mask_];
  const uint64_t tag = TagBit(hash);
  const auto link_of = [&](int64_t entry) {
    return std::atomic_ref<int32_t>(*reinterpret_cast<int32_t*>(
        entries_ + static_cast<uint64_t>(entry) * layout_.stride() +
        layout_.next().offset));
  };
  const auto key_of = [&](int32_t entry) {
    return Load(EntryAt(entry), layout_.key());
  };
  // A chain stays in descending key order, equal keys newest first, so where
  // a key sits in its chain — what a probe that stops at its match pays for —
  // depends on the bucket's keys only, not on the order in which concurrent
  // builders inserted them. Keys arriving in ascending order, as a primary
  // key's usually do, go to the head. The entry links in with one CAS: on
  // the head word, which also sets the key's tag bit, or on its
  // predecessor's link.
  uint64_t word = head.load(std::memory_order_acquire);
  while (true) {
    const int32_t first = static_cast<int32_t>(word);
    if (first < 0 || key >= key_of(first)) {
      link_of(static_cast<int64_t>(idx)).store(first, std::memory_order_relaxed);
      const uint64_t linked = (word & ~uint64_t{UINT32_MAX}) | tag | idx;
      if (head.compare_exchange_weak(word, linked, std::memory_order_release,
                                     std::memory_order_acquire)) {
        return true;
      }
      continue;
    }
    head.fetch_or(tag, std::memory_order_relaxed);
    int32_t pred = first;
    int32_t succ = link_of(pred).load(std::memory_order_acquire);
    while (true) {
      if (succ >= 0 && key_of(succ) > key) {
        pred = succ;
        succ = link_of(pred).load(std::memory_order_acquire);
        continue;
      }
      link_of(static_cast<int64_t>(idx)).store(succ, std::memory_order_relaxed);
      if (link_of(pred).compare_exchange_weak(succ, static_cast<int32_t>(idx),
                                              std::memory_order_release,
                                              std::memory_order_acquire)) {
        return true;
      }
    }
  }
}

Status JoinHashTable::OverCapacity(const std::string& pipeline) const {
  return Status::OutOfMemory("join hash table of pipeline '" + pipeline +
                             "' over capacity (" +
                             std::to_string(layout_.capacity()) + " entries)");
}

AggHashTable::AggHashTable(memory::MemoryManager* mm, uint64_t capacity, int n_aggs,
                           const AggFunc* funcs)
    : mm_(mm), n_aggs_(n_aggs) {
  HETEX_CHECK(n_aggs >= 1 && n_aggs <= 8);
  slots_ = NextPow2((capacity == 0 ? 1 : capacity) * 2);
  slot_mask_ = slots_ - 1;
  for (int i = 0; i < n_aggs; ++i) funcs_[i] = funcs[i];

  const uint64_t key_bytes = slots_ * sizeof(std::atomic<int64_t>);
  const uint64_t acc_bytes = slots_ * n_aggs_ * sizeof(int64_t);
  bytes_ = key_bytes + acc_bytes;
  auto keys_alloc = mm_->Allocate(key_bytes);
  HETEX_CHECK(keys_alloc.ok()) << keys_alloc.status().ToString();
  raw_keys_ = keys_alloc.value();
  auto accs_alloc = mm_->Allocate(acc_bytes);
  HETEX_CHECK(accs_alloc.ok()) << accs_alloc.status().ToString();
  raw_accs_ = accs_alloc.value();

  keys_ = static_cast<std::atomic<int64_t>*>(raw_keys_);
  accs_ = static_cast<int64_t*>(raw_accs_);
  for (uint64_t i = 0; i < slots_; ++i) {
    keys_[i].store(kEmpty, std::memory_order_relaxed);
    for (int a = 0; a < n_aggs_; ++a) {
      accs_[i * n_aggs_ + a] = AggIdentity(funcs_[a]);
    }
  }
}

AggHashTable::~AggHashTable() {
  mm_->Free(raw_keys_);
  mm_->Free(raw_accs_);
}

bool AggHashTable::Update(int64_t key, const int64_t* vals, bool atomic,
                          uint64_t* probes) {
  HETEX_CHECK(key != kEmpty) << "reserved group key";
  uint64_t slot = HashMix64(static_cast<uint64_t>(key)) & slot_mask_;
  // A failed update leaves its key behind, so writers that go on past an
  // overflow can fill every slot: an absent key then gives up after one pass.
  for (uint64_t inspected = 0;; ++inspected) {
    if (inspected == slots_) return false;
    ++*probes;
    int64_t cur = keys_[slot].load(std::memory_order_acquire);
    if (cur == key) break;
    if (cur == kEmpty) {
      int64_t expected = kEmpty;
      if (keys_[slot].compare_exchange_strong(expected, key,
                                              std::memory_order_acq_rel)) {
        const uint64_t n = used_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (n * 2 > slots_) return false;
        break;
      }
      if (expected == key) break;  // lost the race to the same key
    }
    slot = (slot + 1) & slot_mask_;
  }
  int64_t* acc = accs_ + slot * n_aggs_;
  if (atomic) {
    auto* atomic_acc = reinterpret_cast<std::atomic<int64_t>*>(acc);
    for (int a = 0; a < n_aggs_; ++a) AggApplyAtomic(funcs_[a], atomic_acc + a, vals[a]);
  } else {
    for (int a = 0; a < n_aggs_; ++a) AggApply(funcs_[a], acc + a, vals[a]);
  }
  return true;
}

Status AggHashTable::OverCapacity(const std::string& pipeline) const {
  return Status::OutOfMemory("group-by hash table of pipeline '" + pipeline +
                             "' over capacity (" + std::to_string(slots_ / 2) +
                             " groups)");
}

}  // namespace hetex::jit
