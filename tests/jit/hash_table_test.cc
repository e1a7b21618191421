#include "jit/hash_table.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace hetex::jit {
namespace {

class HashTableTest : public ::testing::Test {
 protected:
  HashTableTest() : mm_(0, 256ull << 20) {}
  memory::MemoryManager mm_;
};

using Layout = JoinHashTable::Layout;

TEST_F(HashTableTest, InsertAndProbeSingleMatch) {
  JoinHashTable ht(&mm_, Layout(16, 8, {8, 8}));
  int64_t payload[2] = {100, 200};
  ht.Insert(7, payload);
  uint64_t hops = 0;
  int64_t e = ht.FindKeyFrom(ht.ProbeHead(7), 7, &hops);
  ASSERT_GE(e, 0);
  EXPECT_EQ(ht.PayloadAt(e, 0), 100);
  EXPECT_EQ(ht.PayloadAt(e, 1), 200);
}

TEST_F(HashTableTest, MissingKeyProbesToMinusOne) {
  JoinHashTable ht(&mm_, Layout(16, 8, {}));
  ht.Insert(1, nullptr);
  uint64_t hops = 0;
  EXPECT_EQ(ht.FindKeyFrom(ht.ProbeHead(999), 999, &hops), -1);
}

TEST_F(HashTableTest, DuplicateKeysChainAllMatches) {
  JoinHashTable ht(&mm_, Layout(16, 8, {8}));
  for (int64_t i = 0; i < 5; ++i) {
    int64_t payload = i * 10;
    ht.Insert(42, &payload);
  }
  uint64_t hops = 0;
  std::vector<int64_t> found;
  for (int64_t e = ht.FindKeyFrom(ht.ProbeHead(42), 42, &hops); e >= 0;
       e = ht.FindKeyFrom(ht.NextEntry(e), 42, &hops)) {
    found.push_back(ht.PayloadAt(e, 0));
  }
  std::sort(found.begin(), found.end());
  EXPECT_EQ(found, (std::vector<int64_t>{0, 10, 20, 30, 40}));
}

TEST_F(HashTableTest, ChainsSkipColldingOtherKeys) {
  // Fill densely so bucket collisions are certain, then verify exact matching.
  JoinHashTable ht(&mm_, Layout(1000, 8, {8}));
  for (int64_t k = 0; k < 1000; ++k) {
    int64_t payload = k * 3;
    ht.Insert(k, &payload);
  }
  uint64_t hops = 0;
  for (int64_t k = 0; k < 1000; ++k) {
    int64_t e = ht.FindKeyFrom(ht.ProbeHead(k), k, &hops);
    ASSERT_GE(e, 0) << "key " << k;
    EXPECT_EQ(ht.PayloadAt(e, 0), k * 3);
    EXPECT_EQ(ht.FindKeyFrom(ht.NextEntry(e), k, &hops), -1);
  }
}

TEST_F(HashTableTest, NegativeKeysWork) {
  JoinHashTable ht(&mm_, Layout(8, 8, {8}));
  int64_t payload = 5;
  ht.Insert(-12345, &payload);
  uint64_t hops = 0;
  EXPECT_GE(ht.FindKeyFrom(ht.ProbeHead(-12345), -12345, &hops), 0);
}

TEST_F(HashTableTest, FieldsKeepTheirWidthsAndSignExtend) {
  // A 4-byte key with an 8-byte and a 4-byte payload, and an 8-byte key:
  // negative and beyond-int32 values come back exactly.
  JoinHashTable narrow(&mm_, Layout(8, 4, {8, 4}));
  const int64_t wide_payload[2] = {-(int64_t{1} << 40), -3};
  narrow.Insert(-7, wide_payload);
  uint64_t hops = 0;
  const int64_t e = narrow.FindKeyFrom(narrow.ProbeHead(-7), -7, &hops);
  ASSERT_GE(e, 0);
  EXPECT_EQ(narrow.PayloadAt(e, 0), -(int64_t{1} << 40));
  EXPECT_EQ(narrow.PayloadAt(e, 1), -3);
  EXPECT_EQ(narrow.NextEntry(e), -1);

  JoinHashTable wide(&mm_, Layout(8, 8, {4}));
  const int64_t key = -(int64_t{1} << 35) - 1;
  const int64_t payload = INT32_MIN;
  wide.Insert(key, &payload);
  const int64_t w = wide.FindKeyFrom(wide.ProbeHead(key), key, &hops);
  ASSERT_GE(w, 0);
  EXPECT_EQ(wide.PayloadAt(w, 0), INT32_MIN);
  // The low 32 bits alone are another key.
  const int64_t low = static_cast<int32_t>(key);
  EXPECT_EQ(wide.FindKeyFrom(wide.ProbeHead(low), low, &hops), -1);
}

TEST_F(HashTableTest, ConcurrentBuildFindsEverything) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  JoinHashTable ht(&mm_, Layout(kThreads * kPerThread, 8, {8}));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int64_t i = 0; i < kPerThread; ++i) {
        int64_t key = t * kPerThread + i;
        ht.Insert(key, &key);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ht.size(), static_cast<uint64_t>(kThreads * kPerThread));
  uint64_t hops = 0;
  for (int64_t k = 0; k < kThreads * kPerThread; k += 97) {
    int64_t e = ht.FindKeyFrom(ht.ProbeHead(k), k, &hops);
    ASSERT_GE(e, 0);
    EXPECT_EQ(ht.PayloadAt(e, 0), k);
  }
  // Every insert set its key's tag bit: no concurrent insert into the same
  // bucket lost one.
  for (int64_t k = 0; k < kThreads * kPerThread; ++k) {
    const uint64_t hash = JoinHashTable::Hash(k);
    const uint64_t word = ht.raw_heads()[hash & ht.bucket_mask()].load();
    ASSERT_NE(word & JoinHashTable::TagBit(hash), 0u) << "key " << k;
  }
}

// A chain holds its keys in descending order, so the accesses a probe pays
// to reach a key's first match are the same however concurrent builders
// interleaved their inserts.
TEST_F(HashTableTest, ChainOrderDoesNotDependOnInsertOrder) {
  constexpr int64_t kKeys = 4000;  // keys 0..1999, each twice; payload = key
  auto insert = [](JoinHashTable* ht, int64_t i) {
    const int64_t key = i / 2;
    ht->Insert(key, &key);
  };
  auto hops_to_first_match = [](const JoinHashTable& ht) {
    std::vector<uint64_t> hops(kKeys / 2);
    for (int64_t k = 0; k < kKeys / 2; ++k) {
      EXPECT_GE(ht.FindKeyFrom(ht.ProbeHead(k), k, &hops[k]), 0);
    }
    return hops;
  };
  JoinHashTable ascending(&mm_, Layout(kKeys, 8, {8}));
  for (int64_t i = 0; i < kKeys; ++i) insert(&ascending, i);
  JoinHashTable descending(&mm_, Layout(kKeys, 8, {8}));
  for (int64_t i = kKeys; i-- > 0;) insert(&descending, i);
  JoinHashTable concurrent(&mm_, Layout(kKeys, 8, {8}));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int64_t i = t; i < kKeys; i += 4) insert(&concurrent, i * 7919 % kKeys);
    });
  }
  for (auto& th : threads) th.join();
  const std::vector<uint64_t> expected = hops_to_first_match(ascending);
  EXPECT_EQ(hops_to_first_match(descending), expected);
  EXPECT_EQ(hops_to_first_match(concurrent), expected);
  for (uint64_t b = 0; b <= concurrent.bucket_mask(); ++b) {
    int64_t prev = INT64_MAX;
    for (int64_t e = static_cast<int32_t>(concurrent.raw_heads()[b].load()); e >= 0;
         e = concurrent.NextEntry(e)) {
      ASSERT_LE(concurrent.PayloadAt(e, 0), prev) << "bucket " << b;
      prev = concurrent.PayloadAt(e, 0);
    }
  }
}

TEST_F(HashTableTest, BytesReflectFootprint) {
  // An entry is next | key | payload... at the columns' widths, padded to a
  // multiple of 4; the heads take NextPow2(2 x capacity) x 4 bytes: half as
  // many 8-byte words.
  constexpr uint64_t kCapacity = 100000;
  constexpr uint64_t kHeadBytes = 262144 * 4;
  const std::vector<std::vector<uint32_t>> payloads = {{}, {1}, {2, 1}, {4}, {8, 4}};
  for (const uint32_t key : {1u, 2u, 4u, 8u}) {
    for (const auto& payload : payloads) {
      const Layout layout(kCapacity, key, payload);
      uint32_t stride = key + 4;
      for (const uint32_t w : payload) stride += w;
      stride = (stride + 3) / 4 * 4;
      EXPECT_EQ(layout.stride(), stride);
      EXPECT_EQ(layout.Bytes(), kCapacity * stride + kHeadBytes);
      const uint64_t before = mm_.used();
      JoinHashTable ht(&mm_, layout);
      EXPECT_EQ(ht.bytes(), layout.Bytes());
      EXPECT_EQ(mm_.used() - before, (layout.Bytes() + 63) / 64 * 64);
    }
  }
  // A 4-byte key with one 4-byte payload: 12 bytes an entry; a 2-byte key
  // with a 1-byte payload: 7 bytes of fields, 8 an entry.
  EXPECT_EQ(Layout(kCapacity, 4, {4}).stride(), 12u);
  EXPECT_EQ(Layout(kCapacity, 2, {1}).stride(), 8u);
  // A capacity of 1 has one 8-byte head.
  EXPECT_EQ(Layout(1, 4, {}).buckets(), 1u);
  EXPECT_EQ(Layout(1, 4, {}).Bytes(), 8u + 8u);
}

TEST_F(HashTableTest, InsertBeyondCapacityFailsWithATerminalStatus) {
  JoinHashTable ht(&mm_, Layout(4, 8, {}));
  for (int64_t k = 0; k < 4; ++k) EXPECT_TRUE(ht.Insert(k, nullptr));
  EXPECT_FALSE(ht.Insert(4, nullptr));
  EXPECT_EQ(ht.size(), 4u);
  uint64_t hops = 0;
  EXPECT_EQ(ht.FindKeyFrom(ht.ProbeHead(4), 4, &hops), -1);
  const Status st = ht.OverCapacity("Q.build[dim]");
  EXPECT_EQ(st.code(), StatusCode::kOutOfMemory);
  EXPECT_FALSE(IsTransientFault(st.code()));
  EXPECT_NE(st.message().find("'Q.build[dim]' over capacity (4 entries)"),
            std::string::npos)
      << st.ToString();
}

TEST_F(HashTableTest, AggUpdateBeyondCapacityFailsWithATerminalStatus) {
  AggFunc funcs[1] = {AggFunc::kSum};
  AggHashTable ht(&mm_, 4, 1, funcs);  // 8 slots hold 4 groups
  uint64_t probes = 0;
  const int64_t one = 1;
  for (int64_t k = 0; k < 4; ++k) EXPECT_TRUE(ht.Update(k, &one, false, &probes));
  EXPECT_TRUE(ht.Update(0, &one, false, &probes));  // an existing group folds
  EXPECT_FALSE(ht.Update(4, &one, false, &probes));
  const Status st = ht.OverCapacity("Q.probe");
  EXPECT_EQ(st.code(), StatusCode::kOutOfMemory);
  EXPECT_FALSE(IsTransientFault(st.code()));
  EXPECT_NE(st.message().find("group-by hash table of pipeline 'Q.probe' over "
                              "capacity (4 groups)"),
            std::string::npos)
      << st.ToString();
}

// A failed update keeps the slot its key took, so writers that go on past
// the overflow can fill the table: a new key then fails after one pass over
// the slots instead of probing forever, and existing groups still fold.
TEST_F(HashTableTest, AggUpdateFailsOnceEverySlotIsTaken) {
  AggFunc funcs[1] = {AggFunc::kSum};
  AggHashTable ht(&mm_, 1, 1, funcs);  // 2 slots hold 1 group
  uint64_t probes = 0;
  const int64_t one = 1;
  EXPECT_TRUE(ht.Update(0, &one, false, &probes));
  EXPECT_FALSE(ht.Update(1, &one, false, &probes));  // takes the last slot
  probes = 0;
  EXPECT_FALSE(ht.Update(2, &one, false, &probes));
  EXPECT_EQ(probes, 2u);
  EXPECT_TRUE(ht.Update(0, &one, false, &probes));
}

TEST_F(HashTableTest, LayoutRejectsWhatA32BitIndexOrItsFieldsCannotHold) {
  // Checked on the layout alone: nothing is allocated.
  EXPECT_TRUE(Layout(Layout::kMaxCapacity, 4, {4}).Check().ok());
  const Status over = Layout(Layout::kMaxCapacity + 1, 4, {4}).Check();
  EXPECT_EQ(over.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(over.message().find("32-bit entry index"), std::string::npos)
      << over.ToString();
  // Fields take 1, 2, 4 or 8 bytes, the widths a placed column has.
  for (const uint32_t w : {1u, 2u, 4u, 8u}) {
    EXPECT_TRUE(Layout(16, w, {w}).Check().ok()) << w;
  }
  for (const uint32_t w : {0u, 3u, 5u, 16u}) {
    EXPECT_EQ(Layout(16, w, {}).Check().code(), StatusCode::kInvalidArgument) << w;
    EXPECT_EQ(Layout(16, 4, {1, w}).Check().code(), StatusCode::kInvalidArgument)
        << w;
  }
  EXPECT_EQ(Layout(16, 4, std::vector<uint32_t>(9, 4)).Check().code(),
            StatusCode::kInvalidArgument);
}

// 1- and 2-byte fields pack without padding between them, and every entry's
// 32-bit link stays 4-byte aligned for the CAS that links an insert in. The
// width code a probe carries rebuilds the same entry layout.
TEST_F(HashTableTest, NarrowFieldsKeepEveryLinkAligned) {
  const std::vector<std::pair<uint32_t, std::vector<uint32_t>>> shapes = {
      {1, {}}, {2, {1}}, {1, {2, 1}}, {2, {1, 1, 1}}, {8, {1, 2, 4}}};
  for (const auto& [key_width, payload] : shapes) {
    const Layout layout(64, key_width, payload);
    ASSERT_TRUE(layout.Check().ok()) << layout.ToString();
    EXPECT_EQ(layout.next().offset, 0u);
    EXPECT_EQ(layout.stride() % 4, 0u) << layout.ToString();
    uint32_t offset = 4;
    EXPECT_EQ(layout.key().offset, offset);
    offset += key_width;
    for (size_t i = 0; i < payload.size(); ++i) {
      EXPECT_EQ(layout.payload(static_cast<int>(i)).offset, offset);
      EXPECT_EQ(layout.payload(static_cast<int>(i)).width, payload[i]);
      offset += payload[i];
    }

    const Layout decoded = Layout::FromWidthCode(layout.WidthCode());
    EXPECT_EQ(decoded.WidthCode(), layout.WidthCode());
    EXPECT_EQ(decoded.stride(), layout.stride());
    EXPECT_EQ(decoded.key().width, key_width);
    EXPECT_EQ(decoded.payload_count(), static_cast<int>(payload.size()));

    // Negative keys and payloads at the type bounds come back exactly, and
    // every link sits on a 4-byte boundary.
    JoinHashTable ht(&mm_, layout);
    const int64_t lo =
        key_width == 8 ? INT64_MIN + 1 : -(int64_t{1} << (8 * key_width - 1));
    std::vector<int64_t> keys;
    for (int64_t i = 0; i < 40; ++i) keys.push_back(lo + i * 3);
    for (const int64_t key : keys) {
      std::vector<int64_t> values;
      for (const uint32_t w : payload) values.push_back(-(int64_t{1} << (8 * w - 1)));
      ASSERT_TRUE(ht.Insert(key, values.data()));
    }
    for (uint64_t e = 0; e < ht.size(); ++e) {
      const auto link = reinterpret_cast<uintptr_t>(ht.raw_entries()) +
                        e * layout.stride() + layout.next().offset;
      EXPECT_EQ(link % 4, 0u) << "entry " << e << " of " << layout.ToString();
    }
    for (const int64_t key : keys) {
      uint64_t hops = 0;
      const int64_t e = ht.FindKeyFrom(ht.ProbeHead(key), key, &hops);
      ASSERT_GE(e, 0) << "key " << key << " of " << layout.ToString();
      for (size_t i = 0; i < payload.size(); ++i) {
        EXPECT_EQ(ht.PayloadAt(e, static_cast<int>(i)),
                  -(int64_t{1} << (8 * payload[i] - 1)));
      }
    }
  }
}

TEST_F(HashTableTest, MemoryReturnedOnDestruction) {
  const uint64_t before = mm_.used();
  {
    JoinHashTable ht(&mm_, Layout(1000, 8, {8, 8}));
    EXPECT_GT(mm_.used(), before);
  }
  EXPECT_EQ(mm_.used(), before);
}

TEST_F(HashTableTest, AggUpdateCreatesAndFolds) {
  AggFunc funcs[2] = {AggFunc::kSum, AggFunc::kMax};
  AggHashTable ht(&mm_, 64, 2, funcs);
  uint64_t probes = 0;
  int64_t v1[2] = {5, 7};
  int64_t v2[2] = {3, 2};
  ht.Update(1, v1, false, &probes);
  ht.Update(1, v2, false, &probes);
  EXPECT_EQ(ht.size(), 1u);
  ht.ForEach([&](int64_t key, const int64_t* accs) {
    EXPECT_EQ(key, 1);
    EXPECT_EQ(accs[0], 8);   // sum
    EXPECT_EQ(accs[1], 7);   // max
  });
}

TEST_F(HashTableTest, AggManyGroups) {
  AggFunc funcs[1] = {AggFunc::kSum};
  AggHashTable ht(&mm_, 512, 1, funcs);
  uint64_t probes = 0;
  for (int64_t k = 0; k < 500; ++k) {
    for (int64_t rep = 0; rep < 3; ++rep) {
      int64_t v = k;
      ht.Update(k, &v, false, &probes);
    }
  }
  EXPECT_EQ(ht.size(), 500u);
  std::map<int64_t, int64_t> seen;
  ht.ForEach([&](int64_t key, const int64_t* accs) { seen[key] = accs[0]; });
  for (int64_t k = 0; k < 500; ++k) EXPECT_EQ(seen[k], 3 * k);
}

TEST_F(HashTableTest, AggAtomicModeConcurrentUpdates) {
  AggFunc funcs[1] = {AggFunc::kSum};
  AggHashTable ht(&mm_, 128, 1, funcs);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      uint64_t probes = 0;
      for (int64_t i = 0; i < 10000; ++i) {
        int64_t one = 1;
        ht.Update(i % 100, &one, /*atomic=*/true, &probes);
      }
    });
  }
  for (auto& th : threads) th.join();
  int64_t total = 0;
  ht.ForEach([&](int64_t, const int64_t* accs) { total += accs[0]; });
  EXPECT_EQ(total, 8 * 10000);
  EXPECT_EQ(ht.size(), 100u);
}

TEST_F(HashTableTest, AggMinMaxIdentities) {
  AggFunc funcs[2] = {AggFunc::kMin, AggFunc::kMax};
  AggHashTable ht(&mm_, 8, 2, funcs);
  uint64_t probes = 0;
  int64_t v[2] = {-5, -5};
  ht.Update(0, v, false, &probes);
  ht.ForEach([&](int64_t, const int64_t* accs) {
    EXPECT_EQ(accs[0], -5);
    EXPECT_EQ(accs[1], -5);
  });
}

TEST(AggApply, AtomicMatchesPlainSemantics) {
  for (AggFunc f : {AggFunc::kSum, AggFunc::kCount, AggFunc::kMin, AggFunc::kMax}) {
    int64_t plain = AggIdentity(f);
    std::atomic<int64_t> atomic{AggIdentity(f)};
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
      const int64_t v = rng.UniformRange(-50, 50);
      AggApply(f, &plain, v);
      AggApplyAtomic(f, &atomic, v);
    }
    EXPECT_EQ(plain, atomic.load()) << static_cast<int>(f);
  }
}

}  // namespace
}  // namespace hetex::jit
