#include "core/ht_registry.h"

#include <chrono>
#include <limits>
#include <set>

#include "common/logging.h"

namespace hetex::core {

namespace {
constexpr int kIntMin = std::numeric_limits<int>::min();
/// Orders before every unit: the lower end of a (query, join) key range.
constexpr sim::DeviceId kFirstUnit{sim::DeviceType::kCpu, kIntMin};
}  // namespace

jit::JoinHashTable* HtRegistry::Create(uint64_t query, int join_id,
                                       sim::DeviceId unit,
                                       memory::MemoryManager* mm,
                                       uint64_t capacity, int payload_width) {
  std::lock_guard<std::mutex> lock(mu_);
  const Key key{query, join_id, unit};
  HETEX_CHECK(tables_.find(key) == tables_.end())
      << "duplicate hash table for query " << query << " join " << join_id;
  auto ht = std::make_shared<jit::JoinHashTable>(mm, capacity, payload_width);
  jit::JoinHashTable* raw = ht.get();
  tables_[key] = std::move(ht);
  return raw;
}

jit::JoinHashTable* HtRegistry::Get(uint64_t query, int join_id,
                                    sim::DeviceId unit) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(Key{query, join_id, unit});
  HETEX_CHECK(it != tables_.end())
      << "no hash table for query " << query << " join " << join_id
      << " on unit " << unit.ToString();
  return it->second.get();
}

void HtRegistry::DropQuery(uint64_t query) {
  std::lock_guard<std::mutex> lock(mu_);
  // Keys order by query first: erase the contiguous [ (query,min), (query+1,min) )
  // range. Aliases of shared replicas only drop a reference — the replica set
  // registered under its content key stays live for future attachers.
  tables_.erase(tables_.lower_bound(Key{query, kIntMin, kFirstUnit}),
                tables_.lower_bound(Key{query + 1, kIntMin, kFirstUnit}));
}

void HtRegistry::EvictStaleLocked(const std::string& table, uint64_t epoch) {
  if (table.empty()) return;
  for (auto it = shared_.begin(); it != shared_.end();) {
    const SharedEntry& entry = it->second;
    if (entry.table == table && entry.epoch != epoch &&
        entry.state != SharedEntry::State::kBuilding) {
      // Queries still probing aliases of these replicas hold them via their
      // namespaced shared_ptrs in tables_; only the registry's reuse handle
      // drops here.
      it = shared_.erase(it);
    } else {
      ++it;
    }
  }
}

SharedBuildLease HtRegistry::AcquireShared(const std::string& content_key,
                                           uint64_t query,
                                           const QueryControl* control,
                                           const std::string& table,
                                           uint64_t mutation_epoch) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = shared_.find(content_key);
    if (it == shared_.end()) {
      // First claim of a new-generation key: the table's stale generations
      // (older mutation epochs, unreachable by any future key) retire now.
      EvictStaleLocked(table, mutation_epoch);
      SharedEntry& entry = shared_[content_key];
      entry.state = SharedEntry::State::kBuilding;
      entry.builder = query;
      entry.table = table;
      entry.epoch = mutation_epoch;
      ++shared_stats_.builds;
      return SharedBuildLease{SharedBuildLease::Role::kBuild, {}};
    }
    SharedEntry& entry = it->second;
    switch (entry.state) {
      case SharedEntry::State::kReady:
        ++shared_stats_.attaches;
        return SharedBuildLease{SharedBuildLease::Role::kAttach, entry.ready_at};
      case SharedEntry::State::kFailed:
        // Failover: this waiter takes over the build role; the entry's old
        // (empty) replica set is discarded with the failed attempt.
        entry.state = SharedEntry::State::kBuilding;
        entry.builder = query;
        entry.replicas.clear();
        ++shared_stats_.builds;
        ++shared_stats_.failovers;
        return SharedBuildLease{SharedBuildLease::Role::kBuild, {}};
      case SharedEntry::State::kBuilding:
        if (entry.builder == query) {
          // A query cannot wait for its own in-flight build (two joins of one
          // query sharing a content key): fall back to a private build.
          return SharedBuildLease{SharedBuildLease::Role::kPrivate, {}};
        }
        break;
    }
    if (control != nullptr &&
        (control->cancelled.load(std::memory_order_relaxed) ||
         control->deadline_hit.load(std::memory_order_relaxed))) {
      // A dead query must not keep holding its admission slot against another
      // query's in-flight build: deadline expiry bails out like cancellation.
      return SharedBuildLease{SharedBuildLease::Role::kCancelled, {}};
    }
    // Bounded wait so a cancelled waiter re-checks its control flags even when
    // no publish/fail notification arrives.
    shared_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

void HtRegistry::PublishShared(const std::string& content_key, uint64_t query,
                               int join_id,
                               std::map<sim::DeviceId, sim::VTime> ready_at) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = shared_.find(content_key);
    HETEX_CHECK(it != shared_.end() &&
                it->second.state == SharedEntry::State::kBuilding &&
                it->second.builder == query)
        << "publish without the build role for key " << content_key;
    SharedEntry& entry = it->second;
    for (auto t = tables_.lower_bound(Key{query, join_id, kFirstUnit});
         t != tables_.end() && std::get<0>(t->first) == query &&
         std::get<1>(t->first) == join_id;
         ++t) {
      entry.replicas[std::get<2>(t->first)] = t->second;
    }
    HETEX_CHECK(!entry.replicas.empty())
        << "publish with no built replicas for key " << content_key;
    for (const auto& [unit, ht] : entry.replicas) {
      HETEX_CHECK(ready_at.count(unit) != 0)
          << "publish without a ready time for unit " << unit.ToString()
          << " of key " << content_key;
    }
    entry.ready_at = std::move(ready_at);
    entry.state = SharedEntry::State::kReady;
  }
  shared_cv_.notify_all();
}

void HtRegistry::FailShared(const std::string& content_key) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = shared_.find(content_key);
    HETEX_CHECK(it != shared_.end() &&
                it->second.state == SharedEntry::State::kBuilding)
        << "fail without an in-flight build for key " << content_key;
    it->second.state = SharedEntry::State::kFailed;
    it->second.replicas.clear();
    it->second.ready_at.clear();
  }
  shared_cv_.notify_all();
}

int HtRegistry::AttachShared(const std::string& content_key, uint64_t query,
                             int join_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = shared_.find(content_key);
  HETEX_CHECK(it != shared_.end() &&
              it->second.state == SharedEntry::State::kReady)
      << "attach to a non-ready shared build for key " << content_key;
  int aliased = 0;
  for (const auto& [unit, ht] : it->second.replicas) {
    const Key key{query, join_id, unit};
    HETEX_CHECK(tables_.find(key) == tables_.end())
        << "attach collides with query " << query << " join " << join_id;
    tables_[key] = ht;
    ++aliased;
  }
  return aliased;
}

HtRegistry::SharedStats HtRegistry::shared_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shared_stats_;
}

int HtRegistry::NumSharedEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(shared_.size());
}

uint64_t HtRegistry::TotalHtBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  std::set<const jit::JoinHashTable*> seen;
  for (const auto& [key, ht] : tables_) {
    if (seen.insert(ht.get()).second) total += ht->bytes();
  }
  for (const auto& [key, entry] : shared_) {
    for (const auto& [unit, ht] : entry.replicas) {
      if (seen.insert(ht.get()).second) total += ht->bytes();
    }
  }
  return total;
}

int HtRegistry::NumTables(uint64_t query) const {
  std::lock_guard<std::mutex> lock(mu_);
  int n = 0;
  for (auto it = tables_.lower_bound(Key{query, kIntMin, kFirstUnit});
       it != tables_.end() && std::get<0>(it->first) == query; ++it) {
    ++n;
  }
  return n;
}

}  // namespace hetex::core
