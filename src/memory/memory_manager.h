#ifndef HETEX_MEMORY_MEMORY_MANAGER_H_
#define HETEX_MEMORY_MEMORY_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sim/topology.h"

namespace hetex::memory {

/// \brief State-memory allocator for one memory node.
///
/// The paper distinguishes *state* memory (hash tables, accumulators — served by
/// memory managers) from *staging* memory (blocks in flight — served by block
/// managers, §4.3). This manager tracks usage against the node's modeled capacity
/// so that doesn't-fit conditions (e.g. DBMS G's Q4.3 failure) surface as
/// OutOfMemory instead of silently succeeding on the (larger) host.
class MemoryManager {
 public:
  MemoryManager(sim::MemNodeId node, uint64_t capacity)
      : node_(node), capacity_(capacity) {}
  ~MemoryManager();

  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;

  /// Allocates `bytes` of state memory (64-byte aligned), charged against the
  /// node's modeled capacity.
  Result<void*> Allocate(uint64_t bytes);

  /// Frees a previous allocation.
  void Free(void* ptr);

  /// Charges modeled capacity without physically allocating (used when a scaled
  /// benchmark wants a full-scale footprint model).
  Status ChargeModeled(uint64_t bytes);
  void ReleaseModeled(uint64_t bytes);

  sim::MemNodeId node() const { return node_; }
  uint64_t capacity() const { return capacity_; }
  uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  uint64_t available() const { return capacity_ - used(); }

 private:
  const sim::MemNodeId node_;
  const uint64_t capacity_;
  std::atomic<uint64_t> used_{0};
  std::mutex mu_;
  std::unordered_map<void*, uint64_t> allocations_;
};

/// Memory managers for every node of a topology.
class MemoryRegistry {
 public:
  explicit MemoryRegistry(const sim::Topology& topo) {
    managers_.reserve(topo.num_mem_nodes());
    for (int n = 0; n < topo.num_mem_nodes(); ++n) {
      managers_.push_back(
          std::make_unique<MemoryManager>(n, topo.mem_node(n).capacity));
    }
  }

  MemoryManager& manager(sim::MemNodeId node) { return *managers_.at(node); }

 private:
  std::vector<std::unique_ptr<MemoryManager>> managers_;
};

}  // namespace hetex::memory

#endif  // HETEX_MEMORY_MEMORY_MANAGER_H_
