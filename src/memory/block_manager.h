#ifndef HETEX_MEMORY_BLOCK_MANAGER_H_
#define HETEX_MEMORY_BLOCK_MANAGER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include <atomic>

#include "common/status.h"
#include "memory/block.h"
#include "sim/fault.h"
#include "sim/topology.h"

namespace hetex::memory {

/// \brief Arena of pre-allocated staging blocks for one memory node.
///
/// Per the paper (§4.3): block arenas are pre-allocated at system initialization to
/// avoid allocation cost at query time, and only device-local callers synchronize
/// on a node's free list (there is no global cache coherence to rely on). Remote
/// callers must go through BlockRegistry, which batches remote acquisitions.
class BlockManager {
 public:
  BlockManager(sim::MemNodeId node, uint64_t block_bytes, size_t arena_blocks);
  ~BlockManager();

  BlockManager(const BlockManager&) = delete;
  BlockManager& operator=(const BlockManager&) = delete;

  /// Acquires a block from the local arena; nullptr when the arena is exhausted.
  /// The returned block has one reference.
  Block* Acquire();

  /// Acquires up to `n` blocks at once (remote batch path). Returns count acquired.
  size_t AcquireBatch(Block** out, size_t n);

  /// Drops one reference; the block returns to the arena at zero.
  void Release(Block* block);

  /// Adds a reference for multicast sharing.
  static void AddRef(Block* block) {
    block->refs.fetch_add(1, std::memory_order_relaxed);
  }

  sim::MemNodeId node() const { return node_; }
  uint64_t block_bytes() const { return block_bytes_; }
  size_t arena_blocks() const { return blocks_.size(); }
  size_t free_blocks() const;
  size_t in_use() const { return arena_blocks() - free_blocks(); }

 private:
  const sim::MemNodeId node_;
  const uint64_t block_bytes_;
  std::byte* arena_ = nullptr;
  std::vector<std::unique_ptr<Block>> blocks_;
  mutable std::mutex mu_;  // device-local synchronization only
  std::vector<Block*> free_list_;
};

/// \brief All block managers of the server plus the remote-acquisition machinery.
///
/// Acquiring a block on a *remote* node (e.g. a CPU mem-move producer grabbing a
/// staging block in GPU memory for a DMA target) is served from a per
/// (requester-node, target-node) cache refilled in batches, and releases of remote
/// blocks are batched back — the two §4.3 optimizations that make the absence of
/// cross-device coherence affordable.
class BlockRegistry {
 public:
  struct Options {
    uint64_t block_bytes = 1ull << 20;   ///< 1 MiB blocks
    size_t host_arena_blocks = 512;      ///< per host node
    size_t gpu_arena_blocks = 256;       ///< per GPU node
    size_t remote_batch = 8;             ///< blocks fetched per remote round-trip
    /// Wall-clock bound on the Acquire backpressure wait. An arena that stays
    /// exhausted this long fails the acquisition with a named
    /// kResourceExhausted status (propagated into QueryResult::status) instead
    /// of deadlocking the admission queue.
    double acquire_timeout_seconds = 30.0;
  };

  BlockRegistry(const sim::Topology& topo, const Options& options);

  BlockManager& manager(sim::MemNodeId node) { return *managers_.at(node); }
  const Options& options() const { return options_; }

  /// Attaches the System's fault plane: Acquire then consults it for injected
  /// staging-exhaustion spikes. Null / disabled = no checks.
  void set_fault_injector(sim::FaultInjector* fault) { fault_ = fault; }

  /// Acquires a block on `target` for a caller local to `requester`.
  /// Local requests hit the arena directly; remote requests go through the cache.
  ///
  /// Exhausted arenas back-pressure: the call sweeps reclaimable blocks and
  /// waits — but boundedly. It returns nullptr (with the named reason in
  /// `error`, when given) on: a sustained-exhaustion timeout
  /// (kResourceExhausted), an injected exhaustion spike (kResourceExhausted),
  /// or a stop observed through `cancel` (kCancelled) — the cooperative
  /// wake-up that lets a cancelled or already-failed query stop waiting for
  /// memory.
  Block* Acquire(sim::MemNodeId target, sim::MemNodeId requester,
                 Status* error = nullptr,
                 const std::atomic<bool>* cancel = nullptr);

  /// Releases a block from a caller local to `requester`; remote releases are
  /// buffered and flushed in batches.
  void Release(Block* block, sim::MemNodeId requester);

  /// Flushes all buffered remote releases (e.g. at query end).
  void FlushReleases();

  /// Returns blocks parked in the remote caches of one node to its arena.
  /// Called by a starved Acquire: blocks another query batched but never
  /// flushed (it is still running) are reclaimable without waiting for its
  /// end-of-query flush. Buffered releases are always swept (pure reclaim);
  /// `steal_prefetch` additionally confiscates unused prefetch stashes —
  /// escalation for sustained starvation, since it forces their owners into
  /// fresh batch round-trips.
  void ReclaimNode(sim::MemNodeId target, bool steal_prefetch);

  /// Number of remote batch round-trips performed (for tests/ablation).
  uint64_t remote_roundtrips() const { return remote_roundtrips_; }

  /// Number of acquisitions that failed on the acquire timeout (for tests).
  uint64_t acquire_timeouts() const { return acquire_timeouts_; }

 private:
  struct RemoteCache {
    std::mutex mu;
    std::vector<Block*> acquired;  ///< ready-to-hand-out blocks on the target node
    std::vector<Block*> released;  ///< pending batched releases
  };

  RemoteCache& cache(sim::MemNodeId requester, sim::MemNodeId target) {
    return caches_[static_cast<size_t>(requester) * managers_.size() +
                   static_cast<size_t>(target)];
  }

  Options options_;
  std::vector<std::unique_ptr<BlockManager>> managers_;
  std::vector<RemoteCache> caches_;  ///< indexed [requester * nodes + target]
  std::atomic<uint64_t> remote_roundtrips_{0};
  std::atomic<uint64_t> acquire_timeouts_{0};
  sim::FaultInjector* fault_ = nullptr;
};

}  // namespace hetex::memory

#endif  // HETEX_MEMORY_BLOCK_MANAGER_H_
