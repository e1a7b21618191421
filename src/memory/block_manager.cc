#include "memory/block_manager.h"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/logging.h"

namespace hetex::memory {

BlockManager::BlockManager(sim::MemNodeId node, uint64_t block_bytes,
                           size_t arena_blocks)
    : node_(node), block_bytes_(block_bytes) {
  HETEX_CHECK(block_bytes > 0 && arena_blocks > 0);
  const size_t arena_bytes = block_bytes * arena_blocks;
  arena_ = static_cast<std::byte*>(std::aligned_alloc(64, arena_bytes));
  HETEX_CHECK(arena_ != nullptr) << "arena allocation failed for node " << node;
  blocks_.reserve(arena_blocks);
  free_list_.reserve(arena_blocks);
  for (size_t i = 0; i < arena_blocks; ++i) {
    auto block = std::make_unique<Block>();
    block->data = arena_ + i * block_bytes;
    block->capacity = block_bytes;
    block->node = node;
    block->owner = this;
    free_list_.push_back(block.get());
    blocks_.push_back(std::move(block));
  }
}

BlockManager::~BlockManager() { std::free(arena_); }

Block* BlockManager::Acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_list_.empty()) return nullptr;
  Block* block = free_list_.back();
  free_list_.pop_back();
  block->refs.store(1, std::memory_order_relaxed);
  return block;
}

size_t BlockManager::AcquireBatch(Block** out, size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t got = 0;
  while (got < n && !free_list_.empty()) {
    Block* block = free_list_.back();
    free_list_.pop_back();
    block->refs.store(1, std::memory_order_relaxed);
    out[got++] = block;
  }
  return got;
}

void BlockManager::Release(Block* block) {
  HETEX_CHECK(block->owner == this) << "block released to wrong manager";
  if (block->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(mu_);
    free_list_.push_back(block);
  }
}

size_t BlockManager::free_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_list_.size();
}

BlockRegistry::BlockRegistry(const sim::Topology& topo, const Options& options)
    : options_(options),
      caches_(static_cast<size_t>(topo.num_mem_nodes()) * topo.num_mem_nodes()) {
  managers_.reserve(topo.num_mem_nodes());
  for (int n = 0; n < topo.num_mem_nodes(); ++n) {
    const bool is_gpu = topo.mem_node(n).is_gpu;
    managers_.push_back(std::make_unique<BlockManager>(
        n, options.block_bytes,
        is_gpu ? options.gpu_arena_blocks : options.host_arena_blocks));
  }
}

Block* BlockRegistry::Acquire(sim::MemNodeId target, sim::MemNodeId requester,
                              Status* error,
                              const std::atomic<bool>* cancel) {
  const auto fail = [&](Status st) -> Block* {
    if (error != nullptr) *error = std::move(st);
    return nullptr;
  };
  if (fault_ != nullptr && fault_->enabled()) {
    Status st = fault_->OnStagingAcquire(target);
    if (!st.ok()) return fail(std::move(st));
  }
  // Concurrent queries share the arenas: transient exhaustion means another
  // in-flight query holds staging blocks it will release as its pipelines
  // drain. Wait for that backpressure to clear rather than aborting; only a
  // genuinely wedged arena (budget misconfiguration) fails the acquisition —
  // boundedly, with a named status, never a hang.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.acquire_timeout_seconds));
  int attempts = 0;
  while (true) {
    if (target == requester) {
      Block* block = manager(target).Acquire();
      if (block != nullptr) return block;
    } else {
      RemoteCache& rc = cache(requester, target);
      std::lock_guard<std::mutex> lock(rc.mu);
      if (rc.acquired.empty()) {
        // One "small task to the remote node" fetches a whole batch (§4.3).
        rc.acquired.resize(options_.remote_batch);
        const size_t got = manager(target).AcquireBatch(rc.acquired.data(),
                                                        options_.remote_batch);
        rc.acquired.resize(got);
        if (got > 0) {
          remote_roundtrips_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (!rc.acquired.empty()) {
        Block* block = rc.acquired.back();
        rc.acquired.pop_back();
        return block;
      }
    }
    // Nothing free in the arena: sweep parked release batches back first;
    // after ~5ms of sustained starvation also confiscate prefetch stashes
    // (costing their owners a refill round-trip beats stalling everyone).
    ReclaimNode(target, /*steal_prefetch=*/++attempts > 100);
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return fail(Status::Cancelled(
          "staging-block acquisition abandoned: query stopped while waiting "
          "for node " +
          std::to_string(target)));
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      acquire_timeouts_.fetch_add(1, std::memory_order_relaxed);
      return fail(Status::ResourceExhausted(
          "staging-block arena exhausted on node " + std::to_string(target) +
          " and no in-flight query released memory within the acquire "
          "timeout — lower the scheduler's admission cap or per-query memory "
          "budget"));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

void BlockRegistry::ReclaimNode(sim::MemNodeId target, bool steal_prefetch) {
  const size_t nodes = managers_.size();
  for (size_t requester = 0; requester < nodes; ++requester) {
    RemoteCache& rc = cache(static_cast<sim::MemNodeId>(requester), target);
    std::vector<Block*> to_flush;
    std::vector<Block*> to_return;
    {
      std::lock_guard<std::mutex> lock(rc.mu);
      to_flush.swap(rc.released);
      if (steal_prefetch) to_return.swap(rc.acquired);
    }
    if (!to_flush.empty() || !to_return.empty()) {
      remote_roundtrips_.fetch_add(1, std::memory_order_relaxed);
    }
    for (Block* b : to_flush) b->owner->Release(b);
    for (Block* b : to_return) b->owner->Release(b);
  }
}

void BlockRegistry::Release(Block* block, sim::MemNodeId requester) {
  if (block->node == requester) {
    block->owner->Release(block);
    return;
  }
  // Only the final reference needs the (batched) remote round-trip.
  if (block->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  block->refs.store(1, std::memory_order_relaxed);  // hand the last ref to the batch
  RemoteCache& rc = cache(requester, block->node);
  std::vector<Block*> to_flush;
  {
    std::lock_guard<std::mutex> lock(rc.mu);
    rc.released.push_back(block);
    if (rc.released.size() >= options_.remote_batch) {
      to_flush.swap(rc.released);
    }
  }
  if (!to_flush.empty()) {
    remote_roundtrips_.fetch_add(1, std::memory_order_relaxed);
    for (Block* b : to_flush) b->owner->Release(b);
  }
}

void BlockRegistry::FlushReleases() {
  for (auto& rc : caches_) {
    std::vector<Block*> to_flush;
    std::vector<Block*> to_return;
    {
      std::lock_guard<std::mutex> lock(rc.mu);
      to_flush.swap(rc.released);
      to_return.swap(rc.acquired);
    }
    if (!to_flush.empty() || !to_return.empty()) {
      remote_roundtrips_.fetch_add(1, std::memory_order_relaxed);
    }
    for (Block* b : to_flush) b->owner->Release(b);
    for (Block* b : to_return) b->owner->Release(b);
  }
}

}  // namespace hetex::memory
