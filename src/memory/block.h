#ifndef HETEX_MEMORY_BLOCK_H_
#define HETEX_MEMORY_BLOCK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "sim/topology.h"
#include "sim/vtime.h"

namespace hetex::memory {

class BlockManager;

/// \brief A fixed-size staging block living on one memory node.
///
/// Blocks are the unit of data movement in HetExchange: pack operators fill them,
/// mem-move transfers them across interconnects, routers route their *handles*
/// (control plane only). Blocks are pre-allocated in per-node arenas at system
/// start (§4.3) and recycled through their owning BlockManager.
///
/// `refs` supports multicast: mem-move broadcast can hand the same physical block
/// to several same-node consumers without copying; the block returns to its arena
/// when the last reference is released.
struct Block {
  std::byte* data = nullptr;
  uint64_t capacity = 0;                ///< bytes
  sim::MemNodeId node = sim::kInvalidMemNode;
  BlockManager* owner = nullptr;        ///< nullptr for table-resident (foreign) data
  std::atomic<uint32_t> refs{0};

  template <typename T>
  T* as() {
    return reinterpret_cast<T*>(data);
  }
  template <typename T>
  const T* as() const {
    return reinterpret_cast<const T*>(data);
  }
};

/// \brief Control-plane reference to (a used prefix of) a block.
///
/// This is what flows through routers and device-crossing operators: the data stays
/// put, only the handle travels (§3.1 "the router only operates on the control
/// plane"). `ready_at` is the virtual time at which the block's contents exist
/// (produced, or DMA-completed); consumers advance their clocks past it.
struct BlockHandle {
  Block* block = nullptr;
  uint64_t bytes = 0;     ///< used bytes
  uint64_t rows = 0;      ///< tuples contained
  sim::VTime ready_at = 0;

  bool valid() const { return block != nullptr; }
  sim::MemNodeId node() const { return block ? block->node : sim::kInvalidMemNode; }
  std::byte* data() const { return block->data; }
};

}  // namespace hetex::memory

#endif  // HETEX_MEMORY_BLOCK_H_
