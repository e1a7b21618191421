#include "sim/dma_engine.h"

#include <cstring>

namespace hetex::sim {

VTime DmaEngine::Transfer(const void* src, void* dst, uint64_t bytes, int link,
                          VTime earliest, VTime epoch) {
  HETEX_CHECK(link >= 0 && link < topo_->num_links() &&
              topo_->link_info(link).type != Topology::LinkType::kInterSocket)
      << "bad DMA link " << link << " (no-GPU topology has none)";
  // latency + bytes / rate: the duration Topology::RouteSeconds prices the
  // hop at.
  const VTime end = topo_->link(link).Reserve(bytes, earliest, epoch).end;
  std::memcpy(dst, src, bytes);
  return end;
}

}  // namespace hetex::sim
