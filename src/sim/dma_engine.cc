#include "sim/dma_engine.h"

#include <cstring>

namespace hetex::sim {

VTime DmaEngine::Transfer(const void* src, void* dst, uint64_t bytes, int link,
                          VTime earliest, bool pageable, VTime epoch) {
  HETEX_CHECK(link >= 0 && link < topo_->num_links() &&
              topo_->link_info(link).type != Topology::LinkType::kInterSocket)
      << "bad DMA link " << link << " (no-GPU topology has none)";
  BandwidthServer& server = topo_->link(link);
  // The same duration Topology::RouteSeconds prices the hop at; for a pinned
  // hop it is exactly what BandwidthServer::Reserve computes.
  const VTime duration =
      server.latency() + static_cast<double>(bytes) / topo_->HopRate(link, pageable);
  const VTime end = server.ReserveDuration(duration, earliest, epoch).end;
  std::memcpy(dst, src, bytes);
  return end;
}

}  // namespace hetex::sim
