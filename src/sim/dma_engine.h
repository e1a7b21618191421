#ifndef HETEX_SIM_DMA_ENGINE_H_
#define HETEX_SIM_DMA_ENGINE_H_

#include <cstdint>

#include "sim/topology.h"
#include "sim/vtime.h"

namespace hetex::sim {

/// \brief Copy engine over the simulated DMA links: the PCIe links and the GPU
/// peer links.
///
/// A transfer reserves its link's BandwidthServer (so queueing/pipelining of
/// back-to-back transfers shows up in virtual time), copies on the caller's
/// thread and returns the modeled completion time. The consumer of the copy
/// starts no earlier than that time, which is what overlaps transfers with
/// compute in the model (§3.2); the host copy itself needs no asynchrony.
/// `pageable=true` models transfers whose source was not pinned: a PCIe DMA
/// must stage through a bounce buffer and runs at Topology::HopRate — the
/// DBMS G behaviour the paper calls out in §6.2.
class DmaEngine {
 public:
  explicit DmaEngine(Topology* topo) : topo_(topo) {}

  /// Copies `bytes` from `src` to `dst` over `link`, the id of a PCIe or GPU
  /// peer link in the topology's link table. `earliest` is the session-local
  /// virtual time at which the source data exists; `epoch` is the absolute
  /// arrival time of the owning query session. The transfer queues on the
  /// shared link at `epoch + earliest` (contending with every in-flight
  /// session) for latency + bytes / HopRate, and the returned completion time
  /// is session-local.
  VTime Transfer(const void* src, void* dst, uint64_t bytes, int link,
                 VTime earliest, bool pageable = false, VTime epoch = 0.0);

 private:
  Topology* topo_;
};

}  // namespace hetex::sim

#endif  // HETEX_SIM_DMA_ENGINE_H_
