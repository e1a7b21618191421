#ifndef HETEX_SIM_COST_MODEL_H_
#define HETEX_SIM_COST_MODEL_H_

#include <cstdint>

#include "plan/cost_params.h"
#include "sim/vtime.h"

namespace hetex::sim {

/// \brief Work counters accumulated while a pipeline (or kernel) processes a block.
///
/// The JIT VM fills one of these as it executes; the device then converts the
/// counters into modeled seconds via CostModel. Keeping the counters separate from
/// the conversion means one functional execution yields costs for any device.
struct CostStats {
  uint64_t bytes_read = 0;       ///< sequentially streamed input bytes
  uint64_t bytes_written = 0;    ///< sequentially written output bytes
  uint64_t tuples = 0;           ///< tuples pushed through the fused pipeline
  uint64_t ops = 0;              ///< VM micro-ops executed (compute intensity)
  uint64_t atomics = 0;          ///< worker-scoped atomic operations
  uint64_t near_accesses = 0;    ///< random accesses into cache-resident structures
  uint64_t mid_accesses = 0;     ///< random accesses into LLC-sized structures
  uint64_t far_accesses = 0;     ///< random accesses into DRAM-sized structures

  void Add(const CostStats& o) {
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    tuples += o.tuples;
    ops += o.ops;
    atomics += o.atomics;
    near_accesses += o.near_accesses;
    mid_accesses += o.mid_accesses;
    far_accesses += o.far_accesses;
  }

  uint64_t TotalBytes() const { return bytes_read + bytes_written; }

  /// These counters `n` times over.
  CostStats Times(uint64_t n) const {
    return {bytes_read * n,    bytes_written * n, tuples * n,
            ops * n,           atomics * n,       near_accesses * n,
            mid_accesses * n,  far_accesses * n};
  }
};

/// \brief Per-device-class execution constants.
///
/// `*_access_cost` is the amortized serial cost of a dependent random access into a
/// structure of the matching size class (near = L1/L2-resident, mid = LLC-resident,
/// far = DRAM/HBM-resident); the thresholds live in CostModel. Random far accesses
/// additionally consume `random_line_bytes` of memory bandwidth each (a cache line
/// / memory transaction), which is what caps CPU join scalability in Fig. 6/7.
struct DeviceCaps {
  double tuple_cost;        ///< seconds per tuple of fused pipeline overhead
  double op_cost;           ///< seconds per VM micro-op
  double atomic_cost;       ///< seconds per worker-scoped atomic
  double near_access_cost;
  double mid_access_cost;
  double far_access_cost;
  double random_line_bytes; ///< bandwidth consumed per far access
};

/// \brief Hardware calibration for the simulated server.
///
/// Defaults (`Paper()`) are calibrated to the paper's testbed: 2× Xeon E5-2650L v3
/// (12 cores each), 256 GB DRAM at ~45 GB/s per socket (~90 GB/s aggregate, the
/// paper measures 89.7-90.6 GB/s), one GTX 1080 (8 GB, 320 GB/s) per socket behind
/// a dedicated PCIe 3.0 x16 link measured at ~12 GB/s.
class CostModel {
 public:
  /// Calibration matching the paper's evaluation server.
  static CostModel Paper();

  /// Size-class thresholds for random accesses.
  uint64_t near_bytes = 1ull << 20;   ///< structures under 1 MB: L1/L2 resident
  uint64_t mid_bytes = 30ull << 20;   ///< under 30 MB: LLC resident

  DeviceCaps cpu;          ///< per CPU core
  DeviceCaps gpu;          ///< per whole-GPU kernel (parallelism folded in)

  double cpu_core_bw = 6e9;       ///< B/s streaming bandwidth of one core
  double cpu_socket_bw = 45e9;    ///< B/s aggregate per socket
  double gpu_mem_bw = 320e9;      ///< B/s GPU HBM/GDDR bandwidth
  double pcie_bw = 12e9;          ///< B/s pinned-memory DMA over one PCIe 3.0 x16
  double pcie_pageable_bw = 5.5e9;///< B/s from pageable host memory (DBMS G)
  double nvlink_bw = 40e9;        ///< B/s of one NVLink-class GPU peer link
  double inter_socket_bw = 38e9;  ///< B/s of the UPI/QPI inter-socket link

  // Control-plane constants, seeded from the one shared definition so the
  // planner's stamps/estimates and the runtime simulation cannot drift apart
  // (see plan::CostParams).
  double dma_latency = plan::CostParams{}.dma_latency;
  double peer_dma_latency = plan::CostParams{}.peer_dma_latency;
  double inter_socket_latency = plan::CostParams{}.inter_socket_latency;
  double kernel_launch_latency = plan::CostParams{}.kernel_launch_latency;
  double task_spawn_latency = plan::CostParams{}.task_spawn_latency;
  double router_init_latency = plan::CostParams{}.router_init_latency;
  double router_control_cost = plan::CostParams{}.router_control_cost;
  double segmenter_block_cost = plan::CostParams{}.segmenter_block_cost;

  /// Fixed latency of a serving-layer result-cache hit (hash-map probe plus
  /// bookkeeping); the row copy itself is charged at cpu_core_bw on top.
  double result_cache_lookup_latency = 2e-6;

  /// Scales every fixed latency by `f`, leaving bandwidths and per-tuple costs
  /// untouched. Benchmarks that scale the paper's datasets down by a factor use
  /// this to keep the fixed-cost-to-work ratio of the original regime, making
  /// the simulation a self-similar miniature.
  void ScaleFixedLatencies(double f) {
    dma_latency *= f;
    peer_dma_latency *= f;
    inter_socket_latency *= f;
    kernel_launch_latency *= f;
    task_spawn_latency *= f;
    router_init_latency *= f;
    router_control_cost *= f;
    segmenter_block_cost *= f;
  }

  /// Pick the size class of a random access into a `region_bytes`-sized structure.
  double RandomAccessCost(const DeviceCaps& caps, uint64_t region_bytes) const {
    if (region_bytes <= near_bytes) return caps.near_access_cost;
    if (region_bytes <= mid_bytes) return caps.mid_access_cost;
    return caps.far_access_cost;
  }

  /// Classify region size: 0 = near, 1 = mid, 2 = far. Used by the VM to bump the
  /// right CostStats counter at codegen time.
  int RandomAccessClass(uint64_t region_bytes) const {
    if (region_bytes <= near_bytes) return 0;
    if (region_bytes <= mid_bytes) return 1;
    return 2;
  }

  /// Bytes a block of work streams through the memory system — the quantity a
  /// bandwidth share divides, and the occupancy a UVA/zero-copy kernel reserves
  /// on its PCIe link (every random far access drags a full line across).
  double BandwidthBytes(const CostStats& s, const DeviceCaps& caps) const {
    return static_cast<double>(s.TotalBytes()) +
           static_cast<double>(s.far_accesses) * caps.random_line_bytes;
  }

  /// Pure compute component of WorkCost (per-tuple, per-op and random-access
  /// serial costs; no streaming term).
  VTime ComputeTime(const CostStats& s, const DeviceCaps& caps) const {
    return static_cast<double>(s.tuples) * caps.tuple_cost +
           static_cast<double>(s.ops) * caps.op_cost +
           static_cast<double>(s.atomics) * caps.atomic_cost +
           static_cast<double>(s.near_accesses) * caps.near_access_cost +
           static_cast<double>(s.mid_accesses) * caps.mid_access_cost +
           static_cast<double>(s.far_accesses) * caps.far_access_cost;
  }

  /// \brief Modeled time for a block of pipeline work on a device.
  ///
  /// `bandwidth_share` is the streaming bandwidth available to this execution
  /// context right now (e.g. min(core bw, socket bw / active workers) for a CPU
  /// worker; full HBM bandwidth for a GPU kernel). Bandwidth time and compute time
  /// overlap on real hardware, so the modeled cost is their max.
  VTime WorkCost(const CostStats& s, const DeviceCaps& caps,
                 double bandwidth_share) const {
    const double bw_time = BandwidthBytes(s, caps) / bandwidth_share;
    const double compute_time = ComputeTime(s, caps);
    return bw_time > compute_time ? bw_time : compute_time;
  }
};

}  // namespace hetex::sim

#endif  // HETEX_SIM_COST_MODEL_H_
