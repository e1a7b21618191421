#ifndef HETEX_CORE_SYSTEM_H_
#define HETEX_CORE_SYSTEM_H_

#include <atomic>
#include <memory>
#include <vector>

#include "core/ht_registry.h"
#include "core/program_cache.h"
#include "core/result_cache.h"
#include "core/worker_pool.h"
#include "jit/device_provider.h"
#include "jit/kernel_cache.h"
#include "memory/block_manager.h"
#include "memory/memory_manager.h"
#include "sim/dma_engine.h"
#include "sim/fault.h"
#include "sim/gpu_device.h"
#include "sim/topology.h"
#include "storage/table.h"

namespace hetex::core {

/// \brief The running server: simulated topology, devices, transfer engines and
/// per-node memory infrastructure, plus the table catalog.
///
/// One System hosts many queries; block arenas, GPU worker pools and the host
/// worker pool are created once at startup (the paper's "at system
/// initialization time, the block managers pre-allocate memory arenas"). The
/// worker pool's bring-up — router instantiation and thread pinning, the
/// paper's ~10 ms (CostModel::router_init_latency) — is paid once, on the
/// System's virtual timeline over [0, bring_up()); a query then only wakes
/// parked workers (the task_spawn_latency its plan's routers carry).
class System {
 public:
  struct Options {
    sim::Topology::Options topology;
    memory::BlockRegistry::Options blocks;
    /// JIT tier selection for every provider this system creates. kAuto picks
    /// the best tier a program's shape allows (native when codegen is enabled,
    /// else vectorized); parity suites pin kForceInterpreter /
    /// kForceVectorized to diff the tiers.
    jit::TierPolicy tier_policy = jit::TierPolicy::kAuto;
    /// Tier-2 codegen configuration. Defaults to the environment knobs
    /// (HETEX_KERNEL_DIR / HETEX_COMPILER_CMD / HETEX_TIER2); codegen is
    /// off unless enabled there or here.
    jit::CodegenOptions codegen = jit::CodegenOptions::FromEnv();
    /// Fault plane. Defaults to the HETEX_FAULT_* environment knobs; disabled
    /// unless enabled there or here, and a disabled injector is never
    /// consulted (zero behavior change on the fault-free path).
    sim::FaultOptions faults = sim::FaultOptions::FromEnv();
    /// Serving-layer cross-query reuse (shared hash-table builds + result
    /// cache). Defaults to the HETEX_SHARED_BUILDS / HETEX_RESULT_CACHE_MB
    /// environment knobs; everything off unless enabled there or here — a
    /// System with reuse off behaves bit-identically to one without the
    /// serving layer (test-pinned).
    ReuseOptions reuse = ReuseOptions::FromEnv();
  };

  System();  // default Options
  explicit System(Options options);

  sim::Topology& topology() { return topology_; }
  const sim::CostModel& cost_model() const { return topology_.cost_model(); }
  sim::DmaEngine& dma() { return dma_; }
  sim::GpuDevice& gpu(int i) { return *gpus_.at(i); }
  int num_gpus() const { return static_cast<int>(gpus_.size()); }
  memory::MemoryRegistry& memory() { return memory_; }
  memory::BlockRegistry& blocks() { return blocks_; }
  storage::Catalog& catalog() { return catalog_; }

  /// Per-device cache of finalized pipeline programs. Lives on the system so
  /// repeated query runs — and concurrent sessions — reuse finalized spans
  /// (see ProgramCache).
  ProgramCache& program_cache() { return program_cache_; }
  jit::TierPolicy tier_policy() const { return tier_policy_; }

  /// Tier-2 kernel cache (null when codegen is disabled). Owns the compile
  /// pool and the persistent on-disk .cc/.so store shared by all providers.
  jit::KernelCache* kernel_cache() { return kernel_cache_.get(); }

  /// Join hash tables of every in-flight query, namespaced by query id
  /// (see HtRegistry).
  HtRegistry& hts() { return hts_; }

  /// Serving-layer reuse knobs this system was built with.
  const ReuseOptions& reuse() const { return reuse_; }
  /// Cross-query result cache (null when Options::reuse.result_cache is off).
  ResultCache* result_cache() { return result_cache_.get(); }

  /// The fault plane + device-health registry (see sim::FaultInjector).
  /// Always present; disabled by default.
  sim::FaultInjector& fault() { return fault_; }
  const sim::FaultInjector& fault() const { return fault_; }

  /// GPUs the health registry considers usable at absolute virtual time `t`,
  /// minus `exclude` (the scheduler's conservative exclusion set after a
  /// kDeviceLost failure). All GPUs when the injector is disabled.
  std::vector<int> AvailableGpusAt(sim::VTime t,
                                   const std::vector<int>& exclude = {}) const;

  /// Creates a provider for a compute device (see jit::DeviceProvider).
  std::unique_ptr<jit::DeviceProvider> MakeProvider(sim::DeviceId device);

  /// The host threads every per-query thread runs on (see WorkerPool):
  /// worker-group instances, segmenters and scheduled queries.
  WorkerPool& workers() { return workers_; }

  /// End of the worker pool's bring-up, which occupies [0, bring_up()) of the
  /// virtual timeline: CostModel::router_init_latency, paid once per System.
  sim::VTime bring_up() const { return cost_model().router_init_latency; }
  /// Session-local wait of a session anchored at absolute `epoch` for the
  /// bring-up to end: its stages start no earlier. Zero from bring_up() on,
  /// so no session anchored at the horizon waits.
  sim::VTime PoolWait(sim::VTime epoch) const {
    return sim::MaxT(0.0, bring_up() - epoch);
  }

  /// Absolute virtual time by which every shared resource (the worker pool's
  /// bring-up, PCIe links, GPU kernel streams, socket DRAM timelines) is idle.
  /// A query session anchored at this horizon runs on effectively fresh
  /// resources — the session-scoped replacement for the old
  /// rewind-everything ResetVirtualTime(), safe while other queries are in
  /// flight (their reservations simply stay behind the horizon).
  sim::VTime VirtualHorizon() const {
    sim::VTime h = sim::MaxT(
        bring_up(), sim::MaxT(topology_.LinkHorizon(), topology_.DramHorizon()));
    for (const auto& gpu : gpus_) h = sim::MaxT(h, gpu->stream_free_at());
    return h;
  }

  /// Allocates a system-unique query id (session namespacing for hash tables
  /// and diagnostics).
  uint64_t NextQueryId() {
    return next_query_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Host memory nodes (all sockets), the default table placement.
  std::vector<sim::MemNodeId> HostNodes() const;
  /// GPU memory nodes (for data_on_gpu placements).
  std::vector<sim::MemNodeId> GpuNodes() const;

 private:
  sim::Topology topology_;
  sim::FaultInjector fault_;  ///< before blocks_: registered into it at construction
  memory::MemoryRegistry memory_;
  memory::BlockRegistry blocks_;
  sim::DmaEngine dma_;
  std::vector<std::unique_ptr<sim::GpuDevice>> gpus_;
  storage::Catalog catalog_;
  ProgramCache program_cache_;
  std::unique_ptr<jit::KernelCache> kernel_cache_;
  HtRegistry hts_;
  ReuseOptions reuse_;
  std::unique_ptr<ResultCache> result_cache_;
  jit::TierPolicy tier_policy_ = jit::TierPolicy::kAuto;
  std::atomic<uint64_t> next_query_id_{1};
  /// Last, so it is destroyed first: its threads are joined before anything
  /// a task could have used goes away.
  WorkerPool workers_;
};

}  // namespace hetex::core

#endif  // HETEX_CORE_SYSTEM_H_
