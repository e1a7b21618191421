#ifndef HETEX_SIM_GPU_DEVICE_H_
#define HETEX_SIM_GPU_DEVICE_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/bandwidth.h"
#include "sim/cost_model.h"
#include "sim/topology.h"
#include "sim/vtime.h"

namespace hetex::sim {

/// \brief Execution context of one logical GPU thread inside a kernel.
///
/// Mirrors the CUDA thread hierarchy the paper's GPU provider targets: a grid of
/// `num_threads` logical threads organized into thread blocks of `block_dim`.
/// Generated pipelines use grid-stride loops over `(thread_id, num_threads)`, which
/// is exactly what `threadIdInWorker` / `#threadsInWorker` resolve to (§4.1).
struct KernelCtx {
  int thread_id = 0;    ///< grid-global logical thread id
  int num_threads = 1;  ///< grid size
  int block_id = 0;
  int block_dim = 1;
  int lane = 0;         ///< id within the thread block ("neighborhood")
  CostStats* stats = nullptr;  ///< per-simulation-worker cost sink
};

/// \brief A simulated GPU.
///
/// Functionally executes kernels on a small pool of host threads (each simulating a
/// slice of the logical grid); models timing as launch latency plus the cost-model
/// conversion of the work the kernel actually performed. Kernels on one GPU
/// serialize (single stream), giving the virtual-time queueing behaviour of
/// back-to-back kernel launches.
class GpuDevice {
 public:
  using KernelFn = std::function<void(const KernelCtx&)>;

  GpuDevice(const Topology::GpuInfo& info, const CostModel* cost_model);
  ~GpuDevice();

  GpuDevice(const GpuDevice&) = delete;
  GpuDevice& operator=(const GpuDevice&) = delete;

  struct LaunchResult {
    VTime start = 0;       ///< when the kernel began (after queueing + launch)
    VTime end = 0;         ///< modeled completion
    CostStats stats;       ///< aggregated work counters
  };

  /// Timing parameters of one kernel launch.
  struct LaunchOptions {
    /// Session-local virtual time at which the kernel's input exists.
    VTime earliest = 0;
    /// Absolute arrival time of the launching query session; the kernel queues
    /// on the shared stream at `epoch + earliest` and the result windows come
    /// back session-local (epoch-relative).
    VTime epoch = 0.0;
    /// UVA/zero-copy execution: the kernel's streamed bytes cross this PCIe
    /// link and reserve real occupancy on it (epoch-anchored, first-fit,
    /// exactly like DMA) — so concurrent sessions' transfers queue behind a
    /// UVA kernel and vice versa, instead of the bytes vanishing into a
    /// private stream-bandwidth discount. Null = device-memory kernel.
    BandwidthServer* uva_link = nullptr;
    /// Run every logical thread on the launching thread instead of the
    /// simulation workers: for a small kernel the hand-off to the pool costs
    /// more host time than it saves. The modeled result is the same.
    bool on_caller = false;
  };

  /// Launches a kernel over `grid_threads` logical threads (blocks of `block_dim`)
  /// and functionally executes it to completion.
  LaunchResult LaunchKernel(const KernelFn& fn, int grid_threads, int block_dim,
                            const LaunchOptions& opts);

  /// Convenience overload (earliest / epoch positional; no UVA link) — the
  /// signature most sim tests use.
  LaunchResult LaunchKernel(const KernelFn& fn, int grid_threads, int block_dim,
                            VTime earliest, VTime epoch = 0.0) {
    LaunchOptions opts;
    opts.earliest = earliest;
    opts.epoch = epoch;
    return LaunchKernel(fn, grid_threads, block_dim, opts);
  }

  int id() const { return info_.id; }
  MemNodeId mem_node() const { return info_.mem; }
  int sim_threads() const { return info_.sim_threads; }

  /// Reasonable default logical grid: enough logical threads that grid-stride
  /// loops, neighborhoods and atomics are genuinely exercised.
  int default_grid() const { return info_.sim_threads * 64; }
  static constexpr int kDefaultBlockDim = 32;

  /// Absolute virtual time at which this GPU's shared kernel stream frees up.
  /// Sessions anchored at (or past) this horizon see an idle stream.
  VTime stream_free_at() const { return stream_.free_at(); }

 private:
  void WorkerLoop(int worker);
  /// Runs logical threads first, first + step, ... of the grid into `stats`.
  static void RunThreads(const KernelFn& fn, int first, int step, int grid,
                         int block_dim, CostStats* stats);

  Topology::GpuInfo info_;
  const CostModel* cost_model_;

  // Kernel stream: serializes kernels in virtual time.
  BandwidthServer stream_{1.0};

  // Launch serialization + worker pool rendezvous.
  std::mutex launch_mu_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const KernelFn* current_fn_ = nullptr;
  int grid_threads_ = 0;
  int block_dim_ = 1;
  uint64_t generation_ = 0;
  int workers_remaining_ = 0;
  bool shutdown_ = false;
  std::vector<CostStats> worker_stats_;
  std::vector<std::thread> workers_;
};

}  // namespace hetex::sim

#endif  // HETEX_SIM_GPU_DEVICE_H_
