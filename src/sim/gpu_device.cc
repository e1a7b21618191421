#include "sim/gpu_device.h"

#include "common/logging.h"

namespace hetex::sim {

GpuDevice::GpuDevice(const Topology::GpuInfo& info, const CostModel* cost_model)
    : info_(info), cost_model_(cost_model), worker_stats_(info.sim_threads) {
  HETEX_CHECK(info.sim_threads > 0);
  workers_.reserve(info.sim_threads);
  for (int w = 0; w < info.sim_threads; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

GpuDevice::~GpuDevice() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    ++generation_;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void GpuDevice::WorkerLoop(int worker) {
  uint64_t seen_generation = 0;
  while (true) {
    const KernelFn* fn = nullptr;
    int grid = 0;
    int block_dim = 1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] { return generation_ != seen_generation; });
      seen_generation = generation_;
      if (shutdown_) return;
      fn = current_fn_;
      grid = grid_threads_;
      block_dim = block_dim_;
    }
    // Worker `worker` simulates logical threads worker, worker+P, worker+2P, ...
    RunThreads(*fn, worker, static_cast<int>(workers_.size()), grid, block_dim,
               &worker_stats_[worker]);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--workers_remaining_ == 0) cv_done_.notify_all();
    }
  }
}

void GpuDevice::RunThreads(const KernelFn& fn, int first, int step, int grid,
                           int block_dim, CostStats* stats) {
  for (int tid = first; tid < grid; tid += step) {
    KernelCtx ctx;
    ctx.thread_id = tid;
    ctx.num_threads = grid;
    ctx.block_id = tid / block_dim;
    ctx.block_dim = block_dim;
    ctx.lane = tid % block_dim;
    ctx.stats = stats;
    fn(ctx);
  }
}

GpuDevice::LaunchResult GpuDevice::LaunchKernel(const KernelFn& fn, int grid_threads,
                                                int block_dim,
                                                const LaunchOptions& opts) {
  HETEX_CHECK(grid_threads > 0 && block_dim > 0);
  // Kernels on one GPU serialize, functionally and in virtual time.
  std::lock_guard<std::mutex> launch_lock(launch_mu_);

  if (opts.on_caller) {
    for (auto& s : worker_stats_) s = CostStats{};
    RunThreads(fn, 0, 1, grid_threads, block_dim, &worker_stats_[0]);
  } else {
    std::unique_lock<std::mutex> lock(mu_);
    for (auto& s : worker_stats_) s = CostStats{};
    current_fn_ = &fn;
    grid_threads_ = grid_threads;
    block_dim_ = block_dim;
    workers_remaining_ = static_cast<int>(workers_.size());
    ++generation_;
    cv_start_.notify_all();
    cv_done_.wait(lock, [&] { return workers_remaining_ == 0; });
    current_fn_ = nullptr;
  }

  LaunchResult result;
  for (const auto& s : worker_stats_) result.stats.Add(s);

  const DeviceCaps& caps = cost_model_->gpu;
  VTime work;
  VTime anchored_start = -1.0;  // >= 0: commit the stream slot at this start
  if (opts.uva_link != nullptr) {
    // UVA/zero-copy: the streamed bytes occupy the shared PCIe link, queueing
    // behind (and ahead of) every in-flight session's DMA. The kernel cannot
    // finish before its last byte crossed; compute overlaps with the stream,
    // so its duration is max(compute, link window) — on an idle link exactly
    // the old stream-bandwidth-discount cost (bytes / link rate vs compute).
    const double bytes = cost_model_->BandwidthBytes(result.stats, caps);
    const VTime compute = cost_model_->ComputeTime(result.stats, caps);
    VTime stream_done = 0;
    if (bytes > 0) {
      // Anchor the bytes where the kernel's stream slot will actually start.
      // Zero-copy reads are issued by the running kernel: placing them at
      // `earliest` while another session holds the stream would occupy the
      // link during an interval the kernel is not running AND double-charge
      // that wait (once as link queueing inside `work`, again as stream
      // queueing below); anchoring at the stream *horizon* would miss the
      // first-fit gaps the slot can land in. Probe with the uncontended-link
      // duration — link queueing can only grow the slot, and first fit for a
      // longer slot never starts earlier, so the probe is a lower bound on
      // the kernel's start.
      const VTime uncontended = cost_model_->kernel_launch_latency +
                                MaxT(compute, bytes / opts.uva_link->rate());
      const VTime kernel_start =
          stream_.ProbeStart(uncontended, opts.earliest, opts.epoch);
      const auto lw = opts.uva_link->ReserveBytes(
          static_cast<uint64_t>(bytes + 0.5), kernel_start, opts.epoch);
      stream_done = lw.end - kernel_start;
      anchored_start = kernel_start;
    }
    work = MaxT(compute, stream_done);
  } else {
    work = cost_model_->WorkCost(result.stats, caps, cost_model_->gpu_mem_bw);
  }
  // The UVA path commits the stream slot at the start it probed: the link
  // bytes above are anchored there, so re-running first fit (which another
  // session may have raced, or the final duration may have outgrown the
  // probed gap) could land the kernel somewhere its bytes are not. Anchoring
  // stacks occupancy on overlap — conservative — instead of tearing the
  // kernel away from its link reservation.
  const VTime duration = cost_model_->kernel_launch_latency + work;
  const auto window =
      anchored_start >= 0.0
          ? stream_.ReserveDurationAt(anchored_start, duration, opts.epoch)
          : stream_.ReserveDuration(duration, opts.earliest, opts.epoch);
  result.start = window.start;
  result.end = window.end;
  return result;
}

}  // namespace hetex::sim
