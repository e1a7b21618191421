#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "sim/dma_engine.h"
#include "sim/gpu_device.h"
#include "sim/topology.h"

namespace hetex::sim {
namespace {

class DmaTest : public ::testing::Test {
 protected:
  DmaTest() : topo_(Topology::Options{}), dma_(&topo_) {}
  Topology topo_;
  DmaEngine dma_;
};

TEST_F(DmaTest, FunctionalCopy) {
  std::vector<uint8_t> src(4096);
  std::iota(src.begin(), src.end(), 0);
  std::vector<uint8_t> dst(4096, 0);
  dma_.Transfer(src.data(), dst.data(), src.size(), 0, 0.0);
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), src.size()), 0);
}

TEST_F(DmaTest, ModeledTimeMatchesLinkRate) {
  std::vector<uint8_t> buf(1 << 20);
  std::vector<uint8_t> dst(1 << 20);
  const double expected = topo_.cost_model().dma_latency +
                          (1 << 20) / topo_.cost_model().pcie_bw;
  const VTime t = dma_.Transfer(buf.data(), dst.data(), buf.size(), 0, 0.0);
  EXPECT_NEAR(t, expected, 1e-12);
}

TEST_F(DmaTest, ConcurrentSessionsContendOnOneLink) {
  std::vector<uint8_t> buf(1 << 20), dst(1 << 20);
  // Session A (epoch 0) and session B (same epoch) share link 0: whichever
  // reserves second queues behind the first, and both see session-local times.
  const VTime a = dma_.Transfer(buf.data(), dst.data(), buf.size(), 0, 0.0, 0.0);
  const VTime b = dma_.Transfer(buf.data(), dst.data(), buf.size(), 0, 0.0, 0.0);
  const double one = topo_.cost_model().dma_latency +
                     (1 << 20) / topo_.cost_model().pcie_bw;
  EXPECT_NEAR(a, one, 1e-12);
  EXPECT_NEAR(b, 2 * one, 1e-12);
}

TEST_F(DmaTest, TransfersOnOneLinkQueue) {
  std::vector<uint8_t> buf(1 << 20), dst(1 << 20);
  const VTime t1 = dma_.Transfer(buf.data(), dst.data(), buf.size(), 0, 0.0);
  const VTime t2 = dma_.Transfer(buf.data(), dst.data(), buf.size(), 0, 0.0);
  EXPECT_GT(t2, t1);
}

TEST_F(DmaTest, SeparateLinksRunInParallel) {
  // In virtual time, not wall clock: both copies run on this thread, but
  // each link is its own queue, so the second transfer does not wait for the
  // first.
  std::vector<uint8_t> buf1(1 << 20), dst1(1 << 20);
  std::vector<uint8_t> buf2(1 << 20), dst2(1 << 20);
  const VTime t1 = dma_.Transfer(buf1.data(), dst1.data(), buf1.size(), 0, 0.0);
  const VTime t2 = dma_.Transfer(buf2.data(), dst2.data(), buf2.size(), 1, 0.0);
  EXPECT_DOUBLE_EQ(t1, t2);  // independent virtual queues
}

class GpuDeviceTest : public ::testing::Test {
 protected:
  GpuDeviceTest() : topo_(MakeOptions()), gpu_(topo_.gpu(0), &topo_.cost_model()) {}
  static Topology::Options MakeOptions() {
    Topology::Options o;
    o.gpu_sim_threads = 3;  // deliberately odd
    return o;
  }
  Topology topo_;
  GpuDevice gpu_;
};

TEST_F(GpuDeviceTest, EveryLogicalThreadRunsExactlyOnce) {
  constexpr int kGrid = 257;  // not divisible by sim threads
  std::vector<std::atomic<int>> hits(kGrid);
  auto kernel = [&](const KernelCtx& ctx) {
    hits[ctx.thread_id].fetch_add(1);
    EXPECT_EQ(ctx.num_threads, kGrid);
  };
  gpu_.LaunchKernel(kernel, kGrid, 32, 0.0);
  for (int i = 0; i < kGrid; ++i) EXPECT_EQ(hits[i].load(), 1) << "tid " << i;
}

TEST_F(GpuDeviceTest, BlockAndLaneIdsConsistent) {
  auto kernel = [&](const KernelCtx& ctx) {
    EXPECT_EQ(ctx.block_id, ctx.thread_id / ctx.block_dim);
    EXPECT_EQ(ctx.lane, ctx.thread_id % ctx.block_dim);
    EXPECT_EQ(ctx.block_dim, 32);
  };
  gpu_.LaunchKernel(kernel, 128, 32, 0.0);
}

TEST_F(GpuDeviceTest, StatsAggregateAcrossWorkers) {
  auto kernel = [&](const KernelCtx& ctx) { ctx.stats->tuples += 2; };
  auto r = gpu_.LaunchKernel(kernel, 100, 32, 0.0);
  EXPECT_EQ(r.stats.tuples, 200u);
}

TEST_F(GpuDeviceTest, OnCallerLaunchRunsTheSameThreadsAndTime) {
  constexpr int kGrid = 257;
  std::vector<std::atomic<int>> hits(kGrid);
  auto kernel = [&](const KernelCtx& ctx) {
    hits[ctx.thread_id].fetch_add(1);
    EXPECT_EQ(ctx.lane, ctx.thread_id % ctx.block_dim);
    ctx.stats->tuples += 2;
  };
  GpuDevice::LaunchOptions pooled;
  pooled.earliest = 1e-3;
  GpuDevice::LaunchOptions on_caller = pooled;
  on_caller.on_caller = true;
  GpuDevice idle(topo_.gpu(0), &topo_.cost_model());  // a stream of its own
  const auto a = gpu_.LaunchKernel(kernel, kGrid, 32, pooled);
  const auto b = idle.LaunchKernel(kernel, kGrid, 32, on_caller);
  for (int i = 0; i < kGrid; ++i) EXPECT_EQ(hits[i].load(), 2) << "tid " << i;
  EXPECT_EQ(a.stats.tuples, 2u * kGrid);
  EXPECT_EQ(b.stats.tuples, a.stats.tuples);
  EXPECT_EQ(b.start, a.start);
  EXPECT_EQ(b.end, a.end);
}

TEST_F(GpuDeviceTest, LaunchLatencyCharged) {
  auto noop = [](const KernelCtx&) {};
  auto r = gpu_.LaunchKernel(noop, 64, 32, 0.0);
  EXPECT_NEAR(r.end - r.start, topo_.cost_model().kernel_launch_latency, 1e-12);
}

TEST_F(GpuDeviceTest, KernelsSerializeOnStream) {
  auto noop = [](const KernelCtx&) {};
  auto r1 = gpu_.LaunchKernel(noop, 64, 32, 0.0);
  auto r2 = gpu_.LaunchKernel(noop, 64, 32, 0.0);
  EXPECT_DOUBLE_EQ(r2.start, r1.end);
}

TEST_F(GpuDeviceTest, StreamingCostUsesDeviceBandwidth) {
  auto kernel = [&](const KernelCtx& ctx) {
    if (ctx.thread_id == 0) ctx.stats->bytes_read += 320'000'000;
  };
  auto r = gpu_.LaunchKernel(kernel, 64, 32, 0.0);
  // 320 MB at 320 GB/s = 1 ms (+ launch latency).
  EXPECT_NEAR(r.end - r.start, 1e-3 + topo_.cost_model().kernel_launch_latency,
              1e-5);
}

// ---------------------------------------------------------------------------
// UVA link occupancy: a zero-copy kernel's streamed bytes reserve real
// occupancy on the PCIe link BandwidthServer, exactly like DMA.
// ---------------------------------------------------------------------------

TEST_F(GpuDeviceTest, UvaKernelMatchesStreamDiscountOnIdleLink) {
  auto kernel = [&](const KernelCtx& ctx) {
    if (ctx.thread_id == 0) ctx.stats->bytes_read += 12'000'000;
  };
  // The bytes reserve the link itself. On an idle link the modeled kernel
  // duration is the stream-bandwidth discount's: launch latency plus the
  // bytes at the PCIe rate — the recalibration-free equivalence that keeps
  // solo bare-GPU baselines unchanged.
  GpuDevice::LaunchOptions opts;
  opts.uva_link = &topo_.pcie_link(topo_.PcieLinkOf(0));
  auto charged = gpu_.LaunchKernel(kernel, 64, 32, opts);
  const CostModel& cm = topo_.cost_model();
  EXPECT_NEAR(charged.end - charged.start,
              cm.kernel_launch_latency + 12'000'000 / cm.pcie_bw, 1e-9);
}

TEST_F(GpuDeviceTest, UvaKernelBytesOccupyTheLink) {
  BandwidthServer& link = topo_.pcie_link(topo_.PcieLinkOf(0));
  const VTime before = link.free_at();
  auto kernel = [&](const KernelCtx& ctx) {
    if (ctx.thread_id == 0) ctx.stats->bytes_read += 12'000'000;
  };
  GpuDevice::LaunchOptions opts;
  opts.uva_link = &link;
  gpu_.LaunchKernel(kernel, 64, 32, opts);
  // 12 MB at 12 GB/s: the link horizon moved by the kernel's streamed bytes.
  EXPECT_NEAR(link.free_at() - before, 1e-3, 1e-9);
}

TEST_F(GpuDeviceTest, UvaKernelsOnBusyStreamDoNotDoubleChargeLinkWait) {
  // Two same-epoch transfer-bound UVA kernels on one GPU: B waits for the
  // stream (kernels serialize) and then streams its own bytes. The stream
  // wait must not ALSO appear as link queueing inside B's modeled work —
  // B's bytes anchor where its kernel can actually start, so B ends one
  // transfer after A, not two.
  auto kernel = [&](const KernelCtx& ctx) {
    if (ctx.thread_id == 0) ctx.stats->bytes_read += 12'000'000;
  };
  GpuDevice::LaunchOptions opts;
  opts.uva_link = &topo_.pcie_link(topo_.PcieLinkOf(0));
  auto a = gpu_.LaunchKernel(kernel, 64, 32, opts);
  auto b = gpu_.LaunchKernel(kernel, 64, 32, opts);
  const double transfer = 12'000'000 / topo_.cost_model().pcie_bw;  // 1 ms
  const double launch = topo_.cost_model().kernel_launch_latency;
  EXPECT_NEAR(b.end - b.start, transfer + launch, 1e-6);
  EXPECT_NEAR(b.end, a.end + transfer + launch, 1e-6);
}

TEST_F(GpuDeviceTest, UvaBytesAnchorAtKernelGapNotStreamHorizon) {
  // A far-future session occupies the stream well past this session's epoch.
  // The UVA kernel first-fits into the open gap at the start of the timeline,
  // and its link bytes must anchor in that gap too — not at the stream
  // horizon, which would leave phantom far-future link occupancy while the
  // kernel is reported done at t~=0.
  auto kernel = [&](const KernelCtx& ctx) {
    if (ctx.thread_id == 0) ctx.stats->bytes_read += 12'000'000;
  };
  GpuDevice::LaunchOptions future;
  future.epoch = 1000.0;
  future.uva_link = &topo_.pcie_link(topo_.PcieLinkOf(0));
  gpu_.LaunchKernel(kernel, 64, 32, future);

  GpuDevice::LaunchOptions now;
  now.uva_link = future.uva_link;
  auto r = gpu_.LaunchKernel(kernel, 64, 32, now);
  const double transfer = 12'000'000 / topo_.cost_model().pcie_bw;  // 1 ms
  EXPECT_DOUBLE_EQ(r.start, 0.0);  // slot in the gap before the future session
  EXPECT_NEAR(r.end, transfer + topo_.cost_model().kernel_launch_latency, 1e-6);
  // The bytes landed in the same gap: a third session's DMA right after the
  // kernel is pushed past the kernel's transfer, not past the far horizon.
  DmaEngine dma(&topo_);
  std::vector<uint8_t> buf(1 << 20), dst(1 << 20);
  const VTime t =
      dma.Transfer(buf.data(), dst.data(), buf.size(), 0, 0.0, 0.0);
  EXPECT_GT(t, transfer);
  EXPECT_LT(t, transfer + 1e-3);
}

TEST_F(GpuDeviceTest, UvaKernelStaysAnchoredWhenLinkQueueingOutgrowsTheGap) {
  // The probe->reserve TOCTOU this PR closes: the stream probe sees a gap
  // large enough for the UNCONTENDED duration, the link bytes anchor there,
  // and then link queueing inflates the slot past the gap. Re-running first
  // fit on commit (the old code) would tear the kernel away from the interval
  // its bytes occupy; the anchored commit must keep the probed start and
  // stack stream occupancy instead.
  DmaEngine dma(&topo_);
  std::vector<uint8_t> buf(12 << 20), dst(12 << 20);
  const VTime t =  // ~1 ms of link-0 backlog the UVA bytes queue behind
      dma.Transfer(buf.data(), dst.data(), buf.size(), 0, 0.0, 0.0);

  auto noop = [](const KernelCtx&) {};
  gpu_.LaunchKernel(noop, 64, 32, /*earliest=*/2e-4);  // gap is [0, 2e-4)

  auto kernel = [&](const KernelCtx& ctx) {
    if (ctx.thread_id == 0) ctx.stats->bytes_read += 1'000'000;
  };
  GpuDevice::LaunchOptions opts;
  opts.uva_link = &topo_.pcie_link(topo_.PcieLinkOf(0));
  auto r = gpu_.LaunchKernel(kernel, 64, 32, opts);
  const auto& cm = topo_.cost_model();
  // Uncontended the slot is launch + 1MB/12GB/s ~= 91 us — it probes into the
  // gap at 0. Queued behind 12 MB of DMA the real slot is ~1.1 ms, far larger
  // than the gap; the kernel must stay at the probed start regardless.
  EXPECT_DOUBLE_EQ(r.start, 0.0);
  EXPECT_NEAR(r.end,
              t + 1'000'000 / cm.pcie_bw + cm.kernel_launch_latency,
              1e-6);
}

TEST_F(GpuDeviceTest, DmaQueuesBehindUvaKernel) {
  // A UVA query streams 12 MB over link 0; a concurrent session's DMA on the
  // same link (same epoch) must queue behind it.
  DmaEngine dma(&topo_);
  auto kernel = [&](const KernelCtx& ctx) {
    if (ctx.thread_id == 0) ctx.stats->bytes_read += 12'000'000;
  };
  GpuDevice::LaunchOptions opts;
  opts.uva_link = &topo_.pcie_link(topo_.PcieLinkOf(0));
  gpu_.LaunchKernel(kernel, 64, 32, opts);

  std::vector<uint8_t> buf(1 << 20), dst(1 << 20);
  const VTime t =
      dma.Transfer(buf.data(), dst.data(), buf.size(), 0, 0.0, 0.0);
  const auto& cm = topo_.cost_model();
  const double solo = cm.dma_latency + (1 << 20) / cm.pcie_bw;
  // Queued behind the kernel's ~1 ms of link occupancy.
  EXPECT_GT(t, solo + 0.9e-3);
}

TEST_F(GpuDeviceTest, UvaKernelQueuesBehindDma) {
  // The reverse direction: a DMA-heavy session fills the link; the UVA
  // kernel's transfer (and therefore the kernel) is pushed out.
  DmaEngine dma(&topo_);
  std::vector<uint8_t> buf(12 << 20), dst(12 << 20);
  const VTime t =
      dma.Transfer(buf.data(), dst.data(), buf.size(), 0, 0.0, 0.0);

  auto kernel = [&](const KernelCtx& ctx) {
    if (ctx.thread_id == 0) ctx.stats->bytes_read += 1'000'000;
  };
  GpuDevice::LaunchOptions opts;
  opts.uva_link = &topo_.pcie_link(topo_.PcieLinkOf(0));
  auto r = gpu_.LaunchKernel(kernel, 64, 32, opts);
  const auto& cm = topo_.cost_model();
  // Solo the kernel would finish in launch + 1MB/12GB/s; behind 12 MB of DMA
  // it cannot end before the DMA drained plus its own bytes.
  EXPECT_GT(r.end, t);
  EXPECT_NEAR(r.end,
              t + 1'000'000 / cm.pcie_bw + cm.kernel_launch_latency,
              1e-6);
}

TEST_F(GpuDeviceTest, EpochPastStreamBacklogStartsFresh) {
  auto noop = [](const KernelCtx&) {};
  gpu_.LaunchKernel(noop, 64, 32, 0.0);
  EXPECT_GT(gpu_.stream_free_at(), 0.0);
  // New session anchored at the stream horizon: its kernel starts at local 0.
  auto r = gpu_.LaunchKernel(noop, 64, 32, 0.0, gpu_.stream_free_at());
  EXPECT_DOUBLE_EQ(r.start, 0.0);
}

TEST_F(GpuDeviceTest, ConcurrentSessionsSerializeOnStream) {
  auto noop = [](const KernelCtx&) {};
  // Session A fills the stream; session B (same epoch 0) queues behind it and
  // sees the wait in its session-local window.
  auto a = gpu_.LaunchKernel(noop, 64, 32, 0.0, 0.0);
  auto b = gpu_.LaunchKernel(noop, 64, 32, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(b.start, a.end);
}

TEST_F(GpuDeviceTest, DeviceAtomicsAcrossGrid) {
  std::atomic<int64_t> acc{0};
  auto kernel = [&](const KernelCtx& ctx) {
    acc.fetch_add(ctx.thread_id, std::memory_order_relaxed);
  };
  constexpr int kGrid = 1000;
  gpu_.LaunchKernel(kernel, kGrid, 32, 0.0);
  EXPECT_EQ(acc.load(), kGrid * (kGrid - 1) / 2);
}

}  // namespace
}  // namespace hetex::sim
