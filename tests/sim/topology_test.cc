#include "sim/topology.h"

#include <gtest/gtest.h>

namespace hetex::sim {
namespace {

TEST(Topology, PaperServerShape) {
  Topology topo = Topology::PaperServer();
  EXPECT_EQ(topo.num_sockets(), 2);
  EXPECT_EQ(topo.num_cores(), 24);
  EXPECT_EQ(topo.num_gpus(), 2);
  EXPECT_EQ(topo.num_mem_nodes(), 4);  // 2 host + 2 device
}

TEST(Topology, GpusAlternateSockets) {
  Topology::Options options;
  options.num_gpus = 4;
  Topology topo(options);
  EXPECT_EQ(topo.gpu(0).socket, 0);
  EXPECT_EQ(topo.gpu(1).socket, 1);
  EXPECT_EQ(topo.gpu(2).socket, 0);
  EXPECT_EQ(topo.gpu(3).socket, 1);
}

TEST(Topology, LocalMemNodes) {
  Topology topo = Topology::PaperServer();
  EXPECT_EQ(topo.LocalMemNode(DeviceId::Cpu(0)), topo.socket(0).mem);
  EXPECT_EQ(topo.LocalMemNode(DeviceId::Cpu(1)), topo.socket(1).mem);
  EXPECT_EQ(topo.LocalMemNode(DeviceId::Gpu(0)), topo.gpu(0).mem);
  EXPECT_NE(topo.LocalMemNode(DeviceId::Gpu(0)), topo.LocalMemNode(DeviceId::Gpu(1)));
}

TEST(Topology, AccessMatrix) {
  Topology topo = Topology::PaperServer();
  const auto cpu0 = DeviceId::Cpu(0);
  const auto gpu0 = DeviceId::Gpu(0);
  const auto gpu1 = DeviceId::Gpu(1);

  // Host reaches any socket DRAM, never device memory.
  EXPECT_EQ(topo.CanAccess(cpu0, topo.socket(0).mem), MemAccess::kLocal);
  EXPECT_EQ(topo.CanAccess(cpu0, topo.socket(1).mem), MemAccess::kLocal);
  EXPECT_EQ(topo.CanAccess(cpu0, topo.gpu(0).mem), MemAccess::kNone);

  // GPU: own memory local, host over PCIe (UVA), no peer access.
  EXPECT_EQ(topo.CanAccess(gpu0, topo.gpu(0).mem), MemAccess::kLocal);
  EXPECT_EQ(topo.CanAccess(gpu0, topo.socket(0).mem), MemAccess::kRemotePcie);
  EXPECT_EQ(topo.CanAccess(gpu0, topo.gpu(1).mem), MemAccess::kNone);
  EXPECT_EQ(topo.CanAccess(gpu1, topo.gpu(0).mem), MemAccess::kNone);
}

TEST(Topology, CoresInterleaveAcrossSockets) {
  Topology topo = Topology::PaperServer();
  EXPECT_EQ(topo.SocketOfCore(0), 0);
  EXPECT_EQ(topo.SocketOfCore(1), 1);
  EXPECT_EQ(topo.SocketOfCore(2), 0);
  EXPECT_EQ(topo.SocketOfCore(23), 1);
}

TEST(Topology, AggregateGpuCapacity) {
  Topology::Options options;
  options.gpu_capacity = 1ull << 30;
  Topology topo(options);
  EXPECT_EQ(topo.AggregateGpuCapacity(), 2ull << 30);
}

TEST(Topology, DedicatedPcieLinkPerGpu) {
  Topology topo = Topology::PaperServer();
  EXPECT_NE(topo.PcieLinkOf(0), topo.PcieLinkOf(1));
}

TEST(Topology, LinkHorizonTracksBusiestLink) {
  Topology topo = Topology::PaperServer();
  EXPECT_DOUBLE_EQ(topo.LinkHorizon(), 0.0);
  topo.pcie_link(0).Reserve(1 << 20, 0.0);
  const auto w1 = topo.pcie_link(1).Reserve(4 << 20, 0.0);
  EXPECT_DOUBLE_EQ(topo.LinkHorizon(), w1.end);
  // A session anchored at the horizon sees every link idle.
  const auto w = topo.pcie_link(0).Reserve(1 << 20, 0.0, topo.LinkHorizon());
  EXPECT_DOUBLE_EQ(w.start, 0.0);
}

TEST(Topology, ScaleOutFabricShape) {
  Topology topo(Topology::ScaleOutOptions(4));
  EXPECT_EQ(topo.num_gpus(), 4);
  // Fully-connected NVLink mesh: C(4,2) undirected peer links, every pair
  // directly reachable, plus the inter-socket link.
  EXPECT_EQ(topo.num_peer_links(), 6);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a == b) {
        EXPECT_EQ(topo.PeerLinkOf(a, b), -1);
      } else {
        EXPECT_GE(topo.PeerLinkOf(a, b), 0);
        EXPECT_EQ(topo.PeerLinkOf(a, b), topo.PeerLinkOf(b, a));
      }
    }
  }
  ASSERT_TRUE(topo.has_inter_socket_link());
  EXPECT_DOUBLE_EQ(topo.inter_socket_link().rate(),
                   topo.cost_model().inter_socket_bw);
  EXPECT_DOUBLE_EQ(topo.peer_link(0).rate(), topo.cost_model().nvlink_bw);
}

TEST(Topology, ScaleOutWithZeroGpusIsACpuOnlyFabric) {
  Topology topo(Topology::ScaleOutOptions(0));
  EXPECT_EQ(topo.num_gpus(), 0);
  EXPECT_EQ(topo.num_peer_links(), 0);
  EXPECT_EQ(topo.num_pcie_links(), 0);
  EXPECT_TRUE(topo.has_inter_socket_link());  // NUMA survives without GPUs
  EXPECT_EQ(topo.num_mem_nodes(), 2);
}

TEST(Topology, DefaultOptionsHaveNoFabricLinks) {
  // The paper server: no peer mesh, no modeled inter-socket link — the exact
  // pre-fabric shape, so default-constructed systems stay bit-identical.
  Topology topo = Topology::PaperServer();
  EXPECT_EQ(topo.num_peer_links(), 0);
  EXPECT_FALSE(topo.has_inter_socket_link());
}

TEST(Topology, DescribePrintsFabricAndLiveBacklog) {
  Topology topo(Topology::ScaleOutOptions(2));
  const std::string fabric = topo.Describe();
  EXPECT_NE(fabric.find("peer link 0: gpu0 <-> gpu1"), std::string::npos);
  EXPECT_NE(fabric.find("inter-socket link"), std::string::npos);
  EXPECT_EQ(fabric.find("backlog"), std::string::npos);  // static view

  topo.peer_link(0).Reserve(64 << 20, 0.0);
  const std::string live = topo.Describe(/*epoch=*/0.0);
  EXPECT_NE(live.find("backlog"), std::string::npos);
  // The drained view at the horizon reports zero backlog everywhere.
  const std::string drained = topo.Describe(topo.LinkHorizon());
  EXPECT_NE(drained.find("backlog 0 ms"), std::string::npos);

  // A socket's backlog counts the workers whose DRAM intervals overlap the
  // epoch, closed intervals included: three workers over [0, 1) are there
  // at 0.5 although none is registered any more.
  DramServer& dram = topo.socket_dram(0);
  dram.Release(dram.Register(/*session=*/1, /*start=*/0.0, 3), /*end=*/1.0);
  const std::string mid = topo.Describe(/*epoch=*/0.5);
  const size_t socket0 = mid.find("socket0:");
  ASSERT_NE(socket0, std::string::npos);
  const std::string line = mid.substr(socket0, mid.find('\n', socket0) - socket0);
  EXPECT_NE(line.find("backlog 3 worker(s)"), std::string::npos) << line;
}

TEST(Topology, LinkHorizonCoversPeerAndInterSocketLinks) {
  Topology topo(Topology::ScaleOutOptions(2));
  EXPECT_DOUBLE_EQ(topo.LinkHorizon(), 0.0);
  const auto peer = topo.peer_link(0).Reserve(64 << 20, 0.0);
  EXPECT_DOUBLE_EQ(topo.LinkHorizon(), peer.end);
  const auto upi = topo.inter_socket_link().Reserve(1ull << 30, 0.0);
  EXPECT_DOUBLE_EQ(topo.LinkHorizon(), MaxT(peer.end, upi.end));
}

TEST(CostModel, AccessClassesFollowThresholds) {
  CostModel cm = CostModel::Paper();
  EXPECT_EQ(cm.RandomAccessClass(512 << 10), 0);   // L2-resident
  EXPECT_EQ(cm.RandomAccessClass(10 << 20), 1);    // LLC
  EXPECT_EQ(cm.RandomAccessClass(100 << 20), 2);   // DRAM
}

TEST(CostModel, WorkCostIsMaxOfBandwidthAndCompute) {
  CostModel cm = CostModel::Paper();
  CostStats bw_bound;
  bw_bound.bytes_read = 1 << 30;
  const double t_bw = cm.WorkCost(bw_bound, cm.cpu, 6e9);
  EXPECT_NEAR(t_bw, (1 << 30) / 6e9, 1e-9);

  CostStats compute_bound;
  compute_bound.far_accesses = 1'000'000;
  const double t_cpu = cm.WorkCost(compute_bound, cm.cpu, 6e9);
  // 1M far accesses: latency-bound (12 ns each) vs 64 MB of line traffic.
  EXPECT_NEAR(t_cpu, 1e6 * cm.cpu.far_access_cost, 1e-9);
}

TEST(CostModel, FarAccessesConsumeLineBandwidth) {
  CostModel cm = CostModel::Paper();
  CostStats s;
  s.far_accesses = 10'000'000;
  // At a crowded socket's 3 GB/s share, 640 MB of 64B line traffic (213 ms)
  // exceeds the 120 ms serial latency component: bandwidth binds.
  const double t = cm.WorkCost(s, cm.cpu, 3e9);
  EXPECT_NEAR(t, 10e6 * 64 / 3e9, 1e-6);
}

TEST(CostModel, ScaleFixedLatenciesLeavesBandwidthAlone) {
  CostModel cm = CostModel::Paper();
  const double bw = cm.pcie_bw;
  const double tuple = cm.cpu.tuple_cost;
  cm.ScaleFixedLatencies(0.01);
  EXPECT_DOUBLE_EQ(cm.pcie_bw, bw);
  EXPECT_DOUBLE_EQ(cm.cpu.tuple_cost, tuple);
  EXPECT_DOUBLE_EQ(cm.router_init_latency, 1e-2 * 0.01);
  EXPECT_DOUBLE_EQ(cm.kernel_launch_latency, 8e-6 * 0.01);
}

}  // namespace
}  // namespace hetex::sim
