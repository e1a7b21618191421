// NVLink-class peer links: FIFO queueing of concurrent sessions on one link,
// contention never speeding a transfer up, functional copies, and — end to
// end — the coster's peer-vs-host-staged route ordering agreeing with the
// measured virtual times the runtime charges.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "common/logging.h"
#include "core/executor.h"
#include "core/system.h"
#include "plan/coster.h"
#include "plan/het_plan.h"
#include "sim/dma_engine.h"
#include "sim/topology.h"
#include "ssb/ssb.h"

namespace hetex::sim {
namespace {

class PeerLinkTest : public ::testing::Test {
 protected:
  PeerLinkTest() : topo_(Topology::ScaleOutOptions(2)), dma_(&topo_) {}

  /// Link id of the peer link between the two GPUs.
  int PeerLink() const {
    return topo_.num_pcie_links() + topo_.PeerLinkOf(0, 1);
  }

  double OneTransfer(uint64_t bytes) const {
    const CostModel& cm = topo_.cost_model();
    return cm.peer_dma_latency + bytes / cm.nvlink_bw;
  }

  Topology topo_;
  DmaEngine dma_;
};

TEST_F(PeerLinkTest, FabricHasOnePeerLinkBetweenTheGpus) {
  ASSERT_EQ(topo_.num_gpus(), 2);
  ASSERT_EQ(topo_.num_peer_links(), 1);
  EXPECT_EQ(topo_.PeerLinkOf(0, 1), 0);
  EXPECT_EQ(topo_.PeerLinkOf(1, 0), 0);  // undirected
  EXPECT_EQ(topo_.PeerLinkOf(0, 0), -1);
}

TEST_F(PeerLinkTest, FunctionalCopy) {
  std::vector<uint8_t> src(4096);
  std::iota(src.begin(), src.end(), 0);
  std::vector<uint8_t> dst(4096, 0);
  dma_.Transfer(src.data(), dst.data(), src.size(), PeerLink(), 0.0);
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), src.size()), 0);
}

TEST_F(PeerLinkTest, ModeledTimeMatchesNvlinkRate) {
  std::vector<uint8_t> buf(1 << 20), dst(1 << 20);
  const VTime t =
      dma_.Transfer(buf.data(), dst.data(), buf.size(), PeerLink(), 0.0);
  EXPECT_NEAR(t, OneTransfer(1 << 20), 1e-12);
}

TEST_F(PeerLinkTest, TwoSessionsQueueFifoOnOneLink) {
  std::vector<uint8_t> buf(1 << 20), dst(1 << 20);
  // Session A (epoch 0) and session B (same epoch) share the one NVLink:
  // whichever reserves second queues behind the first, FIFO, and each sees
  // session-local completion times.
  const VTime a = dma_.Transfer(buf.data(), dst.data(), buf.size(),
                                PeerLink(), 0.0, false, 0.0);
  const VTime b = dma_.Transfer(buf.data(), dst.data(), buf.size(),
                                PeerLink(), 0.0, false, 0.0);
  const double one = OneTransfer(1 << 20);
  EXPECT_NEAR(a, one, 1e-12);
  EXPECT_NEAR(b, 2 * one, 1e-12);
}

TEST_F(PeerLinkTest, ContentionNeverSpeedsUpATransfer) {
  std::vector<uint8_t> buf(1 << 20), dst(1 << 20);
  // Solo reference on a fresh session anchored at the link horizon.
  const VTime solo_t = dma_.Transfer(buf.data(), dst.data(), buf.size(),
                                     PeerLink(), 0.0, false,
                                     topo_.LinkHorizon());
  // Four same-epoch sessions contend for the link: completion order is the
  // issue order, every transfer takes at least the solo time, and each later
  // one only ever finishes later — contention never speeds anything up.
  const VTime epoch = topo_.LinkHorizon();
  std::vector<VTime> done;
  for (int i = 0; i < 4; ++i) {
    done.push_back(dma_.Transfer(buf.data(), dst.data(), buf.size(),
                                 PeerLink(), 0.0, false, epoch));
  }
  double prev = 0;
  for (size_t i = 0; i < done.size(); ++i) {
    EXPECT_GE(done[i], solo_t - 1e-12) << "transfer " << i;
    EXPECT_GT(done[i], prev) << "transfer " << i;
    EXPECT_NEAR(done[i], (i + 1) * solo_t, 1e-9);
    prev = done[i];
  }
}

TEST_F(PeerLinkTest, PeerBacklogRaisesLinkHorizon) {
  const VTime before = topo_.LinkHorizon();
  const auto w = topo_.peer_link(0).Reserve(64 << 20, 0.0);
  EXPECT_GT(topo_.LinkHorizon(), before);
  EXPECT_DOUBLE_EQ(topo_.LinkHorizon(), w.end);
  // A session anchored at the horizon sees the peer link idle again.
  const auto fresh =
      topo_.peer_link(0).Reserve(1 << 20, 0.0, topo_.LinkHorizon());
  EXPECT_DOUBLE_EQ(fresh.start, 0.0);
}

}  // namespace
}  // namespace hetex::sim

namespace hetex {
namespace {

/// Two identical 2-GPU systems, every table resident in GPU 0's memory, the
/// query pinned to GPU 1 — the whole fact stream crosses GPU<->GPU. One
/// fabric has the NVLink mesh, the other routes the same move over two
/// staged PCIe hops through host memory.
struct PeerLegEnv {
  explicit PeerLegEnv(bool with_peer_mesh) {
    core::System::Options opts;
    opts.topology = sim::Topology::ScaleOutOptions(2);
    if (!with_peer_mesh) opts.topology.peer_links.clear();
    opts.topology.inter_socket_bw = 0;  // isolate the GPU<->GPU route
    opts.topology.cores_per_socket = 2;
    opts.topology.gpu_sim_threads = 2;
    opts.topology.host_capacity_per_socket = 4ull << 30;
    opts.topology.gpu_capacity = 1ull << 30;
    opts.blocks.block_bytes = 64 << 10;
    opts.blocks.host_arena_blocks = 256;
    opts.blocks.gpu_arena_blocks = 128;
    system = std::make_unique<core::System>(opts);

    ssb::Ssb::Options ssb_opts;
    ssb_opts.lineorder_rows = 20'000;
    ssb_opts.scale = 0.002;
    ssb = std::make_unique<ssb::Ssb>(ssb_opts, &system->catalog());
    const std::vector<sim::MemNodeId> gpu0 = {system->GpuNodes()[0]};
    for (const char* name :
         {"lineorder", "date", "customer", "supplier", "part"}) {
      HETEX_CHECK_OK(system->catalog().at(name).Place(gpu0, &system->memory()));
    }
  }

  double Measure(const plan::QuerySpec& spec, const plan::ExecPolicy& policy) {
    core::QueryExecutor executor(system.get());
    const core::QueryResult r = executor.Execute(spec, policy);
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    return r.status.ok() ? r.modeled_seconds : -1.0;
  }

  double Estimate(const plan::QuerySpec& spec, const plan::ExecPolicy& policy) {
    plan::PlanCoster::Options copts;
    copts.pack_block_rows = system->blocks().options().block_bytes / 8;
    plan::PlanCoster coster(spec, system->catalog(), system->topology(), copts);
    const plan::HetPlan plan =
        plan::BuildHetPlan(spec, policy, system->topology());
    auto cost = coster.Cost(plan);
    EXPECT_TRUE(cost.ok()) << cost.status().ToString();
    return cost.ok() ? cost.value().total : -1.0;
  }

  std::unique_ptr<core::System> system;
  std::unique_ptr<ssb::Ssb> ssb;
};

TEST(PeerRouteE2ETest, PeerHopBeatsHostStagingAndCosterOrderingAgrees) {
  PeerLegEnv peer(/*with_peer_mesh=*/true);
  PeerLegEnv staged(/*with_peer_mesh=*/false);
  plan::ExecPolicy policy = plan::ExecPolicy::GpuOnly({1});
  policy.block_rows = 4096;
  const auto spec_peer = peer.ssb->Query(3, 1);
  const auto spec_staged = staged.ssb->Query(3, 1);

  const double meas_peer = peer.Measure(spec_peer, policy);
  const double meas_staged = staged.Measure(spec_staged, policy);
  ASSERT_GT(meas_peer, 0);
  ASSERT_GT(meas_staged, 0);
  // A single NVLink hop must beat two staged PCIe hops through host memory.
  EXPECT_LT(meas_peer, meas_staged);

  // The coster prices both routes with the constants the runtime charges, so
  // the estimated ordering agrees with the measured one.
  const double est_peer = peer.Estimate(spec_peer, policy);
  const double est_staged = staged.Estimate(spec_staged, policy);
  ASSERT_GT(est_peer, 0);
  ASSERT_GT(est_staged, 0);
  EXPECT_LT(est_peer, est_staged);
}

TEST(PeerRouteE2ETest, StaticRouteEstimatePrefersPeerHop) {
  const sim::Topology meshed(sim::Topology::ScaleOutOptions(4));
  sim::Topology::Options no_mesh = sim::Topology::ScaleOutOptions(4);
  no_mesh.peer_links.clear();
  const sim::Topology staged(no_mesh);
  const uint64_t bytes = 1 << 20;
  auto gpu0_to_gpu3 = [&](const sim::Topology& topo) {
    return topo.RouteSeconds(topo.Route(topo.gpu(0).mem, topo.gpu(3).mem),
                             bytes, /*columns=*/4, /*pageable_src=*/false);
  };
  const sim::VTime peer_t = gpu0_to_gpu3(meshed);
  const sim::VTime staged_t = gpu0_to_gpu3(staged);
  EXPECT_LT(peer_t, staged_t);
  const auto& cm = meshed.cost_model();
  EXPECT_NEAR(peer_t, 4 * cm.peer_dma_latency + bytes / cm.nvlink_bw, 1e-12);
  EXPECT_NEAR(staged_t, 2 * (4 * cm.dma_latency) + 2 * (bytes / cm.pcie_bw),
              1e-12);
}

}  // namespace
}  // namespace hetex
