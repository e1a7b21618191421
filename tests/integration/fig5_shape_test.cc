// Fig. 5 shape gate: with the fact table host-resident and streaming over
// PCIe, the hybrid plan must be no slower than the best single-device plan on
// every SSB query. HetExchange's routers hand each block to whichever
// consumer is ready, so adding the GPUs can only help — provided the CPU
// sockets are not held back until the GPUs' hash-table replicas have crossed
// PCIe. With one query-wide build barrier instead of per-unit readiness,
// Q2.1, Q2.3, Q3.2 and Q4.3 (among others) lose to CPU-only on this fixture.

#include <algorithm>

#include <gtest/gtest.h>

#include "core/executor.h"
#include "core/system.h"
#include "ssb/ssb.h"

namespace hetex {
namespace {

using plan::ExecPolicy;

/// The hetbench `ssb_pcie` shape (default paper server, 10 MiB of modeled GPU
/// memory, host-resident tables, fixed latencies scaled by scale / SF200) as
/// a quarter-size miniature: 300k lineorder rows, dimensions scaled alike.
class Fig5ShapeTest : public ::testing::Test {
 protected:
  static constexpr double kScale = 0.05;
  static constexpr double kLatencyScale = kScale / 200;
  static constexpr uint64_t kBlockRows = 512;

  static void SetUpTestSuite() {
    core::System::Options o;
    o.reuse = core::ReuseOptions{};
    o.faults = sim::FaultOptions{};
    o.topology.gpu_capacity = 10ull << 20;
    o.topology.cost_model.ScaleFixedLatencies(kLatencyScale);
    o.blocks.block_bytes = 16 << 10;
    o.blocks.host_arena_blocks = 768;
    o.blocks.gpu_arena_blocks = 384;
    system_ = new core::System(o);
    ssb::Ssb::Options d;
    d.scale = kScale;
    d.seed = 1;
    d.customer_rows = 30'000;
    d.supplier_rows = 7'500;
    d.part_rows = 20'000;
    ssb_ = new ssb::Ssb(d, &system_->catalog());
    for (const char* t : {"lineorder", "date", "customer", "supplier", "part"}) {
      HETEX_CHECK_OK(system_->catalog().at(t).Place(system_->HostNodes(),
                                                   &system_->memory()));
    }
  }

  static void TearDownTestSuite() {
    delete ssb_;
    delete system_;
  }

  static double Modeled(const plan::QuerySpec& spec, ExecPolicy policy) {
    policy.block_rows = kBlockRows;
    core::QueryExecutor executor(system_);
    const core::QueryResult r = executor.Execute(spec, policy);
    EXPECT_TRUE(r.status.ok()) << spec.name << ": " << r.status.ToString();
    return r.modeled_seconds;
  }

  static core::System* system_;
  static ssb::Ssb* ssb_;
};

core::System* Fig5ShapeTest::system_ = nullptr;
ssb::Ssb* Fig5ShapeTest::ssb_ = nullptr;

TEST_F(Fig5ShapeTest, HybridNoSlowerThanBestSingleDevicePlan) {
  for (const plan::QuerySpec& spec : ssb_->AllQueries()) {
    const double cpu = Modeled(spec, ExecPolicy::CpuOnly());
    const double gpu = Modeled(spec, ExecPolicy::GpuOnly());
    const double hybrid = Modeled(spec, ExecPolicy::Hybrid());
    EXPECT_LE(hybrid, std::min(cpu, gpu))
        << spec.name << ": hybrid " << hybrid << " s vs CPU-only " << cpu
        << " s, GPU-only " << gpu << " s";
  }
}

}  // namespace
}  // namespace hetex
