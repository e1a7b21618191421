// Fig. 5 shape gate: with the fact table host-resident and streaming over
// PCIe, the hybrid plan must be no slower than the best single-device plan.
// HetExchange's routers hand each block to whichever consumer is ready, so
// adding the GPUs can only help — provided the GPUs' hash tables are not
// late. A hybrid plan filters each filtered dimension once on the host and
// ships only its survivors to the GPU replicas, so the GPUs join the probe
// early enough to take load off the sockets on every query. The sockets
// share the dimension filter with their builds, so a hybrid socket may start
// probing later than it does in the CPU-only plan; the gate asserts the
// outcome, not the schedule:
//   - per query, hybrid is no slower than CPU-only and no slower than
//     GPU-only;
//   - across the suite, the Fig. 5 bar total: hybrid is no slower than the
//     best of CPU-only and GPU-only.

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

  static core::QueryResult Run(const plan::QuerySpec& spec, ExecPolicy policy) {
    policy.block_rows = kBlockRows;
    core::QueryExecutor executor(system_);
    core::QueryResult r = executor.Execute(spec, policy);
    EXPECT_TRUE(r.status.ok()) << spec.name << ": " << r.status.ToString();
    return r;
  }

  static core::System* system_;
  static ssb::Ssb* ssb_;
};

core::System* Fig5ShapeTest::system_ = nullptr;
ssb::Ssb* Fig5ShapeTest::ssb_ = nullptr;

TEST_F(Fig5ShapeTest, HybridNoSlowerThanBestSingleDevicePlan) {
  double sum_cpu = 0, sum_gpu = 0, sum_hybrid = 0;
  for (const plan::QuerySpec& spec : ssb_->AllQueries()) {
    const core::QueryResult cpu = Run(spec, ExecPolicy::CpuOnly());
    const core::QueryResult gpu = Run(spec, ExecPolicy::GpuOnly());
    const core::QueryResult hybrid = Run(spec, ExecPolicy::Hybrid());
    EXPECT_LE(hybrid.modeled_seconds, gpu.modeled_seconds)
        << spec.name << ": hybrid " << hybrid.modeled_seconds
        << " s vs GPU-only " << gpu.modeled_seconds << " s";

    EXPECT_LE(hybrid.modeled_seconds, cpu.modeled_seconds)
        << spec.name << ": hybrid " << hybrid.modeled_seconds
        << " s vs CPU-only " << cpu.modeled_seconds << " s";

    sum_cpu += cpu.modeled_seconds;
    sum_gpu += gpu.modeled_seconds;
    sum_hybrid += hybrid.modeled_seconds;
  }
  EXPECT_LE(sum_hybrid, std::min(sum_cpu, sum_gpu))
      << "suite: hybrid " << sum_hybrid << " s vs CPU-only " << sum_cpu
      << " s, GPU-only " << sum_gpu << " s";
}

}  // namespace
}  // namespace hetex
