// Fig. 4 shape gate: with the fact table resident in GPU memory, PCIe carries
// only the dimensions, and the GPUs' fact work waits for their hash tables. A
// hybrid plan filters each filtered dimension once on the host and ships only
// the survivors' key and payload, so its GPU tables are ready well before the
// GPU-only plan's, which ships raw columns and filters them on every GPU. The
// gate asserts:
//   - per query of flights 2-4, hybrid is faster than GPU-only;
//   - across the suite, the Fig. 4 bar total: hybrid is faster than GPU-only.
// Flight 1 joins only `date` (2,556 rows), where host filtering and shipping
// the raw columns are a near-tie, so it is not gated per query.
//
// Fig. 4's per-device comparison is gated too: on every query DBMS G runs, the
// GPU-only plan is faster than DBMS G with the same data resident in GPU
// memory. (Proteus CPU against DBMS C is not gated here: it wins flights 2-4
// but runs flight 1 at 0.75-0.80x DBMS C's speed, a finding the model does not
// reproduce.)

#include <gtest/gtest.h>

#include "baselines/dbms_g.h"
#include "core/executor.h"
#include "core/system.h"
#include "ssb/ssb.h"

namespace hetex {
namespace {

using plan::ExecPolicy;

/// The hetbench `ssb_gpu_resident` shape (default paper server, 8 GiB GPUs,
/// dimensions host-resident, lineorder across the GPUs, fixed latencies
/// scaled by scale / SF100) as a quarter-size miniature: 300k lineorder rows,
/// dimensions scaled alike.
class Fig4ShapeTest : public ::testing::Test {
 protected:
  static constexpr double kScale = 0.05;
  static constexpr double kLatencyScale = kScale / 100;
  static constexpr uint64_t kBlockRows = 512;

  static void SetUpTestSuite() {
    core::System::Options o;
    o.reuse = core::ReuseOptions{};
    o.faults = sim::FaultOptions{};
    o.topology.gpu_capacity = 8ull << 30;
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
    for (const char* t : {"date", "customer", "supplier", "part"}) {
      HETEX_CHECK_OK(system_->catalog().at(t).Place(system_->HostNodes(),
                                                   &system_->memory()));
    }
    HETEX_CHECK_OK(system_->catalog().at("lineorder").Place(system_->GpuNodes(),
                                                           &system_->memory()));
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

core::System* Fig4ShapeTest::system_ = nullptr;
ssb::Ssb* Fig4ShapeTest::ssb_ = nullptr;

TEST_F(Fig4ShapeTest, HybridFasterThanGpuOnly) {
  double sum_gpu = 0, sum_hybrid = 0;
  for (const plan::QuerySpec& spec : ssb_->AllQueries()) {
    const core::QueryResult gpu = Run(spec, ExecPolicy::GpuOnly());
    const core::QueryResult hybrid = Run(spec, ExecPolicy::Hybrid());
    if (spec.name.rfind("Q1.", 0) != 0) {
      EXPECT_LT(hybrid.modeled_seconds, gpu.modeled_seconds)
          << spec.name << ": hybrid " << hybrid.modeled_seconds
          << " s vs GPU-only " << gpu.modeled_seconds << " s";
    }
    sum_gpu += gpu.modeled_seconds;
    sum_hybrid += hybrid.modeled_seconds;
  }
  EXPECT_LT(sum_hybrid, sum_gpu) << "suite: hybrid " << sum_hybrid
                                 << " s vs GPU-only " << sum_gpu << " s";
}

TEST_F(Fig4ShapeTest, GpuOnlyFasterThanResidentDbmsG) {
  baselines::DbmsGOptions resident;
  resident.data_on_gpu = true;
  // Its startup is a fixed latency, scaled like the engine's.
  resident.startup_seconds *= kLatencyScale;
  baselines::DbmsG dbms_g(system_, resident);
  int compared = 0;
  for (const plan::QuerySpec& spec : ssb_->AllQueries()) {
    const core::QueryResult g = dbms_g.Execute(spec);
    if (spec.uses_string_range_predicate) {
      EXPECT_EQ(g.status.code(), StatusCode::kUnsupported) << spec.name;
      continue;
    }
    ASSERT_TRUE(g.status.ok()) << spec.name << ": " << g.status.ToString();
    const core::QueryResult gpu = Run(spec, ExecPolicy::GpuOnly());
    EXPECT_LT(gpu.modeled_seconds, g.modeled_seconds)
        << spec.name << ": GPU-only " << gpu.modeled_seconds << " s vs DBMS G "
        << g.modeled_seconds << " s";
    ++compared;
  }
  EXPECT_EQ(compared, 12);
}

}  // namespace
}  // namespace hetex
