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
//
// Against the baselines, hybrid is faster than DBMS G (streaming from pageable
// host memory) on every query DBMS G runs, and faster than DBMS C on flights
// 2-4. On flight 1 its lead over DBMS C is thin (1.04-1.09x; 0.85-0.87x while
// every query paid the router bring-up), so flight 1 is not gated against
// DBMS C. The load-balancing router beats round-robin on the suite total.
//
// The same data gates Fig. 6 (scalability, paper SF1000): CPU-only throughput
// scales with interleaved cores until the sockets' DRAM saturates, every SSB
// query gets faster with each added step of cores, and adding the two GPUs
// makes every query faster at every core count.

#include <algorithm>
#include <limits>
#include <map>

#include <gtest/gtest.h>

#include "baselines/dbms_c.h"
#include "baselines/dbms_g.h"
#include "core/executor.h"
#include "core/system.h"
#include "ssb/ssb.h"
#include "test_util.h"

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

  /// Fig. 6's core counts, interleaved across the two sockets.
  static constexpr int kCores[] = {1, 2, 4, 8, 16, 24};

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

TEST_F(Fig5ShapeTest, HybridFasterThanDbmsGAndDbmsC) {
  // The baselines' startups are fixed latencies, scaled like the engine's.
  baselines::DbmsGOptions g_options;  // streams from pageable host memory
  g_options.startup_seconds *= kLatencyScale;
  baselines::DbmsCOptions c_options;
  c_options.startup_seconds *= kLatencyScale;
  baselines::DbmsG dbms_g(system_, g_options);
  baselines::DbmsC dbms_c(system_, c_options);
  int compared = 0;
  for (const plan::QuerySpec& spec : ssb_->AllQueries()) {
    const double hybrid = Run(spec, ExecPolicy::Hybrid()).modeled_seconds;
    const baselines::OpStats stats =
        baselines::EvaluateWithStats(spec, system_->catalog());
    const core::QueryResult g = dbms_g.Execute(spec, &stats);
    if (spec.uses_string_range_predicate) {
      EXPECT_EQ(g.status.code(), StatusCode::kUnsupported) << spec.name;
    } else {
      ASSERT_TRUE(g.status.ok()) << spec.name << ": " << g.status.ToString();
      EXPECT_LT(hybrid, g.modeled_seconds)
          << spec.name << ": hybrid " << hybrid << " s vs DBMS G "
          << g.modeled_seconds << " s";
      ++compared;
    }
    if (spec.name.rfind("Q1.", 0) == 0) continue;
    const core::QueryResult c = dbms_c.Execute(spec, &stats);
    ASSERT_TRUE(c.status.ok()) << spec.name << ": " << c.status.ToString();
    EXPECT_LT(hybrid, c.modeled_seconds)
        << spec.name << ": hybrid " << hybrid << " s vs DBMS C "
        << c.modeled_seconds << " s";
  }
  EXPECT_EQ(compared, 12);
}

TEST_F(Fig5ShapeTest, LoadBalanceFasterThanRoundRobinOnTheSuite) {
  // Per query the margin (1-11%) sits inside the load-balance router's
  // host-timing jitter on flight 1; the suite total is gated.
  double sum_lb = 0, sum_rr = 0;
  for (const plan::QuerySpec& spec : ssb_->AllQueries()) {
    ExecPolicy round_robin = ExecPolicy::Hybrid();
    round_robin.load_balance = false;
    sum_lb += Run(spec, ExecPolicy::Hybrid()).modeled_seconds;
    sum_rr += Run(spec, round_robin).modeled_seconds;
  }
  EXPECT_LT(sum_lb, sum_rr) << "suite: load-balance " << sum_lb
                            << " s vs round-robin " << sum_rr << " s";
}

TEST_F(Fig5ShapeTest, Fig6CpuScanScalesUntilSocketsSaturate) {
  const plan::QuerySpec scan = test::WideMeasureScan(*ssb_, system_);
  std::map<int, double> seconds;
  for (int k : kCores) {
    seconds[k] = Run(scan, ExecPolicy::CpuOnly(k)).modeled_seconds;
  }
  const sim::CostModel& cm = system_->topology().cost_model();
  // Below a socket's DRAM share (45 / 6 = 7.5 cores per socket) each core
  // streams at its own bandwidth: near-linear speedup.
  for (int k : {2, 4, 8}) {
    EXPECT_GE(seconds[1] / seconds[k], 0.9 * k) << k << " cores";
  }
  // Two sockets' DRAM bound the scan: at most 2 x 45 / 6 = 15x one core.
  EXPECT_LE(seconds[1] / seconds[24], 2 * cm.cpu_socket_bw / cm.cpu_core_bw);
  // Saturated: 24 cores run within 5% of 16.
  EXPECT_NEAR(seconds[24] / seconds[16], 1.0, 0.05);
}

TEST_F(Fig5ShapeTest, Fig6SsbScalesWithCoresAndGpus) {
  for (const plan::QuerySpec& spec : ssb_->AllQueries()) {
    double previous = std::numeric_limits<double>::infinity();
    for (int k : kCores) {
      const double cpu = Run(spec, ExecPolicy::CpuOnly(k)).modeled_seconds;
      const double hybrid =
          Run(spec, ExecPolicy::Hybrid(k, {0, 1})).modeled_seconds;
      EXPECT_LT(cpu, previous) << spec.name << ": CPU-only " << k << " cores "
                               << cpu << " s, fewer cores " << previous << " s";
      EXPECT_LT(hybrid, cpu) << spec.name << " at " << k << " cores: hybrid "
                             << hybrid << " s vs CPU-only " << cpu << " s";
      previous = cpu;
    }
  }
}

}  // namespace
}  // namespace hetex
