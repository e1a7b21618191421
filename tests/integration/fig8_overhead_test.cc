// Fig. 8 gate (§6.4): at degree of parallelism 1, the HetExchange operators
// cost at most 10% over the bare engine on a 512 MB-equivalent input, for the
// SUM and the JOIN microbenchmark, on one CPU core and on one GPU. The router
// is forced into the plan at DOP 1 (the optimizer would elide it).
//
// The input is 8 MB of 4-byte values with every fixed latency scaled by 1/64,
// a 512 MB-equivalent miniature. The paper's fixed router instantiation and
// thread pinning cost (~10 ms) is the System worker pool's start, paid once
// per System (VirtualTime.WorkerPoolBringUpIsPaidOncePerSystem); a query at
// the horizon pays only its own set-up (waking parked workers).

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/executor.h"
#include "core/system.h"

namespace hetex {
namespace {

using plan::ExecPolicy;

class Fig8OverheadTest : public ::testing::Test {
 protected:
  static constexpr double kLatencyScale = 1.0 / 64;
  static constexpr uint64_t kRows = (8ull << 20) / 4;
  static constexpr uint64_t kBuildRows = 128'000;

  static void SetUpTestSuite() {
    core::System::Options o;
    o.reuse = core::ReuseOptions{};
    o.faults = sim::FaultOptions{};
    o.topology.cost_model.ScaleFixedLatencies(kLatencyScale);
    o.blocks.host_arena_blocks = 768;
    system_ = new core::System(o);

    // `micro`: a (values 0..65535) and k (a uniform foreign key into
    // `micro_build`'s bk = 1..kBuildRows).
    Rng rng(7);
    storage::Table* fact = system_->catalog().CreateTable("micro");
    storage::Column* a = fact->AddColumn("a", storage::ColType::kInt32);
    storage::Column* key = fact->AddColumn("k", storage::ColType::kInt32);
    for (uint64_t i = 0; i < kRows; ++i) {
      a->Append(static_cast<int64_t>(i & 0xFFFF));
      key->Append(static_cast<int64_t>(rng.Uniform(kBuildRows) + 1));
    }
    HETEX_CHECK_OK(fact->Place(system_->HostNodes(), &system_->memory()));
    fact->DropStaging();
    storage::Table* build = system_->catalog().CreateTable("micro_build");
    storage::Column* bk = build->AddColumn("bk", storage::ColType::kInt64);
    for (uint64_t i = 0; i < kBuildRows; ++i) bk->Append(static_cast<int64_t>(i + 1));
    HETEX_CHECK_OK(build->Place({system_->HostNodes()[0]}, &system_->memory()));
  }

  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }

  /// SELECT SUM(a) FROM micro: bandwidth-bound.
  static plan::QuerySpec SumQuery() {
    plan::QuerySpec q;
    q.name = "micro-sum";
    q.fact_table = "micro";
    q.aggs.push_back({plan::Col("a"), jit::AggFunc::kSum, "sum_a"});
    q.expected_groups = 1;
    return q;
  }

  /// SELECT COUNT(*) FROM micro JOIN micro_build ON k = bk: random-access
  /// bound (a non-partitioned 1:N join).
  static plan::QuerySpec JoinQuery() {
    plan::QuerySpec q;
    q.name = "micro-join";
    q.fact_table = "micro";
    q.joins.push_back({"micro_build", nullptr, "bk", {}, "k"});
    q.aggs.push_back({nullptr, jit::AggFunc::kCount, "cnt"});
    q.expected_groups = 1;
    return q;
  }

  /// Bare (no HetExchange operators) or HetExchange restricted to one
  /// compute unit, on `device`.
  static core::QueryResult Run(const plan::QuerySpec& spec, bool hetex,
                               sim::DeviceType device) {
    const bool cpu = device == sim::DeviceType::kCpu;
    ExecPolicy policy = ExecPolicy::Bare(device);
    if (hetex) {
      policy.use_hetexchange = true;
      policy.cpu_workers = cpu ? 1 : 0;
      policy.mode = cpu ? ExecPolicy::Mode::kCpuOnly : ExecPolicy::Mode::kGpuOnly;
    }
    policy.block_rows = 128 * 1024;
    core::QueryExecutor executor(system_);
    return executor.Execute(spec, policy);
  }

  static core::System* system_;
};

core::System* Fig8OverheadTest::system_ = nullptr;

TEST_F(Fig8OverheadTest, HetexWithinTenPercentOfBareAtDop1) {
  for (const plan::QuerySpec& spec : {SumQuery(), JoinQuery()}) {
    for (sim::DeviceType device : {sim::DeviceType::kCpu, sim::DeviceType::kGpu}) {
      const std::string where =
          spec.name + (device == sim::DeviceType::kCpu ? " on cpu" : " on gpu");
      const core::QueryResult bare = Run(spec, /*hetex=*/false, device);
      const core::QueryResult hetex = Run(spec, /*hetex=*/true, device);
      ASSERT_TRUE(bare.status.ok()) << where << ": " << bare.status.ToString();
      ASSERT_TRUE(hetex.status.ok()) << where << ": " << hetex.status.ToString();
      EXPECT_EQ(hetex.rows, bare.rows) << where;
      EXPECT_LE(hetex.modeled_seconds / bare.modeled_seconds, 1.10)
          << where << ": hetex " << hetex.modeled_seconds * 1e3 << " ms, bare "
          << bare.modeled_seconds * 1e3 << " ms";
    }
  }
}

}  // namespace
}  // namespace hetex
