#include <gtest/gtest.h>

#include "test_util.h"

namespace hetex {
namespace {

using plan::ExecPolicy;
using test::TestEnv;

TEST(EndToEnd, Q11CpuOnlyMatchesReference) {
  TestEnv env;
  const auto spec = env.ssb->Query(1, 1);
  const auto expected = env.Reference(spec);
  const auto result = env.Run(spec, TestEnv::Tune(ExecPolicy::CpuOnly(2)));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.rows, expected);
  EXPECT_GT(result.modeled_seconds, 0.0);
}

TEST(EndToEnd, Q11GpuOnlyMatchesReference) {
  TestEnv env;
  const auto spec = env.ssb->Query(1, 1);
  const auto expected = env.Reference(spec);
  const auto result = env.Run(spec, TestEnv::Tune(ExecPolicy::GpuOnly()));
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.rows, expected);
}

TEST(EndToEnd, Q11HybridMatchesReference) {
  TestEnv env;
  const auto spec = env.ssb->Query(1, 1);
  const auto expected = env.Reference(spec);
  const auto result = env.Run(spec, TestEnv::Tune(ExecPolicy::Hybrid()));
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.rows, expected);
}

TEST(EndToEnd, Q21GroupByHybridMatchesReference) {
  TestEnv env;
  const auto spec = env.ssb->Query(2, 1);
  const auto expected = env.Reference(spec);
  const auto result = env.Run(spec, TestEnv::Tune(ExecPolicy::Hybrid()));
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.rows, expected);
}

TEST(EndToEnd, BareCpuMatchesReference) {
  TestEnv env;
  const auto spec = env.ssb->Query(1, 2);
  const auto expected = env.Reference(spec);
  const auto result =
      env.Run(spec, TestEnv::Tune(ExecPolicy::Bare(sim::DeviceType::kCpu)));
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.rows, expected);
}

TEST(EndToEnd, BareGpuUvaMatchesReference) {
  TestEnv env;
  const auto spec = env.ssb->Query(1, 2);
  const auto expected = env.Reference(spec);
  const auto result =
      env.Run(spec, TestEnv::Tune(ExecPolicy::Bare(sim::DeviceType::kGpu)));
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.rows, expected);
}

// Q3.1 on hetbench's SSB dimensions (120k customers, 30k suppliers): both
// filters keep a fifth, but the customer hash table is LLC-class and the
// supplier one cache-class, so the fused pipeline probes supplier first and
// only a fifth of the fact rows reach the customer probe. The second run
// attaches the first run's shared builds, so its counters hold only the fact
// side, where the customer probe makes every LLC-class access: about 1.6 per
// probing row (bucket head plus chain walk), 0.31 per fact row. Probing
// customer first costs at least one per fact row.
TEST(EndToEnd, Q31ProbesTheLlcClassTableBehindTheCacheClassOne) {
  core::System::Options opts;
  opts.reuse.shared_builds = true;
  opts.topology.cores_per_socket = 2;
  opts.topology.gpu_capacity = 1ull << 30;
  opts.blocks.block_bytes = 64 << 10;
  opts.blocks.host_arena_blocks = 256;
  opts.blocks.gpu_arena_blocks = 128;
  core::System system(opts);
  ssb::Ssb::Options data;
  data.scale = 0.002;
  data.lineorder_rows = 20'000;
  data.customer_rows = 120'000;
  data.supplier_rows = 30'000;
  data.part_rows = 80'000;
  ssb::Ssb ssb(data, &system.catalog());
  for (const char* name : {"lineorder", "date", "customer", "supplier", "part"}) {
    HETEX_CHECK_OK(
        system.catalog().at(name).Place(system.HostNodes(), &system.memory()));
  }
  const auto spec = ssb.Query(3, 1);
  const auto policy = TestEnv::Tune(ExecPolicy::CpuOnly(2));
  core::QueryExecutor executor(&system);
  const auto built = executor.Execute(spec, policy);
  ASSERT_TRUE(built.status.ok()) << built.status.ToString();
  const auto probed = executor.Execute(spec, policy);
  ASSERT_TRUE(probed.status.ok()) << probed.status.ToString();
  EXPECT_EQ(probed.rows, ssb::ReferenceExecute(spec, system.catalog()));
  ASSERT_EQ(probed.shared_attaches, 3);
  EXPECT_LE(static_cast<double>(probed.stats.mid_accesses),
            0.4 * static_cast<double>(data.lineorder_rows));
}

}  // namespace
}  // namespace hetex
