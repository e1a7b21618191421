#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/rng.h"
#include "test_util.h"

namespace hetex {
namespace {

using plan::ExecPolicy;
using test::TestEnv;

/// Property tests: randomized query shapes and execution configurations must
/// always agree with the reference evaluator, and results must be invariant to
/// how the plan is parallelized.

/// Random scalar-aggregate queries over lineorder with random filters.
class RandomQueryTest : public ::testing::TestWithParam<int> {
 protected:
  static TestEnv* env() {
    static TestEnv* instance = new TestEnv(20'000);
    return instance;
  }
};

plan::QuerySpec RandomSpec(Rng& rng) {
  using namespace plan;  // NOLINT
  QuerySpec q;
  q.name = "random";
  q.fact_table = "lineorder";

  // Random conjunction of range predicates on fact columns.
  const char* numeric_cols[] = {"lo_quantity", "lo_discount", "lo_extendedprice"};
  ExprPtr filter;
  const int n_preds = static_cast<int>(rng.Uniform(3));
  for (int i = 0; i < n_preds; ++i) {
    const char* col = numeric_cols[rng.Uniform(3)];
    const int64_t lo = rng.UniformRange(0, 30);
    ExprPtr pred = rng.NextBool(0.5) ? Gt(Col(col), Lit(lo))
                                     : Between(Col(col), lo, lo + 20);
    filter = filter == nullptr ? pred : And(filter, pred);
  }
  q.fact_filter = filter;

  // 0-2 joins against random dimensions.
  const int n_joins = static_cast<int>(rng.Uniform(3));
  if (n_joins >= 1) {
    q.joins.push_back({"supplier",
                       rng.NextBool(0.5)
                           ? Eq(Col("s_region"), Lit(rng.UniformRange(0, 4)))
                           : nullptr,
                       "s_suppkey",
                       {"s_nation"},
                       "lo_suppkey"});
  }
  if (n_joins >= 2) {
    q.joins.push_back({"date", nullptr, "d_datekey", {"d_year"}, "lo_orderdate"});
  }

  // Random aggregates (always at least one).
  q.aggs.push_back({Col("lo_revenue"), jit::AggFunc::kSum, "rev"});
  if (rng.NextBool(0.5)) {
    q.aggs.push_back({nullptr, jit::AggFunc::kCount, "cnt"});
  }
  if (rng.NextBool(0.4)) {
    q.aggs.push_back({Col("lo_extendedprice"), jit::AggFunc::kMax, "maxp"});
  }
  if (rng.NextBool(0.4)) {
    q.aggs.push_back({Col("lo_supplycost"), jit::AggFunc::kMin, "minc"});
  }

  // Sometimes group by a joined attribute.
  if (n_joins >= 2 && rng.NextBool(0.5)) {
    q.group_by = {Col("d_year")};
    if (n_joins >= 1 && rng.NextBool(0.5)) q.group_by.push_back(Col("s_nation"));
    q.expected_groups = 1024;
  }
  return q;
}

TEST_P(RandomQueryTest, EngineMatchesReferenceAcrossModes) {
  Rng rng(GetParam() * 1337 + 17);
  const auto spec = RandomSpec(rng);
  const auto expected = env()->Reference(spec);
  for (const auto& policy :
       {ExecPolicy::CpuOnly(static_cast<int>(1 + rng.Uniform(4))),
        ExecPolicy::GpuOnly(), ExecPolicy::Hybrid(2)}) {
    const auto result = env()->Run(spec, TestEnv::Tune(policy));
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.rows, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryTest, ::testing::Range(0, 12));

/// Parallelism invariance: the same query under every DOP yields identical
/// results (the encapsulation property: operators are parallelism-agnostic).
class DopSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(DopSweepTest, ResultsInvariantToDop) {
  static TestEnv* env = new TestEnv(15'000);
  const auto spec = env->ssb->Query(2, 1);
  static const auto expected = env->Reference(spec);
  const auto result =
      env->Run(spec, TestEnv::Tune(ExecPolicy::CpuOnly(GetParam())));
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.rows, expected);
}

INSTANTIATE_TEST_SUITE_P(Dops, DopSweepTest, ::testing::Values(1, 2, 3, 4));

TEST(ParallelismInvariance, RoundRobinEqualsLoadBalance) {
  TestEnv env(15'000);
  const auto spec = env.ssb->Query(3, 2);
  const auto expected = env.Reference(spec);
  for (bool lb : {false, true}) {
    auto policy = TestEnv::Tune(ExecPolicy::Hybrid(2));
    policy.load_balance = lb;
    const auto result = env.Run(spec, policy);
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.rows, expected);
  }
}

TEST(ParallelismInvariance, BlockSizeDoesNotChangeResults) {
  TestEnv env(15'000);
  const auto spec = env.ssb->Query(1, 3);
  const auto expected = env.Reference(spec);
  for (uint64_t block_rows : {512u, 2048u, 16384u}) {
    auto policy = ExecPolicy::Hybrid(2);
    policy.block_rows = block_rows;
    const auto result = env.Run(spec, policy);
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.rows, expected) << "block_rows=" << block_rows;
  }
}

TEST(DataPlacement, GpuResidentFactMatchesReference) {
  TestEnv env(15'000);
  const auto spec = env.ssb->Query(1, 1);
  const auto expected = env.Reference(spec);
  ASSERT_TRUE(env.system->catalog()
                  .at("lineorder")
                  .Place(env.system->GpuNodes(), &env.system->memory())
                  .ok());
  auto policy = TestEnv::Tune(ExecPolicy::GpuOnly());
  policy.data_on_gpu = true;
  const auto result = env.Run(spec, policy);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.rows, expected);
}

TEST(VirtualTime, ModeledTimeDeterministicForRoundRobin) {
  // With deterministic routing and a single worker, the virtual-time result
  // must be bit-identical across executions (wall-clock interleavings of the
  // gather queue must not leak in).
  TestEnv env(10'000);
  const auto spec = env.ssb->Query(1, 1);
  auto policy = TestEnv::Tune(ExecPolicy::CpuOnly(1));
  policy.load_balance = false;
  const auto r1 = env.Run(spec, policy);
  const auto r2 = env.Run(spec, policy);
  EXPECT_DOUBLE_EQ(r1.modeled_seconds, r2.modeled_seconds);
}

TEST(VirtualTime, MoreWorkersNotSlower) {
  TestEnv env(40'000);
  const auto spec = env.ssb->Query(1, 1);
  const auto t1 =
      env.Run(spec, TestEnv::Tune(ExecPolicy::CpuOnly(1))).modeled_seconds;
  const auto t4 =
      env.Run(spec, TestEnv::Tune(ExecPolicy::CpuOnly(4))).modeled_seconds;
  EXPECT_LT(t4, t1 * 1.05);
}

TEST(ResourceHygiene, AllStagingBlocksReturnAfterHybridQuery) {
  // End-to-end leak check: every arena block acquired during a hybrid query
  // (DMA staging, packs, partials) must be back in its arena afterwards.
  TestEnv env(20'000);
  const auto spec = env.ssb->Query(3, 1);
  const auto result = env.Run(spec, TestEnv::Tune(ExecPolicy::Hybrid()));
  ASSERT_TRUE(result.status.ok());
  env.system->blocks().FlushReleases();
  for (int n = 0; n < env.system->topology().num_mem_nodes(); ++n) {
    EXPECT_EQ(env.system->blocks().manager(n).in_use(), 0u) << "node " << n;
  }
}

TEST(ResourceHygiene, StateMemoryFreedAfterQuery) {
  TestEnv env(10'000);
  const auto spec = env.ssb->Query(2, 1);
  const uint64_t used_before =
      env.system->memory().manager(env.system->topology().gpu(0).mem).used();
  auto r = env.Run(spec, TestEnv::Tune(ExecPolicy::GpuOnly()));
  ASSERT_TRUE(r.status.ok());
  // Hash tables + accumulators allocated on the GPU node are freed at query end.
  EXPECT_EQ(
      env.system->memory().manager(env.system->topology().gpu(0).mem).used(),
      used_before);
}

TEST(VirtualTime, WorkerPoolBringUpIsPaidOncePerSystem) {
  // The paper's ~10 ms router instantiation and thread pinning is the
  // System's worker-pool start: [0, bring-up) of the virtual timeline. A
  // session anchored inside it waits for its end; a session at the horizon
  // does not.
  TestEnv env(5'000);
  core::System& sys = *env.system;
  const sim::VTime bring_up = sys.cost_model().router_init_latency;
  ASSERT_GT(bring_up, 0.0);
  EXPECT_EQ(sys.bring_up(), bring_up);
  EXPECT_EQ(sys.VirtualHorizon(), bring_up);  // a fresh System
  EXPECT_EQ(sys.PoolWait(0.0), bring_up);
  EXPECT_EQ(sys.PoolWait(bring_up), 0.0);

  const auto spec = env.ssb->Query(1, 1);
  core::QueryExecutor executor(&sys);
  // The optimizer adds the same wait to every candidate: no pick changes.
  plan::OptimizeResult cold, warm;
  ASSERT_TRUE(executor.OptimizeAt(spec, ExecPolicy{}, 0.0, &cold).ok());
  ASSERT_TRUE(executor.OptimizeAt(spec, ExecPolicy{}, bring_up, &warm).ok());
  EXPECT_EQ(cold.best().label, warm.best().label);
  ASSERT_EQ(cold.ranked.size(), warm.ranked.size());
  std::map<std::string, double> warm_total;
  for (const auto& c : warm.ranked) warm_total[c.candidate.label] = c.cost.total;
  for (const auto& c : cold.ranked) {
    ASSERT_EQ(warm_total.count(c.candidate.label), 1u) << c.candidate.label;
    EXPECT_NEAR(c.cost.total - warm_total[c.candidate.label], bring_up,
                bring_up * 1e-9)
        << c.candidate.label;
  }

  const plan::HetPlan plan =
      plan::BuildHetPlan(spec, TestEnv::Tune(ExecPolicy::CpuOnly(1)), sys.topology());
  const core::QueryResult at_zero =
      executor.ExecutePlan(spec, plan, core::QuerySession{sys.NextQueryId(), 0.0});
  const core::QueryResult at_horizon = executor.ExecutePlan(spec, plan);
  ASSERT_TRUE(at_zero.status.ok() && at_horizon.status.ok());
  EXPECT_EQ(at_zero.rows, at_horizon.rows);
  EXPECT_NEAR(at_zero.modeled_seconds, at_horizon.modeled_seconds + bring_up,
              at_zero.modeled_seconds * 1e-9);
  // A query's own set-up is waking parked workers.
  EXPECT_LT(at_horizon.modeled_seconds, bring_up);
}

}  // namespace
}  // namespace hetex
