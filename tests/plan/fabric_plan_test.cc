// Fabric-aware plan search: the enumerator's per-GPU build pinnings on
// multi-GPU topologies, and the clean degradation of the whole planning
// stack on a GPU-less (CPU-only) fabric.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/executor.h"
#include "plan/enumerator.h"
#include "plan/optimizer.h"
#include "sim/topology.h"
#include "test_util.h"

namespace hetex {
namespace {

using test::TestEnv;

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

TEST(FabricPlanTest, EnumeratorEmitsPerGpuPinnedCandidates) {
  TestEnv env(20'000);
  const sim::Topology topo(sim::Topology::ScaleOutOptions(4));
  const auto spec = env.ssb->Query(3, 1);
  const auto cands = plan::EnumeratePlans(
      spec, TestEnv::Tune(plan::ExecPolicy::Hybrid(4)), topo);
  ASSERT_FALSE(cands.empty());
  // Every single GPU of the 4-GPU fabric appears as a pinned build placement.
  for (const char* pin : {"/g0", "/g1", "/g2", "/g3"}) {
    EXPECT_TRUE(std::any_of(cands.begin(), cands.end(),
                            [&](const plan::PlanCandidate& c) {
                              return EndsWith(c.label, pin);
                            }))
        << "no candidate pinned to " << pin;
  }
}

TEST(FabricPlanTest, NoGpuTopologyEnumeratesOnlyCpuShapes) {
  TestEnv env(20'000);
  const sim::Topology topo(sim::Topology::ScaleOutOptions(0));
  const auto spec = env.ssb->Query(3, 1);
  const auto cands = plan::EnumeratePlans(
      spec, TestEnv::Tune(plan::ExecPolicy::Hybrid(4)), topo);
  ASSERT_FALSE(cands.empty());
  for (const auto& c : cands) {
    EXPECT_EQ(c.label.rfind("cpu/", 0), 0u) << c.label;
  }
}

TEST(FabricPlanTest, GpuPlacedPolicyOnNoGpuTopologyIsANamedError) {
  TestEnv env(20'000, /*sockets=*/2, /*gpus=*/0);
  const auto spec = env.ssb->Query(1, 1);
  // Direct execution: the named InvalidArgument, not a layout abort.
  const core::QueryResult r =
      env.Run(spec, TestEnv::Tune(plan::ExecPolicy::GpuOnly()));
  ASSERT_FALSE(r.status.ok());
  EXPECT_NE(r.status.ToString().find("no-GPU"), std::string::npos)
      << r.status.ToString();
  // Optimizer path: the empty candidate space is named the same way.
  core::QueryExecutor executor(env.system.get());
  plan::OptimizeResult opt;
  const Status st =
      executor.Optimize(spec, TestEnv::Tune(plan::ExecPolicy::GpuOnly()), &opt);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("no-GPU"), std::string::npos) << st.ToString();
}

TEST(FabricPlanTest, CpuOnlyQueryRunsCorrectlyOnGpuLessTopology) {
  TestEnv env(20'000, /*sockets=*/2, /*gpus=*/0);
  const auto spec = env.ssb->Query(1, 1);
  const core::QueryResult r =
      env.Run(spec, TestEnv::Tune(plan::ExecPolicy::CpuOnly(3)));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.rows, env.Reference(spec));
}

TEST(FabricPlanTest, OptimizerDegradesToCpuCandidatesWithoutGpus) {
  TestEnv env(20'000, /*sockets=*/2, /*gpus=*/0);
  const auto spec = env.ssb->Query(2, 1);
  core::QueryExecutor executor(env.system.get());
  plan::OptimizeResult opt;
  const Status st =
      executor.Optimize(spec, TestEnv::Tune(plan::ExecPolicy::Hybrid(3)), &opt);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_FALSE(opt.ranked.empty());
  for (const auto& rc : opt.ranked) {
    EXPECT_EQ(rc.candidate.label.rfind("cpu/", 0), 0u) << rc.candidate.label;
  }
  const core::QueryResult r = executor.ExecutePlan(spec, opt.best().plan);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.rows, env.Reference(spec));
}

}  // namespace
}  // namespace hetex
