#include "core/graph_builder.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "plan/coster.h"
#include "plan/het_plan.h"
#include "test_util.h"

namespace hetex::core {
namespace {

using plan::ExecPolicy;
using plan::HetOpNode;
using plan::HetPlan;
using test::TestEnv;

/// Counts plan nodes of one kind.
int CountKind(const HetPlan& plan, HetOpNode::Kind kind) {
  int n = 0;
  for (const auto& node : plan.nodes) n += node.kind == kind;
  return n;
}

class GraphBuilderTest : public ::testing::Test {
 protected:
  GraphBuilderTest() : env_(20'000) {}

  HetPlan Plan(const plan::QuerySpec& spec, const ExecPolicy& policy) {
    return plan::BuildHetPlan(spec, policy, env_.system->topology());
  }

  plan::PlanAnalysis Lower(const HetPlan& plan) {
    GraphBuilder builder(env_.system.get(), &plan);
    Status st = builder.Analyze();
    EXPECT_TRUE(st.ok()) << st.ToString();
    return builder.analysis();
  }

  TestEnv env_;
};

// --- Lowered node/edge counts agree with the HetPlan, per ExecPolicy factory.

TEST_F(GraphBuilderTest, CpuOnlyLoweringMatchesPlan) {
  const auto spec = env_.ssb->Query(3, 1);
  const HetPlan plan = Plan(spec, TestEnv::Tune(ExecPolicy::CpuOnly(4)));
  const plan::PlanAnalysis lowered = Lower(plan);

  // One build stage per join, instanced per the kJoinBuild replicas' DOP:
  // each socket's replica is built by all of its probe workers.
  ASSERT_EQ(lowered.build_stages.size(), spec.joins.size());
  int plan_build_instances = 0;
  for (const auto& n : plan.nodes) {
    if (n.kind == HetOpNode::Kind::kJoinBuild) {
      EXPECT_EQ(n.dop, 2) << "4 workers over 2 sockets";
      plan_build_instances += n.dop;
    }
  }
  int lowered_build_instances = 0;
  for (const auto& s : lowered.build_stages) {
    EXPECT_EQ(s.span().role, plan::StageRole::kBuild);
    const Edge::Options edge = GraphBuilder::EdgeOptions(s);
    EXPECT_EQ(edge.policy, plan::RouterPolicy::kBroadcast);
    EXPECT_TRUE(edge.unit_broadcast);
    lowered_build_instances += static_cast<int>(s.instances.size());
  }
  EXPECT_EQ(lowered_build_instances, plan_build_instances);
  // The probe stage's fact router keeps every-consumer-gets-one semantics.
  EXPECT_FALSE(GraphBuilder::EdgeOptions(lowered.fact_stages[1]).unit_broadcast);

  // Fused plan: gather + probe stages; probe DOP = the fact router's fanout.
  ASSERT_EQ(lowered.fact_stages.size(), 2u);
  EXPECT_EQ(lowered.fact_stages[0].span().role, plan::StageRole::kGather);
  EXPECT_EQ(lowered.fact_stages[0].instances.size(), 1u);
  EXPECT_EQ(lowered.fact_stages[1].span().role, plan::StageRole::kProbe);
  EXPECT_EQ(lowered.fact_stages[1].instances.size(), 4u);
  for (const auto& dev : lowered.fact_stages[1].instances) {
    EXPECT_TRUE(dev.is_cpu());
  }
  EXPECT_EQ(GraphBuilder::EdgeOptions(lowered.fact_stages[1]).policy,
            plan::RouterPolicy::kLoadBalance);
  EXPECT_TRUE(lowered.build_filter_stages.empty());

  const auto result = env_.Run(spec, TestEnv::Tune(ExecPolicy::CpuOnly(4)));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.rows, env_.Reference(spec));
}

TEST_F(GraphBuilderTest, GpuOnlyLoweringMatchesPlan) {
  const auto spec = env_.ssb->Query(1, 1);
  const HetPlan plan = Plan(spec, TestEnv::Tune(ExecPolicy::GpuOnly()));
  const plan::PlanAnalysis lowered = Lower(plan);

  ASSERT_EQ(lowered.fact_stages.size(), 2u);
  const plan::Stage& probe = lowered.fact_stages[1];
  EXPECT_EQ(probe.instances.size(), 2u);  // both GPUs of the test topology
  for (const auto& dev : probe.instances) EXPECT_TRUE(dev.is_gpu());
  // The device->host partials crossing stamps its latency on the union edge,
  // which rotates its single consumer like round-robin.
  const Edge::Options gather_edge =
      GraphBuilder::EdgeOptions(lowered.fact_stages[0]);
  EXPECT_GT(gather_edge.crossing_latency, 0.0);
  EXPECT_EQ(gather_edge.policy, plan::RouterPolicy::kUnion);
  // Routers present: bring-up latency lifted from the plan stamps.
  EXPECT_GT(lowered.init_latency, 0.0);

  const auto result = env_.Run(spec, TestEnv::Tune(ExecPolicy::GpuOnly()));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.rows, env_.Reference(spec));
}

TEST_F(GraphBuilderTest, HybridLoweringMergesBranchesOfOneExchange) {
  const auto spec = env_.ssb->Query(2, 1);
  const HetPlan plan = Plan(spec, TestEnv::Tune(ExecPolicy::Hybrid(3)));
  const plan::PlanAnalysis lowered = Lower(plan);

  // The CPU and GPU branches of the DAG share the fact router: one worker
  // group, CPU instances first (the plan's branch order).
  ASSERT_EQ(lowered.fact_stages.size(), 2u);
  const plan::Stage& probe = lowered.fact_stages[1];
  ASSERT_EQ(probe.instances.size(), 5u);  // 3 CPU workers + 2 GPUs
  EXPECT_TRUE(probe.instances[0].is_cpu());
  EXPECT_TRUE(probe.instances[4].is_gpu());
  ASSERT_EQ(probe.branches.size(), 2u);

  // Build stages replicate per unit (2 sockets + 2 GPUs); each socket's
  // replica is built by its probe workers: 2 on socket 0, 1 on socket 1.
  for (const auto& s : lowered.build_stages) {
    EXPECT_EQ(s.instances.size(), 5u);
  }

  const auto result = env_.Run(spec, TestEnv::Tune(ExecPolicy::Hybrid(3)));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.rows, env_.Reference(spec));
}

TEST_F(GraphBuilderTest, HybridFiltersEachFilteredDimensionOnceOnTheHost) {
  for (const auto& [flight, idx] : {std::pair{2, 1}, {3, 1}}) {
    const auto spec = env_.ssb->Query(flight, idx);
    const ExecPolicy policy = TestEnv::Tune(ExecPolicy::Hybrid(3));
    const HetPlan plan = Plan(spec, policy);
    GraphBuilder builder(env_.system.get(), &plan);
    ASSERT_TRUE(builder.Analyze().ok());
    const plan::PlanAnalysis& lowered = builder.analysis();
    QueryCompiler compiler(spec, env_.system->catalog(), env_.system->cost_model());

    // Each filtered join: a CPU filter stage whose wire schema is exactly the
    // build key and payload, feeding a unit broadcast to every replica. A
    // join without a build filter keeps its segmenter-fed build.
    size_t filtered = 0;
    for (const plan::Stage& build : lowered.build_stages) {
      const plan::JoinSpec& join = spec.joins.at(build.span().join_id);
      const Edge::Options edge = GraphBuilder::EdgeOptions(build);
      EXPECT_EQ(edge.policy, plan::RouterPolicy::kBroadcast);
      EXPECT_TRUE(edge.unit_broadcast);
      EXPECT_EQ(build.instances.size(), 5u);  // 2 + 1 socket workers, 2 GPUs
      if (join.build_filter == nullptr) {
        EXPECT_EQ(build.filter_stage, -1) << spec.name;
        EXPECT_GE(build.in.segmenter, 0) << spec.name;
        continue;
      }
      ++filtered;
      ASSERT_GE(build.filter_stage, 0) << spec.name << " " << join.build_table;
      EXPECT_EQ(build.in.segmenter, -1);
      const plan::Stage& filter = lowered.build_filter_stages.at(build.filter_stage);
      EXPECT_EQ(filter.span().role, plan::StageRole::kFilterStage);
      EXPECT_EQ(filter.span().join_id, build.span().join_id);
      const Edge::Options filter_edge = GraphBuilder::EdgeOptions(filter);
      EXPECT_EQ(filter_edge.policy, plan::RouterPolicy::kRoundRobin);
      EXPECT_FALSE(filter_edge.unit_broadcast);
      EXPECT_GE(filter.in.segmenter, 0);
      ASSERT_EQ(filter.instances.size(), 3u);
      for (const auto& dev : filter.instances) EXPECT_TRUE(dev.is_cpu());

      const GraphBuilder::BuildPipelines pipelines =
          builder.CompileBuildPipelines(build, &compiler);
      std::vector<std::string> expected = {join.build_key};
      expected.insert(expected.end(), join.payload.begin(), join.payload.end());
      std::vector<std::string> wire, read;
      for (const auto& col : pipelines.filter.output_cols) wire.push_back(col.name);
      for (const auto& col : pipelines.build.input_cols) read.push_back(col.name);
      EXPECT_EQ(wire, expected) << spec.name << " " << join.build_table;
      EXPECT_EQ(read, wire) << spec.name << " " << join.build_table;
    }
    EXPECT_GT(filtered, 0u);
    EXPECT_EQ(lowered.build_filter_stages.size(), filtered);
    EXPECT_EQ(lowered.build_stages.size(), spec.joins.size());
    EXPECT_EQ(lowered.fact_stages.size(), 2u);

    const auto result = env_.Run(spec, policy);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.rows, env_.Reference(spec));

    // Single-device plans keep the one-stage build chain: no filter stage,
    // every build fed by its own segmenter, the filter inside the build span.
    for (const ExecPolicy& single : {ExecPolicy::CpuOnly(4), ExecPolicy::GpuOnly()}) {
      const HetPlan single_plan = Plan(spec, TestEnv::Tune(single));
      const plan::PlanAnalysis lowered_single = Lower(single_plan);
      EXPECT_TRUE(lowered_single.build_filter_stages.empty());
      ASSERT_EQ(lowered_single.build_stages.size(), spec.joins.size());
      for (const plan::Stage& build : lowered_single.build_stages) {
        EXPECT_EQ(build.filter_stage, -1);
        EXPECT_GE(build.in.segmenter, 0);
      }
      EXPECT_EQ(CountKind(single_plan, HetOpNode::Kind::kPack), 1);  // partials
    }
  }
}

TEST_F(GraphBuilderTest, SplitPlanLowersSharedHashExchange) {
  const auto spec = env_.ssb->Query(2, 2);
  ExecPolicy policy = TestEnv::Tune(ExecPolicy::Hybrid(2));
  policy.split_probe_stage = true;
  const HetPlan plan = Plan(spec, policy);
  const plan::PlanAnalysis lowered = Lower(plan);

  ASSERT_EQ(lowered.fact_stages.size(), 3u);
  EXPECT_EQ(lowered.fact_stages[0].span().role, plan::StageRole::kGather);
  EXPECT_EQ(lowered.fact_stages[1].span().role, plan::StageRole::kProbe);
  EXPECT_EQ(lowered.fact_stages[2].span().role, plan::StageRole::kFilterStage);
  // Stage A and stage B are connected by the single hash exchange of the plan.
  EXPECT_EQ(GraphBuilder::EdgeOptions(lowered.fact_stages[1]).policy,
            plan::RouterPolicy::kHash);
  EXPECT_EQ(lowered.fact_stages[1].instances.size(),
            lowered.fact_stages[2].instances.size());

  const auto result = env_.Run(spec, policy);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.rows, env_.Reference(spec));
}

TEST_F(GraphBuilderTest, BareCpuLoweringHasNoRouters) {
  const auto spec = env_.ssb->Query(1, 2);
  const ExecPolicy policy = TestEnv::Tune(ExecPolicy::Bare(sim::DeviceType::kCpu));
  const HetPlan plan = Plan(spec, policy);
  const plan::PlanAnalysis lowered = Lower(plan);

  EXPECT_EQ(lowered.init_latency, 0.0);  // no routers to bring up
  for (const auto& s : lowered.build_stages) {
    EXPECT_EQ(s.in.router, -1);
    EXPECT_EQ(GraphBuilder::EdgeOptions(s).control_cost, 0.0);
    EXPECT_EQ(s.instances.size(), 1u);
  }
  ASSERT_EQ(lowered.fact_stages.size(), 2u);
  EXPECT_EQ(lowered.fact_stages[1].instances.size(), 1u);

  const auto result = env_.Run(spec, policy);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.rows, env_.Reference(spec));
}

TEST_F(GraphBuilderTest, BareGpuLoweringUsesUva) {
  const auto spec = env_.ssb->Query(1, 2);
  const ExecPolicy policy = TestEnv::Tune(ExecPolicy::Bare(sim::DeviceType::kGpu));
  const HetPlan plan = Plan(spec, policy);
  // Bare plans now carry the UVA marker, so they validate like any other plan.
  EXPECT_TRUE(plan::ValidateHetPlan(plan).ok());
  const plan::PlanAnalysis lowered = Lower(plan);

  // UVA addressing: no mem-move on the segmenter-fed edges.
  for (const auto& s : lowered.build_stages) {
    EXPECT_TRUE(s.in.uva);
    EXPECT_FALSE(GraphBuilder::EdgeOptions(s).mem_move);
  }
  const plan::Stage& probe = lowered.fact_stages.back();
  EXPECT_TRUE(probe.in.uva);
  EXPECT_FALSE(GraphBuilder::EdgeOptions(probe).mem_move);
  // Partials still cross device->host with a real move.
  const Edge::Options gather_edge =
      GraphBuilder::EdgeOptions(lowered.fact_stages[0]);
  EXPECT_TRUE(gather_edge.mem_move);
  EXPECT_GT(gather_edge.crossing_latency, 0.0);

  const auto result = env_.Run(spec, policy);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.rows, env_.Reference(spec));
}

TEST_F(GraphBuilderTest, BareGpuCannotReadAnotherGpusChunksOverUva) {
  const auto spec = env_.ssb->Query(1, 2);
  // The fact table across both GPUs: bare GPU 0 reads its source in place,
  // and GPU 1's memory is not addressable from GPU 0.
  HETEX_CHECK_OK(env_.system->catalog().at("lineorder").Place(
      env_.system->GpuNodes(), &env_.system->memory()));
  const HetPlan plan =
      Plan(spec, TestEnv::Tune(ExecPolicy::Bare(sim::DeviceType::kGpu)));
  QueryExecutor executor(env_.system.get());
  const auto result = executor.ExecutePlan(spec, plan);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument)
      << result.status.ToString();
  EXPECT_NE(result.status.message().find("cannot address table 'lineorder'"),
            std::string::npos)
      << result.status.ToString();
  EXPECT_TRUE(result.rows.empty());
  // The coster rejects the plan with the same Status.
  const plan::PlanCoster coster(spec, env_.system->catalog(),
                                env_.system->topology());
  const Result<plan::CostEstimate> est = coster.Cost(plan);
  ASSERT_FALSE(est.ok());
  EXPECT_EQ(est.status().ToString(), result.status.ToString());
}

// --- The acceptance proof: mutating the *plan* changes execution behavior,
// with zero executor changes.

TEST_F(GraphBuilderTest, MutatingRouterPolicyNodeChangesExecution) {
  const auto spec = env_.ssb->Query(1, 1);  // scalar SUM(revenue)
  const ExecPolicy policy = TestEnv::Tune(ExecPolicy::CpuOnly(3));
  HetPlan plan = Plan(spec, policy);

  QueryExecutor executor(env_.system.get());
  const auto baseline = executor.ExecutePlan(spec, plan);
  ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();
  ASSERT_EQ(baseline.rows, env_.Reference(spec));

  // Flip the fact router from load-balance to broadcast. Every probe instance
  // now receives every fact block, so the scalar sum multiplies by the DOP.
  int mutated = 0;
  for (auto& node : plan.nodes) {
    if (node.kind == HetOpNode::Kind::kRouter &&
        node.policy == plan::RouterPolicy::kLoadBalance) {
      node.policy = plan::RouterPolicy::kBroadcast;
      node.detail = "policy=broadcast (mutated)";
      ++mutated;
    }
  }
  ASSERT_EQ(mutated, 1);

  const auto dup = executor.ExecutePlan(spec, plan);
  ASSERT_TRUE(dup.status.ok()) << dup.status.ToString();
  ASSERT_EQ(dup.rows.size(), 1u);
  EXPECT_EQ(dup.rows[0][0], 3 * baseline.rows[0][0]);
}

TEST_F(GraphBuilderTest, MutatingSegmenterGranularityChangesExecution) {
  const auto spec = env_.ssb->Query(1, 1);
  const ExecPolicy policy = TestEnv::Tune(ExecPolicy::CpuOnly(2));
  HetPlan plan = Plan(spec, policy);

  QueryExecutor executor(env_.system.get());
  const auto coarse = executor.ExecutePlan(spec, plan);
  ASSERT_TRUE(coarse.status.ok());

  // Quarter the fact segmenter's block granularity: same answers, more blocks,
  // more per-block control work on the modeled timeline.
  for (auto& node : plan.nodes) {
    if (node.kind == HetOpNode::Kind::kSegmenter && node.table == "lineorder") {
      node.block_rows /= 4;
    }
  }
  const auto fine = executor.ExecutePlan(spec, plan);
  ASSERT_TRUE(fine.status.ok());
  EXPECT_EQ(fine.rows, coarse.rows);
  EXPECT_NE(fine.modeled_seconds, coarse.modeled_seconds);
}

TEST_F(GraphBuilderTest, InvalidPlanIsRejectedBeforeExecution) {
  const auto spec = env_.ssb->Query(1, 1);
  HetPlan plan = Plan(spec, TestEnv::Tune(ExecPolicy::CpuOnly(2)));

  // Flip the union router's *stamped* policy — the field the lowering actually
  // executes — without touching the cosmetic detail string: rule 4 (hash
  // routers need hash-packed input) must reject the plan before anything runs.
  for (auto& node : plan.nodes) {
    if (node.kind == HetOpNode::Kind::kRouter &&
        node.policy == plan::RouterPolicy::kUnion) {
      node.policy = plan::RouterPolicy::kHash;
    }
  }
  QueryExecutor executor(env_.system.get());
  const auto result = executor.ExecutePlan(spec, plan);
  EXPECT_FALSE(result.status.ok());
  EXPECT_TRUE(result.rows.empty());
}

TEST_F(GraphBuilderTest, OutOfRangeJoinIdSurfacesAsStatus) {
  const auto spec = env_.ssb->Query(1, 1);  // one join
  HetPlan plan = Plan(spec, TestEnv::Tune(ExecPolicy::CpuOnly(2)));
  for (auto& node : plan.nodes) {
    if (node.kind == HetOpNode::Kind::kJoinBuild) node.join_id = 7;
  }
  QueryExecutor executor(env_.system.get());
  const auto result = executor.ExecutePlan(spec, plan);
  EXPECT_FALSE(result.status.ok());
  EXPECT_TRUE(result.rows.empty());
}

TEST_F(GraphBuilderTest, PlanCycleSurfacesAsStatusNotHang) {
  const auto spec = env_.ssb->Query(1, 1);
  HetPlan plan = Plan(spec, TestEnv::Tune(ExecPolicy::CpuOnly(2)));
  // Point an unpack at itself: validation/lowering must error, not loop.
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    if (plan.nodes[i].kind == HetOpNode::Kind::kUnpack) {
      plan.nodes[i].children = {static_cast<int>(i)};
      break;
    }
  }
  QueryExecutor executor(env_.system.get());
  const auto result = executor.ExecutePlan(spec, plan);
  EXPECT_FALSE(result.status.ok());

  // Cross-stage cycle: point the fact router back at the probe span's pack, so
  // the fact chain re-discovers the same producer top forever if unguarded.
  HetPlan looped = Plan(spec, TestEnv::Tune(ExecPolicy::CpuOnly(2)));
  int pack = -1;
  for (size_t i = 0; i < looped.nodes.size(); ++i) {
    if (looped.nodes[i].kind == HetOpNode::Kind::kPack) pack = static_cast<int>(i);
  }
  ASSERT_GE(pack, 0);
  for (auto& node : looped.nodes) {
    if (node.kind == HetOpNode::Kind::kRouter &&
        node.policy == plan::RouterPolicy::kLoadBalance) {
      node.children = {pack};
    }
  }
  const auto r2 = executor.ExecutePlan(spec, looped);
  EXPECT_FALSE(r2.status.ok());
}

TEST_F(GraphBuilderTest, AnalyzeRejectsMalformedDag) {
  HetPlan plan;
  plan.nodes.push_back({HetOpNode::Kind::kSegmenter, "", sim::DeviceType::kCpu,
                        1, {}});
  plan.root = 0;  // no result node
  GraphBuilder builder(env_.system.get(), &plan);
  EXPECT_FALSE(builder.Analyze().ok());
}

TEST_F(GraphBuilderTest, DescribeRendersStagesAndEdges) {
  const auto spec = env_.ssb->Query(3, 1);
  const HetPlan plan = Plan(spec, TestEnv::Tune(ExecPolicy::Hybrid(2)));
  GraphBuilder builder(env_.system.get(), &plan);
  ASSERT_TRUE(builder.Analyze().ok());
  const std::string s = builder.Describe();
  for (const char* expected :
       {"build stage:", "fact stage:", "gather", "probe", "policy=broadcast",
        "policy=load-balance", "policy=union", "mem-move"}) {
    EXPECT_NE(s.find(expected), std::string::npos) << "missing " << expected;
  }
}

}  // namespace
}  // namespace hetex::core
