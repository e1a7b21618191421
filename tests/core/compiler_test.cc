#include "core/compiler.h"

#include <gtest/gtest.h>

#include "sim/cost_model.h"
#include "storage/table.h"

namespace hetex::core {
namespace {

class CompilerTest : public ::testing::Test {
 protected:
  CompilerTest() {
    storage::Table* fact = catalog_.CreateTable("fact");
    fact->AddColumn("fk", storage::ColType::kInt32);
    fact->AddColumn("x", storage::ColType::kInt32);
    fact->AddColumn("y", storage::ColType::kInt64);
    for (int i = 0; i < 100; ++i) {
      fact->column(0).Append(i % 10);
      fact->column(1).Append(i);
      fact->column(2).Append(i * 2);
    }
    storage::Table* dim = catalog_.CreateTable("dim");
    dim->AddColumn("k", storage::ColType::kInt32);
    dim->AddColumn("attr", storage::ColType::kInt32);
    for (int i = 0; i < 10; ++i) {
      dim->column(0).Append(i);
      dim->column(1).Append(i * 100);
    }
  }

  plan::QuerySpec Spec() {
    plan::QuerySpec q;
    q.name = "t";
    q.fact_table = "fact";
    q.fact_filter = plan::Gt(plan::Col("x"), plan::Lit(5));
    q.joins.push_back({"dim", nullptr, "k", {"attr"}, "fk"});
    q.aggs.push_back({plan::Col("y"), jit::AggFunc::kSum, "s"});
    return q;
  }

  storage::Catalog catalog_;
  sim::CostModel cm_ = sim::CostModel::Paper();
};

TEST_F(CompilerTest, ProbeInputColsAreLazyAndDeduplicated) {
  auto spec = Spec();
  QueryCompiler compiler(spec, catalog_, cm_);
  CompiledPipeline p = compiler.CompileProbe(nullptr);
  // Filter column first (loaded before the probe), then key, then agg input.
  ASSERT_EQ(p.input_cols.size(), 3u);
  EXPECT_EQ(p.input_cols[0].name, "x");
  EXPECT_EQ(p.input_cols[1].name, "fk");
  EXPECT_EQ(p.input_cols[2].name, "y");
  EXPECT_EQ(p.input_cols[0].width, 4u);
  EXPECT_EQ(p.input_cols[2].width, 8u);
}

TEST_F(CompilerTest, ProbeBindsJoinSlotsInOrder) {
  auto spec = Spec();
  spec.joins.push_back({"dim", nullptr, "k", {}, "fk"});
  spec.joins[1].build_rows_estimate = 2;  // keeps a fifth: probes first
  QueryCompiler compiler(spec, catalog_, cm_);
  CompiledPipeline p = compiler.CompileProbe(nullptr);
  EXPECT_EQ(p.ht_join_slots, (std::vector<int>{0, 1}));
  // The loops nest in plan::ProbeOrder; each probe reads its join's slot.
  std::vector<int> probed;
  for (const auto& instr : p.program.code) {
    if (instr.op == jit::OpCode::kHtProbeInit) probed.push_back(instr.c);
  }
  EXPECT_EQ(probed, plan::ProbeOrder(spec, catalog_, cm_));
  EXPECT_EQ(probed, (std::vector<int>{1, 0}));
}

TEST_F(CompilerTest, ProbeOrderRanksByAccessCostPerEliminatedRow) {
  // A 1700-byte cache threshold makes a `dim` hash table with a payload
  // column LLC-class and one without cache-class (JoinHtBytes at an estimate
  // of 2 rows: 66 entries of 12 vs 8 bytes plus 256 4-byte heads, 1816 vs
  // 1552 bytes).
  sim::CostModel cm = cm_;
  cm.near_bytes = 1700;
  auto join = [](uint64_t estimate, std::vector<std::string> payload) {
    plan::JoinSpec j{"dim", nullptr, "k", std::move(payload), "fk"};
    j.build_rows_estimate = estimate;
    return j;
  };
  ASSERT_EQ(plan::JoinHtBytes(join(2, {"attr"}), catalog_), 1816u);
  ASSERT_EQ(plan::JoinHtBytes(join(2, {}), catalog_), 1552u);
  auto spec = Spec();
  // Equally selective (a fifth of 10 rows): the LLC-class join moves behind.
  spec.joins = {join(2, {"attr"}), join(2, {})};
  EXPECT_EQ(plan::ProbeOrder(spec, catalog_, cm), (std::vector<int>{1, 0}));
  // An unfiltered join (s = 1) and one without an estimate go last, in spec
  // order, behind even an LLC-class join that keeps half the rows.
  spec.joins = {join(10, {}), join(0, {}), join(5, {"attr"})};
  EXPECT_EQ(plan::ProbeOrder(spec, catalog_, cm), (std::vector<int>{2, 0, 1}));
  // Ties keep spec order.
  spec.joins = {join(2, {}), join(2, {}), join(2, {"attr"}), join(2, {})};
  EXPECT_EQ(plan::ProbeOrder(spec, catalog_, cm), (std::vector<int>{0, 1, 3, 2}));
}

TEST_F(CompilerTest, ScalarReduceUsesLocalAccs) {
  auto spec = Spec();
  QueryCompiler compiler(spec, catalog_, cm_);
  CompiledPipeline p = compiler.CompileProbe(nullptr);
  EXPECT_EQ(p.program.n_local_accs, 1);
  EXPECT_EQ(p.agg_ht_slot, -1);
}

TEST_F(CompilerTest, GroupByAllocatesAggHtSlot) {
  auto spec = Spec();
  spec.group_by = {plan::Col("attr")};
  spec.expected_groups = 128;
  QueryCompiler compiler(spec, catalog_, cm_);
  CompiledPipeline p = compiler.CompileProbe(nullptr);
  EXPECT_EQ(p.agg_ht_slot, 1);  // after the single join slot
  EXPECT_EQ(p.n_group_vals, 1);
  EXPECT_EQ(p.groups_capacity, 128u);
  EXPECT_EQ(p.group_funcs[0], jit::AggFunc::kSum);
}

TEST_F(CompilerTest, BuildPipelineInsertsIntoSlotZero) {
  auto spec = Spec();
  QueryCompiler compiler(spec, catalog_, cm_);
  CompiledPipeline p = compiler.CompileBuild(0);
  EXPECT_EQ(p.ht_join_slots, (std::vector<int>{0}));
  ASSERT_GE(p.input_cols.size(), 2u);  // key + payload
  bool has_insert = false;
  for (const auto& instr : p.program.code) {
    has_insert |= instr.op == jit::OpCode::kHtInsert;
  }
  EXPECT_TRUE(has_insert);
}

TEST_F(CompilerTest, HtCapacityUsesEstimateWithHeadroom) {
  auto spec = Spec();
  // No estimate: the build table's rows.
  EXPECT_EQ(plan::JoinHtCapacity(spec.joins[0], catalog_), 10u);
  spec.joins[0].build_rows_estimate = 100;
  EXPECT_EQ(plan::JoinHtCapacity(spec.joins[0], catalog_), 100u * 13 / 10 + 64);
}

TEST_F(CompilerTest, GatherMergesWithCountAsSum) {
  auto spec = Spec();
  spec.aggs.push_back({nullptr, jit::AggFunc::kCount, "cnt"});
  QueryCompiler compiler(spec, catalog_, cm_);
  CompiledPipeline p = compiler.CompileGather();
  ASSERT_EQ(p.input_cols.size(), 2u);  // no group key: [s, cnt]
  EXPECT_EQ(p.program.n_local_accs, 2);
  EXPECT_EQ(p.program.local_acc_funcs[0], jit::AggFunc::kSum);
  EXPECT_EQ(p.program.local_acc_funcs[1], jit::AggFunc::kSum);  // COUNT merges as SUM
}

TEST_F(CompilerTest, GatherForGroupByReadsKeyColumn) {
  auto spec = Spec();
  spec.group_by = {plan::Col("attr")};
  QueryCompiler compiler(spec, catalog_, cm_);
  CompiledPipeline p = compiler.CompileGather();
  ASSERT_EQ(p.input_cols.size(), 2u);
  EXPECT_EQ(p.input_cols[0].name, "__group_key");
  EXPECT_EQ(p.agg_ht_slot, 0);
}

TEST_F(CompilerTest, FilterStageEmitsSurvivingFactColumns) {
  auto spec = Spec();
  QueryCompiler compiler(spec, catalog_, cm_);
  CompiledPipeline p = compiler.CompileFilterStage();
  // Needs fk (probe key) and y (agg input); x only feeds the filter.
  ASSERT_EQ(p.output_cols.size(), 2u);
  EXPECT_EQ(p.output_cols[0].name, "fk");
  EXPECT_EQ(p.output_cols[1].name, "y");
  bool tagged_emit = false;
  for (const auto& instr : p.program.code) {
    if (instr.op == jit::OpCode::kEmit) tagged_emit |= instr.d == 1;
  }
  EXPECT_TRUE(tagged_emit);
}

TEST_F(CompilerTest, StageBReadsStageASchema) {
  auto spec = Spec();
  QueryCompiler compiler(spec, catalog_, cm_);
  CompiledPipeline a = compiler.CompileFilterStage();
  CompiledPipeline b = compiler.CompileProbe(&a.output_cols);
  ASSERT_EQ(b.input_cols.size(), a.output_cols.size());
  for (size_t i = 0; i < b.input_cols.size(); ++i) {
    EXPECT_EQ(b.input_cols[i].name, a.output_cols[i].name);
  }
}

TEST_F(CompilerTest, MergeFuncMapping) {
  EXPECT_EQ(MergeFunc(jit::AggFunc::kSum), jit::AggFunc::kSum);
  EXPECT_EQ(MergeFunc(jit::AggFunc::kCount), jit::AggFunc::kSum);
  EXPECT_EQ(MergeFunc(jit::AggFunc::kMin), jit::AggFunc::kMin);
  EXPECT_EQ(MergeFunc(jit::AggFunc::kMax), jit::AggFunc::kMax);
}

}  // namespace
}  // namespace hetex::core
