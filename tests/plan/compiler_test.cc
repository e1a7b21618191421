#include "plan/compiler.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>

#include "jit/codegen.h"
#include "jit/interpreter.h"
#include "jit/kernel_cache.h"
#include "jit/vectorizer.h"
#include "memory/memory_manager.h"
#include "sim/cost_model.h"
#include "storage/table.h"

namespace hetex::plan {
namespace {

/// Adds table `name` with int32 columns `cols` holding `rows` (row-major);
/// `unique_key` declares the first column unique.
void AddTable(storage::Catalog* catalog, const std::string& name,
              const std::vector<std::string>& cols,
              const std::vector<std::vector<int64_t>>& rows, bool unique_key) {
  storage::Table* t = catalog->CreateTable(name);
  for (const auto& c : cols) t->AddColumn(c, storage::ColType::kInt32);
  t->column(0).set_unique(unique_key);
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      t->column(static_cast<int>(c)).Append(row[c]);
    }
  }
}

/// A compiled fact pipeline's run over its table's staged rows.
struct FactRun {
  sim::CostStats stats;
  int64_t accs[jit::kMaxLocalAccs] = {};
  std::vector<std::pair<int64_t, int64_t>> groups;  ///< (key, first agg)
};

/// Runs `spec`'s fused fact pipeline over the fact table in one tier (0 row
/// interpreter, 1 vectorized, 2 native), each join slot holding its build
/// rows that pass the build filter.
FactRun RunFactPipeline(const plan::QuerySpec& spec, const storage::Catalog& catalog,
                        const sim::CostModel& cm, int tier) {
  QueryCompiler compiler(spec, catalog, cm);
  CompiledPipeline cp = compiler.CompileProbe();
  jit::PipelineProgram program = cp.program;
  program.n_input_cols = static_cast<int>(cp.input_cols.size());
  for (const auto& c : cp.input_cols) program.input_widths.push_back(c.width);
  program.finalized = true;
  if (tier >= 1) {
    program.vec = jit::TryVectorize(program).program;
    EXPECT_NE(program.vec, nullptr);
    program.tier = jit::ExecTier::kVectorized;
  }
  std::unique_ptr<jit::KernelCache> cache;
  if (tier == 2) {
    jit::CodegenOptions opts;
    opts.enabled = true;
    opts.async = false;
    opts.kernel_dir = (std::filesystem::temp_directory_path() /
                       ("hetex-compiler-ops-" + std::to_string(::getpid())))
                          .string();
    cache = std::make_unique<jit::KernelCache>(opts);
    const jit::GenerateResult gen = jit::GenerateSource(program);
    EXPECT_FALSE(gen.source.empty()) << gen.reason;
    program.native = cache->GetOrBuild(gen, program.label);
    EXPECT_TRUE(program.native->ready()) << program.native->error;
  }

  memory::MemoryManager mm(0, 1ull << 26);
  std::vector<std::unique_ptr<jit::JoinHashTable>> hts;
  void* slots[jit::kMaxHtSlots] = {};
  for (size_t j = 0; j < spec.joins.size(); ++j) {
    const plan::JoinSpec& join = spec.joins[j];
    const storage::Table& dim = catalog.at(join.build_table);
    hts.push_back(std::make_unique<jit::JoinHashTable>(
        &mm, plan::JoinHtLayout(join, catalog)));
    for (uint64_t r = 0; r < dim.rows(); ++r) {
      const plan::RowGetter row = [&](const std::string& c) {
        return dim.column(c).At(r);
      };
      if (join.build_filter != nullptr && join.build_filter->Eval(row) == 0) continue;
      std::vector<int64_t> payload;
      for (const auto& c : join.payload) payload.push_back(row(c));
      hts.back()->Insert(row(join.build_key), payload.data());
    }
    slots[j] = hts.back().get();
  }
  std::unique_ptr<jit::AggHashTable> groups;
  if (cp.agg_ht_slot >= 0) {
    groups = std::make_unique<jit::AggHashTable>(&mm, cp.groups_capacity,
                                                 cp.n_group_vals, cp.group_funcs);
    slots[cp.agg_ht_slot] = groups.get();
  }

  const storage::Table& fact = catalog.at(spec.fact_table);
  std::vector<jit::ColumnBinding> cols;
  for (const auto& c : cp.input_cols) {
    cols.push_back({fact.column(c.name).raw(), c.width});
  }
  FactRun out;
  jit::ExecCtx ctx;
  ctx.cols = cols.data();
  ctx.n_cols = static_cast<int>(cols.size());
  ctx.local_accs = out.accs;
  ctx.ht_slots = slots;
  ctx.stats = &out.stats;
  const Status st = jit::Run(program, ctx, fact.rows());
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (tier == 2) std::filesystem::remove_all(cache->options().kernel_dir);
  if (groups != nullptr) {
    groups->ForEach([&](int64_t key, const int64_t* acc) {
      out.groups.push_back({key, acc[0]});
    });
    std::sort(out.groups.begin(), out.groups.end());
  }
  return out;
}

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
  CompiledPipeline p = compiler.CompileProbe();
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
  CompiledPipeline p = compiler.CompileProbe();
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

// Q1.1's fused fact pipeline: both predicate columns load, then the three
// literal conjuncts each filter (cmp + filter), then the date probe (key
// load + probe init; a miss branches to kEnd), and per match the price
// load, the multiply and the fold. A row's ops, by the path it takes:
//   fails lo_discount >= 1          2 + 2             =  4
//   fails lo_discount <= 3          2 + 2 + 2         =  6
//   fails lo_quantity < 25          2 + 2 + 2 + 2     =  8
//   passes, misses the date         8 + 2 + kEnd      = 11
//   passes, matches                 8 + 2 + 3 + kEnd  = 14
TEST_F(CompilerTest, Q11FactPipelineOpsPerRowAreExactInEveryTier) {
  AddTable(&catalog_, "date", {"d_datekey", "d_year"},
           {{19930101, 1993}, {19940101, 1994}}, /*unique_key=*/true);
  // lo_orderdate, lo_discount, lo_quantity, lo_extendedprice: one row per path.
  AddTable(&catalog_, "lineorder",
           {"lo_orderdate", "lo_discount", "lo_quantity", "lo_extendedprice"},
           {{19930101, 0, 10, 100},
            {19930101, 5, 10, 100},
            {19930101, 2, 30, 100},
            {19940101, 2, 10, 100},
            {19930101, 2, 10, 300}},
           /*unique_key=*/false);
  plan::QuerySpec q;
  q.name = "Q1.1";
  q.fact_table = "lineorder";
  q.joins.push_back({"date", plan::Eq(plan::Col("d_year"), plan::Lit(1993)),
                     "d_datekey", {}, "lo_orderdate"});
  q.fact_filter = plan::And(plan::Between(plan::Col("lo_discount"), 1, 3),
                            plan::Lt(plan::Col("lo_quantity"), plan::Lit(25)));
  q.aggs.push_back({plan::Mul(plan::Col("lo_extendedprice"), plan::Col("lo_discount")),
                    jit::AggFunc::kSum, "revenue"});
  q.expected_groups = 1;

  QueryCompiler compiler(q, catalog_, cm_);
  const CompiledPipeline cp = compiler.CompileProbe();
  int filters = 0, literals = 0, consts = 0, iter_nexts = 0;
  for (const auto& in : cp.program.code) {
    filters += in.op == jit::OpCode::kFilter;
    literals += in.lit;
    consts += in.op == jit::OpCode::kConst;
    iter_nexts += in.op == jit::OpCode::kHtIterNext;
  }
  EXPECT_EQ(filters, 3);
  EXPECT_EQ(literals, 3);
  EXPECT_EQ(consts, 0);
  EXPECT_EQ(iter_nexts, 0);  // d_datekey is unique

  for (int tier = 0; tier < 3; ++tier) {
    const FactRun r = RunFactPipeline(q, catalog_, cm_, tier);
    EXPECT_EQ(r.stats.tuples, 5u) << "tier " << tier;
    EXPECT_EQ(r.stats.ops, 4u + 6 + 8 + 11 + 14) << "tier " << tier;
    EXPECT_EQ(r.accs[0], 300 * 2) << "tier " << tier;
  }
}

// Q4.1's fused fact pipeline nests four unique probes (customer, supplier,
// part, date: spec order, as no join carries an estimate), none with an
// iter-next. A row's ops, by the probe it stops at (key load + probe init
// each; customer and date also load their payload; a miss branches to kEnd):
//   misses customer    2 + kEnd                        =  3
//   misses supplier    3 + 2 + kEnd                    =  6
//   misses part        5 + 2 + kEnd                    =  8
//   misses date        7 + 2 + kEnd                    = 10
//   matches all four   7 + 3 + group key (shl, add) + profit (2 loads,
//                      sub) + group-by fold + kEnd    = 17
// The fold's one value is its own register window: no copy.
TEST_F(CompilerTest, Q41FactPipelineOpsPerRowAreExactInEveryTier) {
  constexpr int64_t kAmerica = 1, kEurope = 3, kMfgr1 = 0, kMfgr5 = 4;
  AddTable(&catalog_, "customer", {"c_custkey", "c_region", "c_nation"},
           {{1, kAmerica, 7}, {2, kEurope, 17}}, /*unique_key=*/true);
  AddTable(&catalog_, "supplier", {"s_suppkey", "s_region"},
           {{1, kAmerica}, {2, kEurope}}, /*unique_key=*/true);
  AddTable(&catalog_, "part", {"p_partkey", "p_mfgr"}, {{1, kMfgr1}, {2, kMfgr5}},
           /*unique_key=*/true);
  AddTable(&catalog_, "date", {"d_datekey", "d_year"}, {{19970101, 1997}},
           /*unique_key=*/true);
  AddTable(&catalog_, "lineorder",
           {"lo_custkey", "lo_suppkey", "lo_partkey", "lo_orderdate", "lo_revenue",
            "lo_supplycost"},
           {{2, 1, 1, 19970101, 50, 10},
            {1, 2, 1, 19970101, 50, 10},
            {1, 1, 2, 19970101, 50, 10},
            {1, 1, 1, 19980101, 50, 10},
            {1, 1, 1, 19970101, 50, 10}},
           /*unique_key=*/false);
  plan::QuerySpec q;
  q.name = "Q4.1";
  q.fact_table = "lineorder";
  q.joins.push_back({"customer", plan::Eq(plan::Col("c_region"), plan::Lit(kAmerica)),
                     "c_custkey", {"c_nation"}, "lo_custkey"});
  q.joins.push_back({"supplier", plan::Eq(plan::Col("s_region"), plan::Lit(kAmerica)),
                     "s_suppkey", {}, "lo_suppkey"});
  q.joins.push_back({"part",
                     plan::Or(plan::Eq(plan::Col("p_mfgr"), plan::Lit(kMfgr1)),
                              plan::Eq(plan::Col("p_mfgr"), plan::Lit(kMfgr1 + 1))),
                     "p_partkey", {}, "lo_partkey"});
  q.joins.push_back({"date", nullptr, "d_datekey", {"d_year"}, "lo_orderdate"});
  q.group_by = {plan::Col("d_year"), plan::Col("c_nation")};
  q.aggs.push_back({plan::Sub(plan::Col("lo_revenue"), plan::Col("lo_supplycost")),
                    jit::AggFunc::kSum, "profit"});
  q.expected_groups = 64;

  QueryCompiler compiler(q, catalog_, cm_);
  const CompiledPipeline cp = compiler.CompileProbe();
  std::vector<int> probed;
  int iter_nexts = 0;
  for (const auto& in : cp.program.code) {
    if (in.op == jit::OpCode::kHtProbeInit) probed.push_back(in.c);
    iter_nexts += in.op == jit::OpCode::kHtIterNext;
  }
  EXPECT_EQ(probed, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(iter_nexts, 0);

  for (int tier = 0; tier < 3; ++tier) {
    const FactRun r = RunFactPipeline(q, catalog_, cm_, tier);
    EXPECT_EQ(r.stats.tuples, 5u) << "tier " << tier;
    EXPECT_EQ(r.stats.ops, 3u + 6 + 8 + 10 + 17) << "tier " << tier;
    const int64_t key = (int64_t{1997} << plan::kGroupKeyBits) + 7;
    EXPECT_EQ(r.groups, (std::vector<std::pair<int64_t, int64_t>>{{key, 40}}))
        << "tier " << tier;
  }
}

// An insert, fold or emit takes its values as one register window. Values
// already in consecutive registers — a lone value, or values generated one
// after another into one register each — are used in place; only scattered
// values are copied, one kShl by 0 each.
TEST_F(CompilerTest, WindowCopiesOnlyScatteredValues) {
  auto copies = [](const CompiledPipeline& p) {
    int n = 0;
    for (const auto& in : p.program.code) {
      n += in.op == jit::OpCode::kShl && in.imm == 0;
    }
    return n;
  };
  auto spec = Spec();
  spec.group_by = {plan::Col("attr")};
  spec.aggs.push_back({nullptr, jit::AggFunc::kCount, "n"});
  {
    QueryCompiler compiler(spec, catalog_, cm_);
    // The build inserts one payload value (attr).
    EXPECT_EQ(copies(compiler.CompileBuild(0)), 0);
    // The fold's values: y's load, then COUNT's literal 1.
    EXPECT_EQ(copies(compiler.CompileProbe()), 0);
    // The gather loads the group key, then each partial in order.
    EXPECT_EQ(copies(compiler.CompileGather()), 0);
  }
  // A filter on y loads it with x, ahead of the comparisons: the fold's
  // window [y, 1] is scattered.
  spec.fact_filter = plan::And(plan::Gt(plan::Col("x"), plan::Lit(5)),
                               plan::Gt(plan::Col("y"), plan::Lit(0)));
  QueryCompiler compiler(spec, catalog_, cm_);
  EXPECT_EQ(copies(compiler.CompileProbe()), 2);
}

TEST_F(CompilerTest, ScalarReduceUsesLocalAccs) {
  auto spec = Spec();
  QueryCompiler compiler(spec, catalog_, cm_);
  CompiledPipeline p = compiler.CompileProbe();
  EXPECT_EQ(p.program.n_local_accs, 1);
  EXPECT_EQ(p.agg_ht_slot, -1);
}

TEST_F(CompilerTest, GroupByAllocatesAggHtSlot) {
  auto spec = Spec();
  spec.group_by = {plan::Col("attr")};
  spec.expected_groups = 128;
  QueryCompiler compiler(spec, catalog_, cm_);
  CompiledPipeline p = compiler.CompileProbe();
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

TEST_F(CompilerTest, MergeFuncMapping) {
  EXPECT_EQ(MergeFunc(jit::AggFunc::kSum), jit::AggFunc::kSum);
  EXPECT_EQ(MergeFunc(jit::AggFunc::kCount), jit::AggFunc::kSum);
  EXPECT_EQ(MergeFunc(jit::AggFunc::kMin), jit::AggFunc::kMin);
  EXPECT_EQ(MergeFunc(jit::AggFunc::kMax), jit::AggFunc::kMax);
}

}  // namespace
}  // namespace hetex::plan
