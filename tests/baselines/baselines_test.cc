#include <gtest/gtest.h>

#include "baselines/dbms_c.h"
#include "baselines/dbms_g.h"
#include "test_util.h"

namespace hetex::baselines {
namespace {

using test::TestEnv;

class BaselinesTest : public ::testing::Test {
 protected:
  static TestEnv* env() {
    static TestEnv* instance = new TestEnv(25'000);
    return instance;
  }
};

TEST_F(BaselinesTest, OpStatsCardinalitiesConsistent) {
  const auto spec = env()->ssb->Query(2, 1);
  OpStats st = EvaluateWithStats(spec, env()->system->catalog());
  EXPECT_EQ(st.fact_rows, env()->system->catalog().at("lineorder").rows());
  EXPECT_EQ(st.after_filter, st.fact_rows);  // Q2.1 has no fact filter
  ASSERT_EQ(st.probe_inputs.size(), 3u);
  // Selective part join narrows the pipeline monotonically.
  EXPECT_LE(st.probe_outputs[0], st.probe_inputs[0]);
  EXPECT_EQ(st.probe_inputs[1], st.probe_outputs[0]);
  EXPECT_EQ(st.agg_inputs, st.probe_outputs[2]);
  EXPECT_EQ(st.groups, st.rows.size());
}

TEST_F(BaselinesTest, OpStatsRowsMatchReference) {
  for (const auto& spec : {env()->ssb->Query(1, 1), env()->ssb->Query(3, 2)}) {
    OpStats st = EvaluateWithStats(spec, env()->system->catalog());
    EXPECT_EQ(st.rows, env()->Reference(spec)) << spec.name;
  }
}

TEST_F(BaselinesTest, DbmsCMatchesReferenceOnAllQueries) {
  DbmsC engine(env()->system.get());
  for (const auto& spec : env()->ssb->AllQueries()) {
    auto r = engine.Execute(spec);
    ASSERT_TRUE(r.status.ok()) << spec.name;
    EXPECT_EQ(r.rows, env()->Reference(spec)) << spec.name;
    EXPECT_GT(r.modeled_seconds, 0.0);
  }
}

TEST_F(BaselinesTest, DbmsGMatchesReferenceWhereSupported) {
  DbmsG engine(env()->system.get());
  for (const auto& spec : env()->ssb->AllQueries()) {
    auto r = engine.Execute(spec);
    if (spec.uses_string_range_predicate) continue;  // checked below
    ASSERT_TRUE(r.status.ok()) << spec.name << ": " << r.status.ToString();
    EXPECT_EQ(r.rows, env()->Reference(spec)) << spec.name;
  }
}

TEST_F(BaselinesTest, DbmsGRejectsStringRangePredicates) {
  DbmsG engine(env()->system.get());
  auto r = engine.Execute(env()->ssb->Query(2, 2));
  EXPECT_EQ(r.status.code(), StatusCode::kUnsupported);
}

TEST_F(BaselinesTest, DbmsGQ43FailsOnlyWhenWorkingSetExceedsDevice) {
  const auto q43 = env()->ssb->Query(4, 3);
  // Default test topology: 1 GB per GPU, tiny working set -> runs.
  DbmsG roomy(env()->system.get());
  EXPECT_TRUE(roomy.Execute(q43).status.ok());

  // Shrink device memory below the working set: cardinality estimation OOMs.
  core::System::Options small;
  small.topology.gpu_capacity = 64 << 10;
  core::System tiny_system(small);
  ssb::Ssb::Options opts;
  opts.lineorder_rows = 25'000;
  opts.scale = 0.002;
  ssb::Ssb tiny_ssb(opts, &tiny_system.catalog());
  for (const char* t : {"lineorder", "date", "customer", "supplier", "part"}) {
    ASSERT_TRUE(tiny_system.catalog()
                    .at(t)
                    .Place(tiny_system.HostNodes(), &tiny_system.memory())
                    .ok());
  }
  DbmsG cramped(&tiny_system);
  auto r = cramped.Execute(tiny_ssb.Query(4, 3));
  EXPECT_EQ(r.status.code(), StatusCode::kOutOfMemory);
  // Q4.2 (small group domain) still runs in the same regime.
  EXPECT_TRUE(cramped.Execute(tiny_ssb.Query(4, 2)).status.ok());
}

TEST_F(BaselinesTest, DbmsGResidentDataSkipsTransferTime) {
  // A scan of 4-byte measures: streaming it over PCIe outlasts its kernels.
  const auto spec = test::WideMeasureScan(*env()->ssb, env()->system.get());
  OpStats st = EvaluateWithStats(spec, env()->system->catalog());
  DbmsGOptions resident;
  resident.data_on_gpu = true;
  DbmsG on_gpu(env()->system.get(), resident);
  DbmsG streaming(env()->system.get());
  EXPECT_LT(on_gpu.Execute(spec, &st).modeled_seconds,
            streaming.Execute(spec, &st).modeled_seconds);
}

TEST_F(BaselinesTest, DbmsCScalesWithWorkers) {
  const auto spec = env()->ssb->Query(1, 1);
  OpStats st = EvaluateWithStats(spec, env()->system->catalog());
  DbmsCOptions one;
  one.workers = 1;
  one.startup_seconds = 0;
  DbmsCOptions many;
  many.workers = 8;
  many.startup_seconds = 0;
  const double t1 = DbmsC(env()->system.get(), one).Execute(spec, &st).modeled_seconds;
  const double t8 = DbmsC(env()->system.get(), many).Execute(spec, &st).modeled_seconds;
  EXPECT_GT(t1 / t8, 3.0);  // near-linear until the socket saturates
}

TEST_F(BaselinesTest, ReducedOccupancySlowsDbmsG) {
  const auto spec = env()->ssb->Query(2, 1);
  OpStats st = EvaluateWithStats(spec, env()->system->catalog());
  DbmsGOptions full;
  full.occupancy = 1.0;
  full.data_on_gpu = true;
  full.startup_seconds = 0;
  DbmsGOptions half;
  half.occupancy = 0.5;
  half.data_on_gpu = true;
  half.startup_seconds = 0;
  EXPECT_GT(DbmsG(env()->system.get(), half).Execute(spec, &st).modeled_seconds,
            DbmsG(env()->system.get(), full).Execute(spec, &st).modeled_seconds);
}

}  // namespace
}  // namespace hetex::baselines
