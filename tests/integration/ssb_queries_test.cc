#include <gtest/gtest.h>

#include "test_util.h"

namespace hetex {
namespace {

using plan::ExecPolicy;
using test::TestEnv;

/// All 13 SSB queries under each execution policy, against the reference
/// evaluator. Parameterized over (flight, index, mode).
struct SsbCase {
  int flight;
  int idx;
  int mode;  // 0 cpu, 1 gpu, 2 hybrid
};

class SsbQueryTest : public ::testing::TestWithParam<SsbCase> {
 protected:
  static TestEnv* env() {
    static TestEnv* instance = new TestEnv(30'000);
    return instance;
  }
};

TEST_P(SsbQueryTest, MatchesReference) {
  const auto& c = GetParam();
  const auto spec = env()->ssb->Query(c.flight, c.idx);
  const auto expected = env()->Reference(spec);
  ExecPolicy policy = c.mode == 0   ? ExecPolicy::CpuOnly(3)
                      : c.mode == 1 ? ExecPolicy::GpuOnly()
                                    : ExecPolicy::Hybrid(3);
  const auto result = env()->Run(spec, TestEnv::Tune(policy));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.rows, expected) << spec.name;
  EXPECT_GT(result.modeled_seconds, 0.0);
}

std::vector<SsbCase> AllCases() {
  std::vector<SsbCase> cases;
  const int flights[4] = {3, 3, 4, 3};
  for (int f = 1; f <= 4; ++f) {
    for (int i = 1; i <= flights[f - 1]; ++i) {
      for (int mode = 0; mode < 3; ++mode) cases.push_back({f, i, mode});
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<SsbCase>& info) {
  static const char* kModes[3] = {"Cpu", "Gpu", "Hybrid"};
  return "Q" + std::to_string(info.param.flight) + std::to_string(info.param.idx) +
         kModes[info.param.mode];
}

INSTANTIATE_TEST_SUITE_P(AllQueriesAllModes, SsbQueryTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

TEST(SsbData, GeneratorShape) {
  TestEnv env(5'000);
  auto& catalog = env.system->catalog();
  EXPECT_EQ(catalog.at("date").rows(), 7 * 365u);  // 7 years (no leap days)
  EXPECT_GE(catalog.at("lineorder").rows(), 5'000u);
  EXPECT_GT(catalog.at("customer").rows(), 0u);
  // Brand hierarchy: brand codes decode to category-consistent strings.
  const auto& brand_dict = env.ssb->brand_dict();
  EXPECT_EQ(brand_dict.size(), 1000);
  EXPECT_EQ(brand_dict.Value(brand_dict.Code("MFGR#2221")), "MFGR#2221");
}

TEST(SsbData, DictionariesTranslatePredicates) {
  TestEnv env(2'000);
  // Q2.2's range: padded brands make lexicographic order numeric.
  const auto& d = env.ssb->brand_dict();
  const int lo = d.Code("MFGR#2221");
  const int hi = d.Code("MFGR#2228");
  EXPECT_EQ(hi - lo, 7);
  for (int c = lo; c <= hi; ++c) {
    EXPECT_EQ(d.Value(c).substr(0, 7), "MFGR#22");
  }
}

TEST(SsbData, DeterministicAcrossRuns) {
  storage::Catalog c1, c2;
  ssb::Ssb::Options opts;
  opts.lineorder_rows = 2'000;
  ssb::Ssb s1(opts, &c1), s2(opts, &c2);
  const auto& l1 = c1.at("lineorder");
  const auto& l2 = c2.at("lineorder");
  ASSERT_EQ(l1.rows(), l2.rows());
  for (uint64_t r = 0; r < l1.rows(); r += 97) {
    EXPECT_EQ(l1.column("lo_revenue").At(r), l2.column("lo_revenue").At(r));
  }
}

TEST(SsbData, Q22FlaggedAsStringRange) {
  TestEnv env(2'000);
  EXPECT_TRUE(env.ssb->Query(2, 2).uses_string_range_predicate);
  EXPECT_FALSE(env.ssb->Query(2, 1).uses_string_range_predicate);
  EXPECT_FALSE(env.ssb->Query(4, 3).uses_string_range_predicate);
}

}  // namespace
}  // namespace hetex
