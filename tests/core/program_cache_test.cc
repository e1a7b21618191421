#include "core/program_cache.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace hetex::core {
namespace {

using test::TestEnv;

plan::CompiledPipeline MakePipeline(int64_t imm, uint32_t width = 8) {
  plan::CompiledPipeline p;
  jit::ProgramBuilder b;
  const int v = b.AllocReg();
  b.EmitOp(jit::OpCode::kLoadCol, v, 0);
  const int t = b.AllocReg();
  b.EmitOp(jit::OpCode::kConst, t, 0, 0, 0, imm);
  const int pred = b.AllocReg();
  b.EmitOp(jit::OpCode::kCmpLt, pred, v, t);
  b.EmitOp(jit::OpCode::kFilter, pred);
  const int acc = b.AllocLocalAcc(jit::AggFunc::kCount);
  b.EmitOp(jit::OpCode::kAggLocal, acc, v,
           static_cast<int>(jit::AggFunc::kCount));
  p.program = b.Finalize("cache.test[" + std::to_string(imm) + "]");
  p.input_cols.push_back({"v", width});
  return p;
}

TEST(ProgramCache, ThirtyTwoInstancesFinalizeOnce) {
  TestEnv env(2'000);
  ProgramCache cache;
  auto provider = env.system->MakeProvider(sim::DeviceId::Cpu(0));
  const plan::CompiledPipeline pipeline = MakePipeline(42);

  // A 32-instance worker group: every instance asks for the same span program.
  std::shared_ptr<const jit::PipelineProgram> first;
  for (int i = 0; i < 32; ++i) {
    auto r = cache.GetOrCompile(*provider, pipeline);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (i == 0) {
      first = r.value();
    } else {
      EXPECT_EQ(first.get(), r.value().get());  // the same compiled program
    }
  }
  EXPECT_TRUE(first->finalized);
  EXPECT_EQ(first->tier, jit::ExecTier::kVectorized);
  const auto c = cache.counters(sim::DeviceType::kCpu);
  EXPECT_EQ(c.misses, 1u);  // finalized exactly once
  EXPECT_EQ(c.hits, 31u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ProgramCache, PerDeviceKindEntriesAndCounters) {
  TestEnv env(2'000);
  ProgramCache cache;
  auto cpu = env.system->MakeProvider(sim::DeviceId::Cpu(0));
  auto gpu = env.system->MakeProvider(sim::DeviceId::Gpu(0));
  const plan::CompiledPipeline pipeline = MakePipeline(7);

  ASSERT_TRUE(cache.GetOrCompile(*cpu, pipeline).ok());
  ASSERT_TRUE(cache.GetOrCompile(*gpu, pipeline).ok());
  ASSERT_TRUE(cache.GetOrCompile(*gpu, pipeline).ok());

  EXPECT_EQ(cache.counters(sim::DeviceType::kCpu).misses, 1u);
  EXPECT_EQ(cache.counters(sim::DeviceType::kCpu).hits, 0u);
  EXPECT_EQ(cache.counters(sim::DeviceType::kGpu).misses, 1u);
  EXPECT_EQ(cache.counters(sim::DeviceType::kGpu).hits, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ProgramCache, DistinctProgramsAndSchemasGetDistinctEntries) {
  TestEnv env(2'000);
  ProgramCache cache;
  auto provider = env.system->MakeProvider(sim::DeviceId::Cpu(0));

  ASSERT_TRUE(cache.GetOrCompile(*provider, MakePipeline(1)).ok());
  ASSERT_TRUE(cache.GetOrCompile(*provider, MakePipeline(2)).ok());
  // Same code, different binding schema (column width) — a distinct entry.
  ASSERT_TRUE(cache.GetOrCompile(*provider, MakePipeline(1, /*width=*/4)).ok());
  ASSERT_TRUE(cache.GetOrCompile(*provider, MakePipeline(1)).ok());  // hit

  const auto c = cache.counters(sim::DeviceType::kCpu);
  EXPECT_EQ(c.misses, 3u);
  EXPECT_EQ(c.hits, 1u);
}

TEST(ProgramCache, LiteralOperandModeGetsItsOwnEntry) {
  // `v < r0` and `v < 0` differ only in the literal-mode bit: two entries.
  TestEnv env(2'000);
  ProgramCache cache;
  auto provider = env.system->MakeProvider(sim::DeviceId::Cpu(0));
  auto make = [](bool lit) {
    plan::CompiledPipeline p;
    jit::ProgramBuilder b;
    const int v = b.AllocReg();
    b.EmitOp(jit::OpCode::kLoadCol, v, 0);
    const int pred = b.AllocReg();
    if (lit) {
      b.EmitLit(jit::OpCode::kCmpLt, pred, v, 0);
    } else {
      b.EmitOp(jit::OpCode::kCmpLt, pred, v, v);
    }
    b.EmitOp(jit::OpCode::kFilter, pred);
    p.program = b.Finalize("cache.test[mode]");
    p.input_cols.push_back({"v", 8});
    return p;
  };
  const auto reg = cache.GetOrCompile(*provider, make(false));
  const auto lit = cache.GetOrCompile(*provider, make(true));
  ASSERT_TRUE(reg.ok() && lit.ok());
  EXPECT_NE(reg.value().get(), lit.value().get());
  EXPECT_FALSE(reg.value()->code[1].lit);
  EXPECT_TRUE(lit.value()->code[1].lit);
  EXPECT_EQ(cache.counters(sim::DeviceType::kCpu).misses, 2u);
}

TEST(ProgramCache, ValidationFailureIsNotCached) {
  TestEnv env(2'000);
  ProgramCache cache;
  auto provider = env.system->MakeProvider(sim::DeviceId::Cpu(0));
  plan::CompiledPipeline bad = MakePipeline(1);
  bad.program.code.pop_back();  // drop kEnd
  EXPECT_FALSE(cache.GetOrCompile(*provider, bad).ok());
  EXPECT_EQ(cache.size(), 0u);
}

/// Repeated ExecutePlan runs reuse the system-resident cache: the second run of
/// the same query adds no misses (no re-finalization of identical spans).
TEST(ProgramCache, RepeatedQueryRunsHitTheSystemCache) {
  TestEnv env(10'000);
  const auto spec = env.ssb->Query(1, 1);
  const auto policy = TestEnv::Tune(plan::ExecPolicy::CpuOnly(3));

  auto r1 = env.Run(spec, policy);
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  const auto after_first = env.system->program_cache().counters(sim::DeviceType::kCpu);
  EXPECT_GT(after_first.misses, 0u);
  EXPECT_GT(after_first.hits, 0u);  // multi-instance groups share finalization

  auto r2 = env.Run(spec, policy);
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r2.rows, r1.rows);
  const auto after_second = env.system->program_cache().counters(sim::DeviceType::kCpu);
  EXPECT_EQ(after_second.misses, after_first.misses);  // all hits, no re-finalize
  EXPECT_GT(after_second.hits, after_first.hits);
}

}  // namespace
}  // namespace hetex::core
