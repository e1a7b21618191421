#include "jit/device_provider.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/system.h"

namespace hetex::jit {
namespace {

/// Table 1 parity: every provider method behaves per its device semantics while
/// the generated program stays identical (the paper's Fig. 3 property).
class ProviderTest : public ::testing::TestWithParam<bool> {  // param: is_gpu
 protected:
  ProviderTest() : system_(MakeOptions()) {
    provider_ = system_.MakeProvider(GetParam() ? sim::DeviceId::Gpu(0)
                                                : sim::DeviceId::Cpu(0));
  }
  static core::System::Options MakeOptions() {
    core::System::Options o;
    o.topology.gpu_sim_threads = 2;
    o.blocks.host_arena_blocks = 16;
    o.blocks.gpu_arena_blocks = 16;
    return o;
  }

  PipelineProgram SumProgram() {
    ProgramBuilder b;
    const int v = b.AllocReg();
    b.EmitOp(OpCode::kLoadCol, v, 0);
    const int acc = b.AllocLocalAcc(AggFunc::kSum);
    b.EmitOp(OpCode::kAggLocal, acc, v, static_cast<int>(AggFunc::kSum));
    PipelineProgram p = b.Finalize("provider-sum");
    HETEX_CHECK_OK(provider_->ConvertToMachineCode(&p));
    return p;
  }

  core::System system_;
  std::unique_ptr<DeviceProvider> provider_;
};

TEST_P(ProviderTest, DeviceIdentity) {
  EXPECT_EQ(provider_->type() == sim::DeviceType::kGpu, GetParam());
  EXPECT_EQ(provider_->device().is_gpu(), GetParam());
  EXPECT_EQ(provider_->mem_node(),
            system_.topology().LocalMemNode(provider_->device()));
}

TEST_P(ProviderTest, WorkerThreadsMatchParallelismModel) {
  if (GetParam()) {
    EXPECT_GT(provider_->WorkerThreads(), 1);  // kernel grid
  } else {
    EXPECT_EQ(provider_->WorkerThreads(), 1);  // single-threaded worker
  }
}

TEST_P(ProviderTest, AllocStateVarUsesLocalNode) {
  const uint64_t before = provider_->memory_manager().used();
  void* p = provider_->AllocStateVar(1 << 10);
  ASSERT_NE(p, nullptr);
  EXPECT_GT(provider_->memory_manager().used(), before);
  provider_->FreeStateVar(p);
  EXPECT_EQ(provider_->memory_manager().used(), before);
}

TEST_P(ProviderTest, BuffersComeFromLocalArena) {
  memory::Block* b = provider_->GetBuffer();
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->node, provider_->mem_node());
  provider_->ReleaseBuffer(b);
}

TEST_P(ProviderTest, ConvertToMachineCodeValidates) {
  ProgramBuilder b;
  b.EmitOp(OpCode::kEnd);
  PipelineProgram ok = b.Finalize("ok");
  EXPECT_TRUE(provider_->ConvertToMachineCode(&ok).ok());
  EXPECT_TRUE(ok.finalized);

  PipelineProgram bad;
  bad.code.push_back(Instr{OpCode::kJmp, 0, 99, 0, 0, 0, 0});
  bad.code.push_back(Instr{OpCode::kEnd, 0, 0, 0, 0, 0, 0});
  EXPECT_FALSE(provider_->ConvertToMachineCode(&bad).ok());
}

TEST_P(ProviderTest, ExecuteComputesCorrectSum) {
  PipelineProgram program = SumProgram();
  constexpr uint64_t kRows = 10000;
  std::vector<int32_t> data(kRows);
  int64_t expected = 0;
  for (uint64_t i = 0; i < kRows; ++i) {
    data[i] = static_cast<int32_t>(i % 100);
    expected += data[i];
  }
  ColumnBinding col{reinterpret_cast<const std::byte*>(data.data()), 4};

  int64_t instance_accs[kMaxLocalAccs] = {};
  auto* shared = static_cast<std::atomic<int64_t>*>(provider_->AllocStateVar(64));
  shared[0].store(0);

  ExecRequest req;
  req.cols = &col;
  req.n_cols = 1;
  req.rows = kRows;
  req.instance_accs = instance_accs;
  req.shared_accs = shared;
  req.earliest = 1.5;
  ExecResult result = provider_->Execute(program, req);

  const int64_t got = GetParam() ? shared[0].load() : instance_accs[0];
  EXPECT_EQ(got, expected);
  EXPECT_GT(result.end, 1.5);  // time moved forward from `earliest`
  EXPECT_EQ(result.stats.tuples, kRows);
  provider_->FreeStateVar(shared);
}

TEST_P(ProviderTest, AtomicCostsOnlyOnGpu) {
  PipelineProgram program = SumProgram();
  std::vector<int32_t> data(1000, 1);
  ColumnBinding col{reinterpret_cast<const std::byte*>(data.data()), 4};
  int64_t instance_accs[kMaxLocalAccs] = {};
  auto* shared = static_cast<std::atomic<int64_t>*>(provider_->AllocStateVar(64));
  shared[0].store(0);
  ExecRequest req;
  req.cols = &col;
  req.n_cols = 1;
  req.rows = 1000;
  req.instance_accs = instance_accs;
  req.shared_accs = shared;
  ExecResult result = provider_->Execute(program, req);
  if (GetParam()) {
    // Neighborhood leaders flush with worker-scoped atomics.
    EXPECT_GT(result.stats.atomics, 0u);
  } else {
    // Single thread per worker: atomics elided (Fig. 3).
    EXPECT_EQ(result.stats.atomics, 0u);
  }
  provider_->FreeStateVar(shared);
}

// Table 1's modeled cost: on an idle paper server one 64 Ki-row block of the
// sum costs exactly what the cost model charges. The CPU worker, alone on its
// socket, streams at min(core, socket) bandwidth with its atomics elided; the
// GPU kernel pays its launch latency and streams at device memory bandwidth.
// (43.69 µs and 9.573 µs at the paper calibration.)
TEST_P(ProviderTest, ExecuteChargesTheCostModel) {
  PipelineProgram program = SumProgram();
  constexpr uint64_t kRows = 64 * 1024;
  std::vector<int32_t> data(kRows, 3);
  ColumnBinding col{reinterpret_cast<const std::byte*>(data.data()), 4};
  int64_t instance_accs[kMaxLocalAccs] = {};
  auto* shared = static_cast<std::atomic<int64_t>*>(provider_->AllocStateVar(64));
  shared[0].store(0);
  ExecRequest req;
  req.cols = &col;
  req.n_cols = 1;
  req.rows = kRows;
  req.instance_accs = instance_accs;
  req.shared_accs = shared;
  const ExecResult result = provider_->Execute(program, req);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.stats.tuples, kRows);

  const sim::CostModel& cm = system_.cost_model();
  if (GetParam()) {
    EXPECT_DOUBLE_EQ(result.end, cm.kernel_launch_latency +
                                     cm.WorkCost(result.stats, cm.gpu, cm.gpu_mem_bw));
  } else {
    EXPECT_EQ(result.stats.atomics, 0u);
    EXPECT_DOUBLE_EQ(result.end,
                     cm.WorkCost(result.stats, cm.cpu,
                                 std::min(cm.cpu_core_bw, cm.cpu_socket_bw)));
  }
  provider_->FreeStateVar(shared);
}

INSTANTIATE_TEST_SUITE_P(CpuAndGpu, ProviderTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Gpu" : "Cpu";
                         });

TEST(CpuProviderConcurrency, FluidShareSlowsCrowdedSocket) {
  core::System system{core::System::Options{}};
  auto p1 = system.MakeProvider(sim::DeviceId::Cpu(0));
  auto p12 = system.MakeProvider(sim::DeviceId::Cpu(0));
  static_cast<CpuProvider&>(*p1).set_socket_concurrency(1);
  static_cast<CpuProvider&>(*p12).set_socket_concurrency(12);

  ProgramBuilder b;
  const int v = b.AllocReg();
  b.EmitOp(OpCode::kLoadCol, v, 0);
  const int acc = b.AllocLocalAcc(AggFunc::kSum);
  b.EmitOp(OpCode::kAggLocal, acc, v, static_cast<int>(AggFunc::kSum));
  PipelineProgram program = b.Finalize("share");
  HETEX_CHECK_OK(p1->ConvertToMachineCode(&program));

  std::vector<int64_t> data(100000, 1);
  ColumnBinding col{reinterpret_cast<const std::byte*>(data.data()), 8};
  int64_t accs[kMaxLocalAccs] = {};
  ExecRequest req;
  req.cols = &col;
  req.n_cols = 1;
  req.rows = data.size();
  req.instance_accs = accs;

  const double t1 = p1->Execute(program, req).end;
  const double t12 = p12->Execute(program, req).end;
  // 12 workers on a 45 GB/s socket: each sees 3.75 GB/s vs 6 GB/s solo.
  EXPECT_NEAR(t12 / t1, 6.0 / 3.75, 0.05);
}

}  // namespace
}  // namespace hetex::jit
