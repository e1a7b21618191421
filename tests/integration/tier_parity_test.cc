#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "jit/codegen.h"
#include "jit/kernel_cache.h"
#include "jit/vectorizer.h"
#include "test_util.h"

namespace hetex {
namespace {

/// Differential tier suite: every SSB query, fused and split, on CPU and GPU
/// placements, executed through the row interpreter (tier 0 forced), the
/// vectorized batch backend (tier 1 forced) and the native codegen backend
/// (tier 2: auto tiering with a kernel cache attached), asserting identical
/// query results AND identical CostStats across all three — the invariant that
/// makes the faster tiers safe: the simulation is unchanged, only the harness
/// is faster.
///
/// Placements are deterministic (DOP-1 stages, a single GPU simulated by one
/// worker thread, round-robin routing) so the runs see identical block
/// streams; any stats divergence is a tier bug, not scheduling noise. The
/// shared-build mode runs two workers on the one socket: both fill the
/// socket's replica, so every insert pays the bucket-head CAS in all tiers.
/// The hybrid mode (one CPU worker plus the GPU) filters each filtered
/// dimension in a build-side filter stage and builds both replicas from its
/// packed survivors.
struct ParityEnv {
  explicit ParityEnv(jit::TierPolicy policy, bool codegen = false) {
    core::System::Options opts;
    opts.topology.num_sockets = 1;
    opts.topology.cores_per_socket = 2;
    opts.topology.num_gpus = 1;
    opts.topology.gpu_sim_threads = 1;  // sequential logical threads
    opts.topology.host_capacity_per_socket = 4ull << 30;
    opts.topology.gpu_capacity = 1ull << 30;
    opts.blocks.block_bytes = 64 << 10;
    opts.blocks.host_arena_blocks = 256;
    opts.blocks.gpu_arena_blocks = 128;
    opts.tier_policy = policy;
    opts.codegen.enabled = codegen;
    if (codegen) {
      // Synchronous compiles into a per-process directory: every pipeline the
      // matrix touches really executes natively (no pending-tier serving), and
      // parallel test runs cannot race on each other's objects.
      opts.codegen.async = false;
      opts.codegen.kernel_dir = KernelDir();
    }
    system = std::make_unique<core::System>(opts);

    ssb::Ssb::Options ssb_opts;
    ssb_opts.lineorder_rows = 20'000;
    ssb_opts.scale = 0.002;
    ssb = std::make_unique<ssb::Ssb>(ssb_opts, &system->catalog());
    for (const char* name : {"lineorder", "date", "customer", "supplier", "part"}) {
      HETEX_CHECK_OK(
          system->catalog().at(name).Place(system->HostNodes(), &system->memory()));
    }
  }

  static const std::string& KernelDir() {
    static const std::string dir = [] {
      const std::string d = (std::filesystem::temp_directory_path() /
                             ("hetex-parity-kernels-" +
                              std::to_string(static_cast<long>(::getpid()))))
                                .string();
      std::filesystem::remove_all(d);
      return d;
    }();
    return dir;
  }

  core::QueryResult Run(const plan::QuerySpec& spec, plan::ExecPolicy policy) {
    policy.block_rows = 4096;
    policy.load_balance = false;  // deterministic round-robin routing
    core::QueryExecutor executor(system.get());
    return executor.Execute(spec, policy);
  }

  std::unique_ptr<core::System> system;
  std::unique_ptr<ssb::Ssb> ssb;
};

struct ParityCase {
  int flight;
  int idx;
  int mode;  // 0 cpu-fused, 1 cpu-split, 2 gpu-fused, 3 gpu-split,
             // 4 cpu-fused with a two-writer shared build,
             // 5 hybrid-fused (build-side filter stages, packed-input builds)
};

class TierParityTest : public ::testing::TestWithParam<ParityCase> {
 protected:
  static ParityEnv* interp_env() {
    static ParityEnv* env = new ParityEnv(jit::TierPolicy::kForceInterpreter);
    return env;
  }
  static ParityEnv* vec_env() {
    static ParityEnv* env = new ParityEnv(jit::TierPolicy::kForceVectorized);
    return env;
  }
  static ParityEnv* native_env() {
    static ParityEnv* env =
        new ParityEnv(jit::TierPolicy::kAuto, /*codegen=*/true);
    return env;
  }

  static plan::ExecPolicy PolicyFor(int mode) {
    plan::ExecPolicy policy = mode == 5   ? plan::ExecPolicy::Hybrid(1, {0})
                              : mode == 4 ? plan::ExecPolicy::CpuOnly(2)
                              : (mode == 0 || mode == 1)
                                  ? plan::ExecPolicy::CpuOnly(1)
                                  : plan::ExecPolicy::GpuOnly({0});
    policy.split_probe_stage = (mode == 1 || mode == 3);
    return policy;
  }
};

TEST_P(TierParityTest, IdenticalResultsAndCostStats) {
  const auto& c = GetParam();
  const auto spec_i = interp_env()->ssb->Query(c.flight, c.idx);
  const auto spec_v = vec_env()->ssb->Query(c.flight, c.idx);
  const auto spec_n = native_env()->ssb->Query(c.flight, c.idx);
  const plan::ExecPolicy policy = PolicyFor(c.mode);

  const jit::VectorizerCounters vbefore = jit::GetVectorizerCounters();
  const jit::CodegenCounters cbefore = jit::GetCodegenCounters();
  const auto interp = interp_env()->Run(spec_i, policy);
  const auto vec = vec_env()->Run(spec_v, policy);
  const auto native = native_env()->Run(spec_n, policy);
  const jit::VectorizerCounters vafter = jit::GetVectorizerCounters();
  const jit::CodegenCounters cafter = jit::GetCodegenCounters();

  ASSERT_TRUE(interp.status.ok()) << interp.status.ToString();
  ASSERT_TRUE(vec.status.ok()) << vec.status.ToString();
  ASSERT_TRUE(native.status.ok()) << native.status.ToString();

  // Identical results.
  EXPECT_EQ(interp.rows, vec.rows) << spec_i.name;
  EXPECT_EQ(interp.rows, native.rows) << spec_i.name;

  // Identical CostStats, field by field, tier 0 vs tier 1 vs tier 2.
  for (const auto* other : {&vec, &native}) {
    EXPECT_EQ(interp.stats.tuples, other->stats.tuples);
    EXPECT_EQ(interp.stats.ops, other->stats.ops);
    EXPECT_EQ(interp.stats.bytes_read, other->stats.bytes_read);
    EXPECT_EQ(interp.stats.bytes_written, other->stats.bytes_written);
    EXPECT_EQ(interp.stats.atomics, other->stats.atomics);
    EXPECT_EQ(interp.stats.near_accesses, other->stats.near_accesses);
    EXPECT_EQ(interp.stats.mid_accesses, other->stats.mid_accesses);
    EXPECT_EQ(interp.stats.far_accesses, other->stats.far_accesses);
  }
  // CPU probes and group-bys never pay atomics; the shared replica's CAS does.
  EXPECT_EQ(interp.stats.atomics > 0, c.mode != 0 && c.mode != 1)
      << "mode " << c.mode;

  // The suite is not vacuous: nothing silently fell back — neither the
  // vectorizer (tiers 1 and 2 both lower through it first) nor the codegen
  // backend (every SSB span shape must prove compilable, and no compile may
  // fail).
  EXPECT_EQ(vafter.fallbacks, vbefore.fallbacks) << "unexpected vectorizer fallback";
  EXPECT_EQ(cafter.fallbacks, cbefore.fallbacks) << "unexpected codegen fallback";
}

std::vector<ParityCase> AllCases() {
  std::vector<ParityCase> cases;
  const int flights[4] = {3, 3, 4, 3};
  for (int f = 1; f <= 4; ++f) {
    for (int i = 1; i <= flights[f - 1]; ++i) {
      for (int mode = 0; mode < 6; ++mode) cases.push_back({f, i, mode});
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<ParityCase>& info) {
  static const char* kModes[6] = {"CpuFused",       "CpuSplit", "GpuFused",
                                  "GpuSplit",       "CpuSharedBuild",
                                  "HybridFused"};
  return "Q" + std::to_string(info.param.flight) + std::to_string(info.param.idx) +
         kModes[info.param.mode];
}

INSTANTIATE_TEST_SUITE_P(FullSsbMatrix, TierParityTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

/// The auto-tier environment really exercises the vectorized backend across
/// the matrix: the fused/split SSB pipelines all lower (no fallbacks), and at
/// least one program per device kind was vectorized.
TEST(TierParitySummary, VectorizedTierWasExercised) {
  auto* env = new ParityEnv(jit::TierPolicy::kAuto);
  jit::ResetVectorizerCounters();
  auto result = env->Run(env->ssb->Query(3, 1), plan::ExecPolicy::CpuOnly(1));
  ASSERT_TRUE(result.status.ok());
  const jit::VectorizerCounters c = jit::GetVectorizerCounters();
  EXPECT_GT(c.vectorized, 0u);
  EXPECT_EQ(c.fallbacks, 0u);
  const auto cache = env->system->program_cache().counters(sim::DeviceType::kCpu);
  EXPECT_GT(cache.misses, 0u);
  delete env;
}

/// The native environment really executed compiled kernels: sources were
/// generated, objects installed, and blocks dispatched through dlopen-ed entry
/// points — not silently served by a lower tier.
TEST(TierParitySummary, NativeTierWasExercised) {
  const jit::CodegenCounters before = jit::GetCodegenCounters();
  core::System::Options opts;
  opts.topology.num_sockets = 1;
  opts.topology.cores_per_socket = 2;
  opts.topology.num_gpus = 0;
  opts.codegen.enabled = true;
  opts.codegen.async = false;
  opts.codegen.kernel_dir = ParityEnv::KernelDir();
  auto system = std::make_unique<core::System>(opts);
  ssb::Ssb::Options ssb_opts;
  ssb_opts.lineorder_rows = 20'000;
  ssb_opts.scale = 0.002;
  ssb::Ssb ssb(ssb_opts, &system->catalog());
  for (const char* name : {"lineorder", "date", "customer", "supplier", "part"}) {
    HETEX_CHECK_OK(
        system->catalog().at(name).Place(system->HostNodes(), &system->memory()));
  }
  plan::ExecPolicy policy = plan::ExecPolicy::CpuOnly(1);
  policy.block_rows = 4096;
  core::QueryExecutor executor(system.get());
  auto result = executor.Execute(ssb.Query(2, 1), policy);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  const jit::CodegenCounters after = jit::GetCodegenCounters();
  EXPECT_GT(after.generated, before.generated);
  EXPECT_GT(after.native_invocations, before.native_invocations);
  EXPECT_EQ(after.fallbacks, before.fallbacks);
  // The kernel cache counters agree: every request was served resident, from
  // disk, or by a successful compile.
  const auto kc = system->kernel_cache()->counters();
  EXPECT_GT(kc.requests, 0u);
  EXPECT_EQ(kc.compile_failures, 0u);
}

}  // namespace
}  // namespace hetex
