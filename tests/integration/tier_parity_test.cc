#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "core/scheduler.h"
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
/// packed survivors. The hybrid split mode adds the shared hash exchange and
/// runs two CPU workers, so its group-bys merge on two instances, each
/// owning one hash partition of the partial groups.
///
/// Besides the 13 SSB queries (their columns placed at 1, 2 and 4 bytes, all
/// values non-negative) the matrix runs one query over a wide-key star
/// (WideQuery): an 8-byte join key, negative and beyond int32, with an
/// 8-byte and a 1-byte payload, so the packed hash-table entries mix field
/// widths; one over a narrow star (NarrowQuery) whose every column is
/// placed at 1 or 2 bytes and holds negative values down to the type bounds;
/// and one over a frame-of-reference star (ForQuery) whose columns sit far
/// below zero, so Table::Place stores them as value − base with negative
/// bases.
struct ParityEnv {
  /// `gpu_sim_threads` 1 runs the GPU's logical threads in one sequential
  /// pass per launch.
  explicit ParityEnv(jit::TierPolicy policy, bool codegen = false,
                     int gpu_sim_threads = 1) {
    core::System::Options opts;
    opts.topology.num_sockets = 1;
    opts.topology.cores_per_socket = 2;
    opts.topology.num_gpus = 1;
    opts.topology.gpu_sim_threads = gpu_sim_threads;
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
    AddWideStar();
    AddNarrowStar();
    AddForStar();
    for (const char* name : {"lineorder", "date", "customer", "supplier", "part",
                             "wide_dim", "wide_fact", "narrow_dim", "narrow_fact",
                             "for_dim", "for_fact"}) {
      HETEX_CHECK_OK(
          system->catalog().at(name).Place(system->HostNodes(), &system->memory()));
    }
  }

  /// 600 dimension rows keyed (i - 300) * 2^33 - i; 20,000 fact rows whose
  /// keys also name 100 absent dimension rows.
  void AddWideStar() {
    auto key_of = [](int64_t i) { return (i - 300) * (int64_t{1} << 33) - i; };
    storage::Table* dim = system->catalog().CreateTable("wide_dim");
    storage::Column* key = dim->AddColumn("w_key", storage::ColType::kInt64);
    storage::Column* big = dim->AddColumn("w_big", storage::ColType::kInt64);
    storage::Column* small = dim->AddColumn("w_small", storage::ColType::kInt32);
    storage::Column* flag = dim->AddColumn("w_flag", storage::ColType::kInt32);
    for (int64_t i = 0; i < 600; ++i) {
      key->Append(key_of(i));
      big->Append((i - 200) * (int64_t{1} << 34) + 5);
      small->Append(i % 7 - 3);
      flag->Append(i % 3);
    }
    storage::Table* fact = system->catalog().CreateTable("wide_fact");
    storage::Column* fkey = fact->AddColumn("f_key", storage::ColType::kInt64);
    storage::Column* val = fact->AddColumn("f_val", storage::ColType::kInt32);
    for (int64_t r = 0; r < 20'000; ++r) {
      fkey->Append(key_of(r * 7919 % 700));
      val->Append(r % 100 - 50);
    }
  }

  /// 400 dimension rows keyed -32768 + 145 i (2 bytes), with 1-byte payloads
  /// n_small (-5..5) and n_tiny (-128..-29) and a 1-byte filter flag; 20,000
  /// fact rows whose 2-byte keys also name 50 absent dimension rows, a
  /// 1-byte f_q (-128..99) and a 2-byte f_m (-32768..32767).
  void AddNarrowStar() {
    auto key_of = [](int64_t i) { return -32768 + 145 * i; };
    storage::Table* dim = system->catalog().CreateTable("narrow_dim");
    storage::Column* key = dim->AddColumn("n_key", storage::ColType::kInt32);
    key->set_unique(true);
    storage::Column* small = dim->AddColumn("n_small", storage::ColType::kInt32);
    storage::Column* tiny = dim->AddColumn("n_tiny", storage::ColType::kInt32);
    storage::Column* flag = dim->AddColumn("n_flag", storage::ColType::kInt32);
    for (int64_t i = 0; i < 400; ++i) {
      key->Append(key_of(i));
      small->Append(i % 11 - 5);
      tiny->Append(-128 + i % 100);
      flag->Append(i % 4);
    }
    storage::Table* fact = system->catalog().CreateTable("narrow_fact");
    storage::Column* fkey = fact->AddColumn("f_nkey", storage::ColType::kInt32);
    storage::Column* q = fact->AddColumn("f_q", storage::ColType::kInt32);
    storage::Column* m = fact->AddColumn("f_m", storage::ColType::kInt32);
    for (int64_t r = 0; r < 20'000; ++r) {
      fkey->Append(key_of(r * 7919 % 450));
      q->Append(r % 228 - 128);
      m->Append(r * 3331 % 65536 - 32768);
    }
  }

  /// The nine group keys of the frame-of-reference star: within one byte of
  /// each other around -1,000,195, and no two in one slot of a 32-slot
  /// group-by table (HashMix64 & 31), so a group-by inspects one slot per
  /// update in any input order.
  static constexpr int64_t kForGroups[9] = {-1'000'200, -1'000'199, -1'000'198,
                                            -1'000'197, -1'000'196, -1'000'195,
                                            -1'000'192, -1'000'191, -1'000'190};

  /// 300 dimension rows keyed -5,000,000 + 97 i (2 bytes around base
  /// -4,985,498), with 1-byte payloads r_grp (kForGroups) and r_pay
  /// (-2,000,000..-1,999,801) and a 1-byte filter flag; 20,000 fact rows whose
  /// probe keys g_key name dimension rows -100..449, so 45% fall outside the
  /// build key's range (2 bytes around a base of their own), a 1-byte g_q
  /// (-1,500,000..-1,499,801) and a 2-byte g_m around -1,999,970,000.
  void AddForStar() {
    auto key_of = [](int64_t i) { return -5'000'000 + 97 * i; };
    storage::Table* dim = system->catalog().CreateTable("for_dim");
    storage::Column* key = dim->AddColumn("r_key", storage::ColType::kInt32);
    key->set_unique(true);
    storage::Column* grp = dim->AddColumn("r_grp", storage::ColType::kInt32);
    storage::Column* pay = dim->AddColumn("r_pay", storage::ColType::kInt32);
    storage::Column* flag = dim->AddColumn("r_flag", storage::ColType::kInt32);
    for (int64_t i = 0; i < 300; ++i) {
      key->Append(key_of(i));
      grp->Append(kForGroups[i % 9]);
      pay->Append(-2'000'000 + i * 7 % 200);
      flag->Append(i % 5);
    }
    storage::Table* fact = system->catalog().CreateTable("for_fact");
    storage::Column* fkey = fact->AddColumn("g_key", storage::ColType::kInt32);
    storage::Column* q = fact->AddColumn("g_q", storage::ColType::kInt32);
    storage::Column* m = fact->AddColumn("g_m", storage::ColType::kInt32);
    for (int64_t r = 0; r < 20'000; ++r) {
      fkey->Append(key_of(r * 7919 % 550 - 100));
      q->Append(-1'500'000 + r % 200);
      m->Append(-2'000'000'000 + r * 3331 % 60'000);
    }
  }

  /// Filter the 1-byte fact column, join on the 2-byte key (the build
  /// filtered on its 1-byte flag), group by one 1-byte payload and sum the
  /// 2-byte fact value plus the other.
  static plan::QuerySpec NarrowQuery() {
    plan::QuerySpec q;
    q.name = "Qnarrow";
    q.fact_table = "narrow_fact";
    q.fact_filter = plan::Gt(plan::Col("f_q"), plan::Lit(-100));
    plan::JoinSpec join{"narrow_dim", plan::Ne(plan::Col("n_flag"), plan::Lit(0)),
                        "n_key", {"n_small", "n_tiny"}, "f_nkey"};
    join.build_rows_estimate = 300;
    q.joins.push_back(std::move(join));
    q.group_by = {plan::Col("n_small")};
    q.aggs.push_back(
        {plan::Add(plan::Col("f_m"), plan::Col("n_tiny")), jit::AggFunc::kSum, "s"});
    q.aggs.push_back({nullptr, jit::AggFunc::kCount, "n"});
    q.expected_groups = 16;
    return q;
  }

  /// Filter the 1-byte coded fact column, join the 2-byte coded probe column
  /// on the 2-byte coded key (each with its own base; the build filtered on
  /// its flag), group by one 1-byte coded payload and sum the 2-byte coded
  /// fact value plus the other.
  static plan::QuerySpec ForQuery() {
    plan::QuerySpec q;
    q.name = "Qfor";
    q.fact_table = "for_fact";
    q.fact_filter = plan::Gt(plan::Col("g_q"), plan::Lit(-1'499'950));
    plan::JoinSpec join{"for_dim", plan::Ne(plan::Col("r_flag"), plan::Lit(0)),
                        "r_key", {"r_grp", "r_pay"}, "g_key"};
    join.build_rows_estimate = 240;
    q.joins.push_back(std::move(join));
    q.group_by = {plan::Col("r_grp")};
    q.aggs.push_back(
        {plan::Add(plan::Col("g_m"), plan::Col("r_pay")), jit::AggFunc::kSum, "s"});
    q.aggs.push_back({nullptr, jit::AggFunc::kCount, "n"});
    q.expected_groups = 16;
    return q;
  }

  /// Group by the 1-byte payload, sum the fact value plus the 8-byte one.
  static plan::QuerySpec WideQuery() {
    plan::QuerySpec q;
    q.name = "Qwide";
    q.fact_table = "wide_fact";
    q.fact_filter = plan::Gt(plan::Col("f_val"), plan::Lit(-40));
    plan::JoinSpec join{"wide_dim", plan::Ne(plan::Col("w_flag"), plan::Lit(0)),
                        "w_key", {"w_big", "w_small"}, "f_key"};
    join.build_rows_estimate = 400;
    q.joins.push_back(std::move(join));
    q.group_by = {plan::Col("w_small")};
    q.aggs.push_back(
        {plan::Add(plan::Col("f_val"), plan::Col("w_big")), jit::AggFunc::kSum, "s"});
    q.aggs.push_back({nullptr, jit::AggFunc::kCount, "n"});
    q.expected_groups = 16;
    return q;
  }

  /// SSB query `flight`.`idx`, WideQuery for flight 0, NarrowQuery for -1,
  /// ForQuery for -2.
  plan::QuerySpec Query(int flight, int idx) const {
    if (flight == 0) return WideQuery();
    if (flight == -1) return NarrowQuery();
    return flight < 0 ? ForQuery() : ssb->Query(flight, idx);
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
  int flight;  // 0: ParityEnv::WideQuery, -1: ParityEnv::NarrowQuery,
               // -2: ParityEnv::ForQuery
  int idx;
  int mode;  // 0 cpu-fused, 1 cpu-split, 2 gpu-fused, 3 gpu-split,
             // 4 cpu-fused with a two-writer shared build,
             // 5 hybrid-fused (build-side filter stages, packed-input builds),
             // 6 hybrid-split with two CPU workers (a two-instance merge)
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
    plan::ExecPolicy policy = mode == 6   ? plan::ExecPolicy::Hybrid(2, {0})
                              : mode == 5 ? plan::ExecPolicy::Hybrid(1, {0})
                              : mode == 4 ? plan::ExecPolicy::CpuOnly(2)
                              : (mode == 0 || mode == 1)
                                  ? plan::ExecPolicy::CpuOnly(1)
                                  : plan::ExecPolicy::GpuOnly({0});
    policy.split_probe_stage = (mode == 1 || mode == 3 || mode == 6);
    return policy;
  }
};

TEST_P(TierParityTest, IdenticalResultsAndCostStats) {
  const auto& c = GetParam();
  const auto spec_i = interp_env()->Query(c.flight, c.idx);
  const auto spec_v = vec_env()->Query(c.flight, c.idx);
  const auto spec_n = native_env()->Query(c.flight, c.idx);
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
  if (c.flight <= 0) {
    // The stars group by a small signed payload: negative group keys too.
    EXPECT_TRUE(std::any_of(interp.rows.begin(), interp.rows.end(),
                            [](const auto& row) { return row[0] < 0; }));
  }
  if (c.flight == -2) {
    // The frame-of-reference star really is coded: each column at 1 or 2
    // bytes with a negative base, the probe column's base not the build
    // key's, and every fact column's range wider than its width holds
    // unbased.
    const storage::Catalog& catalog = interp_env()->system->catalog();
    struct Code {
      const char* table;
      const char* column;
      uint32_t width;
    };
    for (const Code& code : {Code{"for_dim", "r_key", 2}, Code{"for_dim", "r_grp", 1},
                             Code{"for_dim", "r_pay", 1}, Code{"for_fact", "g_key", 2},
                             Code{"for_fact", "g_q", 1}, Code{"for_fact", "g_m", 2}}) {
      const storage::Column& col = catalog.at(code.table).column(code.column);
      EXPECT_EQ(col.width(), code.width) << code.column;
      EXPECT_LT(col.base(), 0) << code.column;
    }
    EXPECT_NE(catalog.at("for_dim").column("r_key").base(),
              catalog.at("for_fact").column("g_key").base());
  }
  if (c.flight == -1) {
    // The narrow star really is placed at 1 and 2 bytes.
    for (const char* name : {"narrow_dim", "narrow_fact"}) {
      const storage::Table& t = interp_env()->system->catalog().at(name);
      for (int col = 0; col < t.num_columns(); ++col) {
        EXPECT_LE(t.column(col).width(), 2u) << t.column(col).name();
      }
    }
  }

  // Identical results, and the reference's.
  EXPECT_EQ(interp.rows,
            ssb::ReferenceExecute(spec_i, interp_env()->system->catalog()))
      << spec_i.name;
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
      for (int mode = 0; mode < 7; ++mode) cases.push_back({f, i, mode});
    }
  }
  for (int mode = 0; mode < 7; ++mode) cases.push_back({0, 0, mode});
  // Not the hybrid split mode: the narrow star's 11 group keys collide in its
  // 32-slot group-by table, and that mode's stage-B instances take their
  // input in thread-completion order, so the group-by's probe counts vary
  // from run to run in every tier, whatever the column widths.
  for (int mode = 0; mode < 6; ++mode) cases.push_back({-1, 0, mode});
  // Every mode: the frame-of-reference star's group keys never collide.
  for (int mode = 0; mode < 7; ++mode) cases.push_back({-2, 0, mode});
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<ParityCase>& info) {
  static const char* kModes[7] = {"CpuFused",       "CpuSplit", "GpuFused",
                                  "GpuSplit",       "CpuSharedBuild",
                                  "HybridFused",    "HybridSplit"};
  if (info.param.flight == 0) return std::string("Wide") + kModes[info.param.mode];
  if (info.param.flight == -1) return std::string("Narrow") + kModes[info.param.mode];
  if (info.param.flight < 0) {
    return std::string("FrameOfReference") + kModes[info.param.mode];
  }
  return "Q" + std::to_string(info.param.flight) + std::to_string(info.param.idx) +
         kModes[info.param.mode];
}

INSTANTIATE_TEST_SUITE_P(FullSsbMatrix, TierParityTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

/// A hash table that a build or a group-by overflows fails its query with a
/// terminal OutOfMemory naming the table's pipeline and capacity, the same in
/// every tier, instead of aborting the process. Both capacities come from
/// public QuerySpec fields: a join's `build_rows_estimate` and the query's
/// `expected_groups`. Each case gets a fresh environment, so it can check that
/// the failed query released what it held, and the GPU runs four
/// logical-thread passes per launch against one group-by table.
class TierParityOverflowTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    const int tier = GetParam();
    env_ = std::make_unique<ParityEnv>(
        tier == 0   ? jit::TierPolicy::kForceInterpreter
        : tier == 1 ? jit::TierPolicy::kForceVectorized
                    : jit::TierPolicy::kAuto,
        /*codegen=*/tier == 2, /*gpu_sim_threads=*/4);
  }

  /// Q4.1 whose part join is sized for one row: its 65 entries hold fewer
  /// than the parts of MFGR#1 and MFGR#2.
  plan::QuerySpec UndersizedJoin() const {
    plan::QuerySpec q = env_->ssb->Query(4, 1);
    EXPECT_EQ(q.joins[2].build_table, "part");
    q.joins[2].build_rows_estimate = 1;
    return q;
  }

  /// Q3.1 sized for `groups` of its more than 4 groups.
  plan::QuerySpec UndersizedGroupBy(uint64_t groups) const {
    plan::QuerySpec q = env_->ssb->Query(3, 1);
    q.expected_groups = groups;
    return q;
  }

  static void ExpectOverCapacity(const core::QueryResult& r,
                                 const std::string& what) {
    EXPECT_EQ(r.status.code(), StatusCode::kOutOfMemory) << r.status.ToString();
    EXPECT_NE(r.status.message().find(what), std::string::npos)
        << r.status.ToString();
    EXPECT_TRUE(r.rows.empty());
  }

  /// Everything the failed query held is back: its hash-table namespace and
  /// every staging block.
  void ExpectReleased(const core::QueryResult& r) const {
    EXPECT_EQ(env_->system->hts().NumTables(r.query_id), 0);
    for (sim::MemNodeId node : env_->system->HostNodes()) {
      EXPECT_EQ(env_->system->blocks().manager(node).in_use(), 0u) << "node " << node;
    }
    for (sim::MemNodeId node : env_->system->GpuNodes()) {
      EXPECT_EQ(env_->system->blocks().manager(node).in_use(), 0u) << "node " << node;
    }
  }

  /// Tier 2 really ran the failing pipelines natively.
  void ExpectNativeRan(const jit::CodegenCounters& before) const {
    if (GetParam() != 2) return;
    EXPECT_GT(jit::GetCodegenCounters().native_invocations,
              before.native_invocations);
  }

  std::unique_ptr<ParityEnv> env_;
};

TEST_P(TierParityOverflowTest, JoinOverCapacityFailsTheQuery) {
  const jit::CodegenCounters before = jit::GetCodegenCounters();
  const core::QueryResult r =
      env_->Run(UndersizedJoin(), plan::ExecPolicy::CpuOnly(2));
  ExpectOverCapacity(
      r, "join hash table of pipeline 'Q4.1.build[part]' over capacity "
         "(65 entries)");
  ExpectReleased(r);
  ExpectNativeRan(before);
}

TEST_P(TierParityOverflowTest, GroupByOverCapacityFailsTheQuery) {
  const jit::CodegenCounters before = jit::GetCodegenCounters();
  const core::QueryResult r =
      env_->Run(UndersizedGroupBy(4), plan::ExecPolicy::CpuOnly(2));
  ExpectOverCapacity(
      r, "group-by hash table of pipeline 'Q3.1.probe' over capacity (4 groups)");
  ExpectReleased(r);
  ExpectNativeRan(before);
}

// Each GPU pass stops at its own first failed update, and a failed update
// keeps its slot: with 2 groups in 4 slots, the third pass's first new group
// finds every slot taken and must fail rather than probe forever.
TEST_P(TierParityOverflowTest, GpuGroupByOverCapacityFailsTheQuery) {
  const core::QueryResult r =
      env_->Run(UndersizedGroupBy(2), plan::ExecPolicy::GpuOnly({0}));
  ExpectOverCapacity(
      r, "group-by hash table of pipeline 'Q3.1.probe' over capacity (2 groups)");
  ExpectReleased(r);
}

// The overflow repeats on every attempt, so the scheduler surfaces it at once.
TEST_P(TierParityOverflowTest, SchedulerDoesNotRetryAnOverflow) {
  core::QueryScheduler scheduler(env_->system.get(), {.max_concurrent = 1});
  core::SubmitOptions opts;
  opts.policy = test::TestEnv::Tune(plan::ExecPolicy::CpuOnly(2));
  for (const plan::QuerySpec& spec : {UndersizedJoin(), UndersizedGroupBy(4)}) {
    const core::QueryResult r = scheduler.Wait(scheduler.Submit(spec, opts));
    ExpectOverCapacity(r, "over capacity");
    EXPECT_EQ(r.retries, 0) << spec.name;
    EXPECT_FALSE(r.degraded) << spec.name;
    ExpectReleased(r);
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, TierParityOverflowTest, ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Tier" + std::to_string(info.param);
                         });

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
