// The partitioned merge: each probe instance splits its partial groups by
// hash(group key) into one partition per merge instance, and merge instance k
// — on the core of the gather socket's k-th probe instance, once that probe
// ended — merges partition k. These tests pin what that promises: every group
// is emitted once, by the instance that owns its partition; no merge instance
// starts before its core's probe; no query ends before its last probe; the
// single-instance cases (scalar aggregates, bare and GPU-only plans) still
// return the reference rows; and the merge's tail past the last probe end
// shrinks on hetbench's SSB data.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/executor.h"
#include "core/processor.h"
#include "core/system.h"
#include "ssb/reference.h"
#include "ssb/ssb.h"
#include "test_util.h"

namespace hetex {
namespace {

using plan::ExecPolicy;
using test::TestEnv;

/// The ten SSB queries with a group-by (flights 2-4).
std::vector<std::pair<int, int>> GroupByQueries() {
  return {{2, 1}, {2, 2}, {2, 3}, {3, 1}, {3, 2},
          {3, 3}, {3, 4}, {4, 1}, {4, 2}, {4, 3}};
}

/// Every merge instance starts on its core no earlier than the probe
/// instance there ended, and the query ends no earlier than any probe.
void ExpectMergeFollowsProbes(const core::QueryResult& r, const std::string& what) {
  std::map<std::pair<sim::DeviceId, int>, sim::VTime> probe_end;
  for (const auto& p : r.probes) {
    probe_end[{p.unit, p.ordinal}] = p.end;
    EXPECT_GE(r.modeled_seconds, p.end) << what << ": ends before a probe";
  }
  ASSERT_FALSE(r.merges.empty()) << what;
  for (const auto& m : r.merges) {
    auto it = probe_end.find({m.unit, m.ordinal});
    if (it != probe_end.end()) {
      EXPECT_GE(m.start, it->second)
          << what << ": merge on " << m.unit.ToString() << "#" << m.ordinal
          << " starts before its core's probe ended";
    }
    EXPECT_GE(m.end, m.start) << what;
    EXPECT_GE(r.modeled_seconds, m.end) << what;
  }
  EXPECT_GE(r.modeled_seconds, r.probe_end) << what;
}

TEST(MergeTest, EveryGroupKeyIsEmittedByTheOneMergeInstanceOwningIt) {
  TestEnv env;
  int spread = 0;
  for (const auto& [flight, idx] : GroupByQueries()) {
    const plan::QuerySpec spec = env.ssb->Query(flight, idx);
    const core::QueryResult r =
        env.Run(spec, TestEnv::Tune(ExecPolicy::Hybrid(4)));
    ASSERT_TRUE(r.status.ok()) << spec.name << ": " << r.status.ToString();
    EXPECT_EQ(r.rows, env.Reference(spec)) << spec.name;
    // Two CPU workers of four sit on the gather socket: two partitions.
    ASSERT_EQ(r.merges.size(), 2u) << spec.name;
    std::vector<uint64_t> owned(r.merges.size(), 0);
    std::set<int64_t> keys;
    for (const auto& row : r.rows) {
      EXPECT_TRUE(keys.insert(row[0]).second) << spec.name << ": key twice";
      ++owned[core::MergePartition(row[0], static_cast<int>(r.merges.size()))];
    }
    int emitting = 0;
    for (size_t k = 0; k < r.merges.size(); ++k) {
      EXPECT_EQ(r.merges[k].rows, owned[k]) << spec.name << " merge " << k;
      emitting += r.merges[k].rows > 0;
    }
    spread += emitting > 1;
    EXPECT_EQ(r.partial_rows > 0, !r.rows.empty()) << spec.name;
  }
  EXPECT_GT(spread, 0) << "no query spread its groups over both instances";
}

TEST(MergeTest, NoMergeInstanceStartsBeforeItsCoresProbeEnds) {
  TestEnv env;
  for (const auto& [flight, idx] : GroupByQueries()) {
    const plan::QuerySpec spec = env.ssb->Query(flight, idx);
    for (const ExecPolicy& policy :
         {ExecPolicy::Hybrid(4), ExecPolicy::CpuOnly(4), ExecPolicy::GpuOnly()}) {
      const core::QueryResult r = env.Run(spec, TestEnv::Tune(policy));
      ASSERT_TRUE(r.status.ok()) << spec.name << ": " << r.status.ToString();
      ExpectMergeFollowsProbes(r, spec.name);
    }
  }
}

/// On the SSB test data and on the serving data — the throughput bench's
/// server and data at seed 1, where Q3.3 and Q3.4 return no rows — every
/// group-by query the optimizer runs ends no earlier than every probe
/// instance, the ones whose group tables stayed empty included.
TEST(MergeTest, GroupByQueriesEndAfterEveryProbeInstance) {
  TestEnv ssb_env;
  core::System::Options serve;
  serve.topology.num_sockets = 2;
  serve.topology.cores_per_socket = 2;
  serve.topology.num_gpus = 2;
  serve.topology.gpu_sim_threads = 2;
  serve.topology.host_capacity_per_socket = 4ull << 30;
  serve.topology.gpu_capacity = 1ull << 30;
  serve.blocks.block_bytes = 64 << 10;
  serve.blocks.host_arena_blocks = 512;
  serve.blocks.gpu_arena_blocks = 256;
  core::System serve_system(serve);
  ssb::Ssb::Options data;
  data.scale = 0.002;
  data.lineorder_rows = 60'000;
  data.seed = 1;
  ssb::Ssb serve_ssb(data, &serve_system.catalog());
  for (const char* name : {"lineorder", "date", "customer", "supplier", "part"}) {
    HETEX_CHECK_OK(serve_system.catalog().at(name).Place(serve_system.HostNodes(),
                                                          &serve_system.memory()));
  }

  int empty_results = 0;
  for (auto [system, ssb] : {std::pair{ssb_env.system.get(), ssb_env.ssb.get()},
                             std::pair{&serve_system, &serve_ssb}}) {
    core::QueryExecutor executor(system);
    for (const auto& [flight, idx] : GroupByQueries()) {
      const plan::QuerySpec spec = ssb->Query(flight, idx);
      const core::QueryResult r = executor.Execute(spec);
      ASSERT_TRUE(r.status.ok()) << spec.name << ": " << r.status.ToString();
      EXPECT_EQ(r.rows, ssb::ReferenceExecute(spec, system->catalog())) << spec.name;
      ExpectMergeFollowsProbes(r, spec.name);
      empty_results += r.rows.empty();
    }
  }
  EXPECT_GT(empty_results, 0) << "no query with an empty result was checked";
}

TEST(MergeTest, SingleMergeInstanceReturnsTheReferenceRows) {
  TestEnv env;
  const plan::QuerySpec scalar = env.ssb->Query(1, 1);
  const plan::QuerySpec grouped = env.ssb->Query(3, 1);
  struct Case {
    const plan::QuerySpec* spec;
    ExecPolicy policy;
  };
  for (const Case& c : {Case{&scalar, ExecPolicy::Hybrid(4)},
                        Case{&scalar, ExecPolicy::CpuOnly(4)},
                        Case{&grouped, ExecPolicy::GpuOnly()},
                        Case{&grouped, ExecPolicy::Bare(sim::DeviceType::kCpu)},
                        Case{&grouped, ExecPolicy::Bare(sim::DeviceType::kGpu)}}) {
    const core::QueryResult r = env.Run(*c.spec, TestEnv::Tune(c.policy));
    ASSERT_TRUE(r.status.ok()) << c.spec->name << ": " << r.status.ToString();
    EXPECT_EQ(r.rows, env.Reference(*c.spec)) << c.spec->name;
    EXPECT_EQ(r.merges.size(), 1u) << c.spec->name;
    ExpectMergeFollowsProbes(r, c.spec->name);
  }
}

/// Pinned hybrid Q2.1 on hetbench's `ssb_pcie` data and server (2 sockets of
/// 12 cores, 2 GPUs with 10 MiB, fixed latencies scaled by 1/1000, 16 KiB
/// blocks): one serial gather merged all 26 probe instances' partial groups
/// after the last probe ended, a tail of 13.5-13.8 us; the twelve merge
/// instances of the gather socket leave about 2.3 us.
TEST(MergeTest, PinnedHybridQ21TailIsAThirdOfTheSerialMerge) {
  core::System::Options opts;
  opts.codegen = jit::CodegenOptions{};
  opts.faults = sim::FaultOptions{};
  opts.reuse = core::ReuseOptions{};
  opts.topology.gpu_capacity = 10ull << 20;
  opts.topology.cost_model.ScaleFixedLatencies(0.2 / 200);
  opts.blocks.block_bytes = 16 << 10;
  opts.blocks.host_arena_blocks = 768;
  opts.blocks.gpu_arena_blocks = 384;
  core::System system(opts);
  ssb::Ssb::Options data;
  data.scale = 0.2;
  data.lineorder_rows = 1'200'000;
  data.customer_rows = 120'000;
  data.supplier_rows = 30'000;
  data.part_rows = 80'000;
  ssb::Ssb ssb(data, &system.catalog());
  for (const char* name : {"lineorder", "date", "customer", "supplier", "part"}) {
    HETEX_CHECK_OK(system.catalog().at(name).Place(system.HostNodes(), &system.memory()));
  }
  const plan::QuerySpec spec = ssb.Query(2, 1);
  ExecPolicy policy = ExecPolicy::Hybrid(24);
  policy.block_rows = 512;
  core::QueryExecutor executor(&system);
  const core::QueryResult r = executor.Execute(spec, policy);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.rows, ssb::ReferenceExecute(spec, system.catalog()));
  EXPECT_EQ(r.merges.size(), 12u);
  ExpectMergeFollowsProbes(r, spec.name);
  EXPECT_LE(r.modeled_seconds - r.probe_end, 13.5e-6 / 3);
}

}  // namespace
}  // namespace hetex
