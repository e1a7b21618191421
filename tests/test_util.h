#ifndef HETEX_TESTS_TEST_UTIL_H_
#define HETEX_TESTS_TEST_UTIL_H_

#include <cstdlib>
#include <memory>

#include "core/executor.h"
#include "core/system.h"
#include "ssb/reference.h"
#include "ssb/ssb.h"

namespace hetex::test {

/// Iteration scale knob shared by the stress and fuzz harnesses: small by
/// default (CI-friendly), larger for local soaks
/// (`FUZZ_ITERS=100 ./hetex_tests --gtest_filter='*Fuzz*:*Stress*'`).
inline int FuzzIters(int dflt) {
  const char* env = std::getenv("FUZZ_ITERS");
  if (env == nullptr) return dflt;
  const int v = std::atoi(env);
  return v > 0 ? v : dflt;
}

/// True when the CI chaos job runs the suite under environment-driven fault
/// injection (HETEX_FAULTS=1). Stress/fuzz assertions that demand an OK status
/// relax to "OK or a named fault" in that mode — correctness (parity of OK
/// results, leak-freedom) is still asserted unconditionally.
inline bool FaultsEnabled() {
  const char* env = std::getenv("HETEX_FAULTS");
  return env != nullptr && std::atoi(env) != 0;
}

/// A scan that stays bandwidth-bound at any column code: Q1.1's date join
/// over `wide_lineorder`, a table beside the SSB tables that holds
/// lineorder's lo_orderdate, lo_extendedprice, lo_supplycost and lo_revenue,
/// except that its first two rows hold INT32_MIN and INT32_MAX in every
/// column. Their range spans every int32, so no base narrows them and a row
/// loads 16 bytes for about 10 ops: the fact filter passes every row and the
/// aggregate reads two of the measures. SSB's own scans read 1- and 2-byte
/// columns once Table::Place codes them, and no longer saturate a socket's
/// DRAM or a PCIe link. The table is created and placed on lineorder's nodes
/// the first time a System asks for the scan.
inline plan::QuerySpec WideMeasureScan(const ssb::Ssb& ssb, core::System* system) {
  constexpr const char* kTable = "wide_lineorder";
  const char* const kColumns[] = {"lo_orderdate", "lo_extendedprice",
                                  "lo_supplycost", "lo_revenue"};
  storage::Catalog& catalog = system->catalog();
  if (catalog.Get(kTable) == nullptr) {
    const storage::Table& lineorder = catalog.at("lineorder");
    storage::Table* wide = catalog.CreateTable(kTable);
    for (const char* name : kColumns) {
      const storage::Column& src = lineorder.column(name);
      storage::Column* col = wide->AddColumn(name, storage::ColType::kInt32);
      for (uint64_t r = 0; r < src.rows(); ++r) {
        col->Append(r == 0 ? INT32_MIN : r == 1 ? INT32_MAX : src.At(r));
      }
    }
    std::vector<sim::MemNodeId> nodes;
    for (const auto& chunk : lineorder.chunks()) nodes.push_back(chunk.node);
    HETEX_CHECK_OK(wide->Place(nodes, &system->memory()));
  }
  plan::QuerySpec q = ssb.Query(1, 1);
  q.name = "Q1.1-wide";
  q.fact_table = kTable;
  q.fact_filter =
      plan::And(plan::Ge(plan::Col("lo_extendedprice"), plan::Lit(INT32_MIN)),
                plan::Ge(plan::Col("lo_supplycost"), plan::Lit(INT32_MIN)));
  q.aggs = {{plan::Add(plan::Col("lo_revenue"), plan::Col("lo_supplycost")),
             jit::AggFunc::kSum, "s"}};
  return q;
}

/// Small simulated server + tiny SSB database for fast tests.
struct TestEnv {
  /// `reuse` defaults to the env-resolved knobs (HETEX_SHARED_BUILDS /
  /// HETEX_RESULT_CACHE_MB) so the chaos job can run the whole suite
  /// reuse-enabled; tests pin explicit options where the mode matters.
  explicit TestEnv(uint64_t lineorder_rows = 40'000, int sockets = 2, int gpus = 2,
                   core::ReuseOptions reuse = core::ReuseOptions::FromEnv()) {
    core::System::Options opts;
    opts.reuse = reuse;
    opts.topology.num_sockets = sockets;
    opts.topology.cores_per_socket = 2;
    opts.topology.num_gpus = gpus;
    opts.topology.gpu_sim_threads = 2;
    opts.topology.host_capacity_per_socket = 4ull << 30;
    opts.topology.gpu_capacity = 1ull << 30;
    opts.blocks.block_bytes = 64 << 10;
    opts.blocks.host_arena_blocks = 256;
    opts.blocks.gpu_arena_blocks = 128;
    system = std::make_unique<core::System>(opts);

    ssb::Ssb::Options ssb_opts;
    ssb_opts.lineorder_rows = lineorder_rows;
    ssb_opts.scale = 0.002;
    ssb = std::make_unique<ssb::Ssb>(ssb_opts, &system->catalog());
    PlaceAllOnHost();
  }

  void PlaceAllOnHost() {
    for (const char* name : {"lineorder", "date", "customer", "supplier", "part"}) {
      HETEX_CHECK_OK(
          system->catalog().at(name).Place(system->HostNodes(), &system->memory()));
    }
  }

  core::QueryResult Run(const plan::QuerySpec& spec,
                        const plan::ExecPolicy& policy) {
    core::QueryExecutor executor(system.get());
    return executor.Execute(spec, policy);
  }

  std::vector<std::vector<int64_t>> Reference(const plan::QuerySpec& spec) {
    return ssb::ReferenceExecute(spec, system->catalog());
  }

  /// ExecPolicy with test-friendly block granularity.
  static plan::ExecPolicy Tune(plan::ExecPolicy policy) {
    policy.block_rows = 4096;
    return policy;
  }

  std::unique_ptr<core::System> system;
  std::unique_ptr<ssb::Ssb> ssb;
};

}  // namespace hetex::test

#endif  // HETEX_TESTS_TEST_UTIL_H_
