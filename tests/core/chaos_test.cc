#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/scheduler.h"
#include "plan/het_plan.h"
#include "plan/optimizer.h"
#include "sim/fault.h"
#include "test_util.h"

namespace hetex::core {
namespace {

using plan::ExecPolicy;
using test::TestEnv;

/// The terminal states a chaos query may legitimately end in. Anything else
/// (kInternal, kInvalidArgument, ...) means a fault escaped the named
/// error-propagation paths.
bool IsChaosTerminal(const Status& s) {
  if (s.ok()) return true;
  switch (s.code()) {
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnavailable:
    case StatusCode::kResourceExhausted:
    case StatusCode::kDeviceLost:
      return true;
    default:
      return false;
  }
}

/// TestEnv with an explicit fault-plane configuration (TestEnv itself inherits
/// whatever the HETEX_FAULT_* environment says, which the CI chaos job sets;
/// these tests pin their own schedules regardless of the environment).
struct ChaosEnv {
  explicit ChaosEnv(sim::FaultOptions faults, uint64_t lineorder_rows = 30'000) {
    System::Options opts;
    opts.topology.num_sockets = 2;
    opts.topology.cores_per_socket = 2;
    opts.topology.num_gpus = 2;
    opts.topology.gpu_sim_threads = 2;
    opts.topology.host_capacity_per_socket = 4ull << 30;
    opts.topology.gpu_capacity = 1ull << 30;
    opts.blocks.block_bytes = 64 << 10;
    opts.blocks.host_arena_blocks = 256;
    opts.blocks.gpu_arena_blocks = 128;
    // Fail fast if a chaos run ever genuinely starves an arena — the test must
    // surface a bug as a named status, not sit out the production bound.
    opts.blocks.acquire_timeout_seconds = 5.0;
    opts.faults = faults;
    system = std::make_unique<System>(opts);

    ssb::Ssb::Options ssb_opts;
    ssb_opts.lineorder_rows = lineorder_rows;
    ssb_opts.scale = 0.002;
    ssb = std::make_unique<ssb::Ssb>(ssb_opts, &system->catalog());
    for (const char* name :
         {"lineorder", "date", "customer", "supplier", "part"}) {
      HETEX_CHECK_OK(system->catalog().at(name).Place(system->HostNodes(),
                                                      &system->memory()));
    }
  }

  std::vector<std::vector<int64_t>> Reference(const plan::QuerySpec& spec) {
    return ssb::ReferenceExecute(spec, system->catalog());
  }

  /// Every resource a query holds mid-flight must be back after the drain:
  /// staging blocks in every arena, hash-table namespaces, DRAM worker
  /// registrations. A leak here means some fault path skipped a cleanup guard.
  void ExpectNoLeaks() {
    for (sim::MemNodeId node : system->HostNodes()) {
      EXPECT_EQ(system->blocks().manager(node).in_use(), 0u)
          << "host node " << node << " leaked staging blocks";
    }
    for (sim::MemNodeId node : system->GpuNodes()) {
      EXPECT_EQ(system->blocks().manager(node).in_use(), 0u)
          << "gpu node " << node << " leaked staging blocks";
    }
    EXPECT_EQ(system->hts().TotalHtBytes(), 0u) << "leaked hash-table bytes";
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(system->topology().socket_dram(s).active_workers(), 0)
          << "socket " << s << " leaked DRAM worker registrations";
    }
  }

  std::unique_ptr<System> system;
  std::unique_ptr<ssb::Ssb> ssb;
};

ExecPolicy PinnedHybrid() {
  ExecPolicy policy = TestEnv::Tune(ExecPolicy::Hybrid(3));
  policy.load_balance = false;
  return policy;
}

bool PlanUsesGpu(const plan::HetPlan& plan) {
  return std::any_of(plan.nodes.begin(), plan.nodes.end(),
                     [](const plan::HetOpNode& n) {
                       return n.kind == plan::HetOpNode::Kind::kCpu2Gpu;
                     });
}

// ---------------------------------------------------------------------------
// The acceptance pin: an injector that is present but disabled — even with
// every rate armed at 1.0 — changes nothing. Rows and the modeled virtual
// latency are identical to a system built with pristine default fault options.
// ---------------------------------------------------------------------------

TEST(ChaosTest, DisabledInjectorWithArmedRatesIsByteIdentical) {
  sim::FaultOptions armed;  // every rate set, but enabled == false
  armed.enabled = false;
  armed.seed = 7;
  armed.dma_fault_rate = 1.0;
  armed.kernel_fault_rate = 1.0;
  armed.staging_fault_rate = 1.0;
  armed.compile_fault_rate = 1.0;

  ChaosEnv plain{sim::FaultOptions{}};
  ChaosEnv shadow{armed};
  const auto spec = plain.ssb->Query(2, 1);

  // Single CPU worker: fully deterministic virtual timeline, so the modeled
  // latency itself must match to the last bit, not just the rows.
  ExecPolicy solo = TestEnv::Tune(ExecPolicy::CpuOnly(1));
  QueryExecutor plain_exec(plain.system.get());
  QueryExecutor shadow_exec(shadow.system.get());
  const QueryResult a = plain_exec.Execute(spec, solo);
  const QueryResult b = shadow_exec.Execute(spec, solo);
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.rows, plain.Reference(spec));
  EXPECT_DOUBLE_EQ(a.modeled_seconds, b.modeled_seconds);

  // A DMA-heavy hybrid run crosses every injection site; rows stay identical
  // and the disarmed injector never counted anything.
  const QueryResult ha = plain_exec.Execute(spec, PinnedHybrid());
  const QueryResult hb = shadow_exec.Execute(spec, PinnedHybrid());
  ASSERT_TRUE(ha.status.ok()) << ha.status.ToString();
  ASSERT_TRUE(hb.status.ok()) << hb.status.ToString();
  EXPECT_EQ(ha.rows, hb.rows);

  const auto c = shadow.system->fault().counters();
  EXPECT_EQ(c.dma_faults, 0u);
  EXPECT_EQ(c.kernel_faults, 0u);
  EXPECT_EQ(c.staging_faults, 0u);
  EXPECT_EQ(c.compile_faults, 0u);
  EXPECT_EQ(c.device_loss_rejections, 0u);
}

// ---------------------------------------------------------------------------
// Scripted whole-device loss.
// ---------------------------------------------------------------------------

TEST(ChaosTest, AllGpusLostBeforePlanningFallsBackToCpuOnly) {
  sim::FaultOptions f;
  f.enabled = true;  // zero rates: only the scripted health registry acts
  ChaosEnv env{f};
  env.system->fault().LoseGpu(0, /*from=*/0.0);
  env.system->fault().LoseGpu(1, /*from=*/0.0);

  // Optimizer path: the planner sees the empty surviving-device set and picks
  // a CPU-only plan — the query degrades, it does not fail.
  const auto spec = env.ssb->Query(3, 1);
  QueryExecutor executor(env.system.get());
  const QueryResult r = executor.Execute(spec);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.rows, env.Reference(spec));
  // Nothing was ever launched at a dead device.
  EXPECT_EQ(env.system->fault().counters().device_loss_rejections, 0u);

  // A pinned GPU policy has no freedom to re-place: the loss is terminal,
  // surfaced as the named kDeviceLost through Wait().
  QueryScheduler scheduler(env.system.get());
  SubmitOptions opts;
  opts.policy = TestEnv::Tune(ExecPolicy::GpuOnly());
  const QueryResult pinned = scheduler.Wait(scheduler.Submit(spec, opts));
  EXPECT_EQ(pinned.status.code(), StatusCode::kDeviceLost)
      << pinned.status.ToString();
  EXPECT_FALSE(pinned.replanned);
  EXPECT_FALSE(pinned.fault.ok());
  env.ExpectNoLeaks();
}

TEST(ChaosTest, DeviceLossAfterPlanningReplansOntoSurvivors) {
  sim::FaultOptions f;
  f.enabled = true;
  ChaosEnv env{f};
  const auto spec = env.ssb->Query(1, 1);
  QueryExecutor executor(env.system.get());

  // What does the optimizer pick while every device is healthy?
  plan::OptimizeResult probe;
  ASSERT_TRUE(executor
                  .OptimizeAt(spec, ExecPolicy{},
                              env.system->VirtualHorizon(), &probe)
                  .ok());
  const bool planned_on_gpu = PlanUsesGpu(probe.best().plan);

  // Both GPUs die just after the planning instant (the scheduler anchors the
  // query at the horizon): a GPU plan launches into the loss window, fails
  // with kDeviceLost, and the scheduler re-plans the query on the surviving
  // (CPU-only) device set.
  const sim::VTime lost_at = env.system->VirtualHorizon() + 1e-4;
  env.system->fault().LoseGpu(0, lost_at);
  env.system->fault().LoseGpu(1, lost_at);

  QueryScheduler scheduler(env.system.get(), {.max_concurrent = 1});
  const QueryResult r = scheduler.Wait(scheduler.Submit(spec, {}));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.rows, env.Reference(spec));
  if (planned_on_gpu) {
    EXPECT_TRUE(r.replanned);
    EXPECT_TRUE(r.degraded);
    EXPECT_GE(r.retries, 1);
    EXPECT_EQ(r.fault.code(), StatusCode::kDeviceLost) << r.fault.ToString();
  }
  env.ExpectNoLeaks();
}

// ---------------------------------------------------------------------------
// Deterministic transient faults: rate 1.0 makes every draw fire regardless of
// thread interleaving, so the retry loop's exhaustion is exactly observable.
// ---------------------------------------------------------------------------

TEST(ChaosTest, CertainDmaFaultExhaustsRetriesWithNamedStatus) {
  sim::FaultOptions f;
  f.enabled = true;
  f.dma_fault_rate = 1.0;
  ChaosEnv env{f};
  const auto spec = env.ssb->Query(1, 1);

  QueryScheduler scheduler(env.system.get());
  SubmitOptions opts;
  opts.policy = TestEnv::Tune(ExecPolicy::GpuOnly());  // must cross the bus
  const QueryResult r = scheduler.Wait(scheduler.Submit(spec, opts));
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable) << r.status.ToString();
  EXPECT_EQ(r.retries, scheduler.options().max_retries);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.fault.code(), StatusCode::kUnavailable);
  EXPECT_GT(env.system->fault().counters().dma_faults, 0u);
  env.ExpectNoLeaks();
}

TEST(ChaosTest, CertainStagingSpikeExhaustsRetriesWithNamedStatus) {
  sim::FaultOptions f;
  f.enabled = true;
  f.staging_fault_rate = 1.0;
  ChaosEnv env{f};
  const auto spec = env.ssb->Query(1, 1);

  QueryScheduler scheduler(env.system.get());
  SubmitOptions opts;
  opts.policy = TestEnv::Tune(ExecPolicy::CpuOnly(2));
  const QueryResult r = scheduler.Wait(scheduler.Submit(spec, opts));
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted)
      << r.status.ToString();
  EXPECT_EQ(r.retries, scheduler.options().max_retries);
  EXPECT_TRUE(r.degraded);
  EXPECT_GT(env.system->fault().counters().staging_faults, 0u);
  env.ExpectNoLeaks();
}

// ---------------------------------------------------------------------------
// The chaos mix: pinned seeds, moderate rates, a scripted device-loss window,
// deadlines and cancellations — all at once, against a concurrent scheduler.
// Invariants that must hold for EVERY interleaving:
//   1. every query reaches exactly one terminal state, from the allowed set;
//   2. a query that reports OK reports exactly the fault-free reference rows
//      (degraded-mode recovery is bit-transparent);
//   3. after the drain nothing leaks: staging blocks, HT namespaces, DRAM
//      worker registrations;
//   4. degraded results name their causing fault.
// ---------------------------------------------------------------------------

TEST(ChaosTest, MixedWorkloadSurvivesInjectedFaultsAtPinnedSeeds) {
  const uint64_t kSeeds[] = {11, 23, 47};
  uint64_t injected_total = 0;

  for (const uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::FaultOptions f;
    f.enabled = true;
    f.seed = seed;
    f.dma_fault_rate = 0.02;
    f.kernel_fault_rate = 0.02;
    f.staging_fault_rate = 0.005;
    ChaosEnv env{f};

    const std::vector<std::pair<int, int>> mix = {
        {1, 1}, {1, 2}, {2, 1}, {3, 1}, {4, 1}, {4, 2}, {2, 1}, {1, 1}};
    std::vector<plan::QuerySpec> specs;
    std::vector<std::vector<std::vector<int64_t>>> refs;
    for (const auto& [flight, idx] : mix) {
      specs.push_back(env.ssb->Query(flight, idx));
      refs.push_back(env.Reference(specs.back()));
    }

    // One GPU drops out for a window in the middle of the busy period and
    // comes back: queries planned inside the window avoid it, queries caught
    // mid-flight re-plan around it.
    env.system->fault().LoseGpu(static_cast<int>(seed % 2), /*from=*/0.02,
                                /*until=*/0.12);

    {
      QueryScheduler scheduler(env.system.get(), {.max_concurrent = 3});
      std::vector<QueryHandle> handles;
      for (size_t i = 0; i < specs.size(); ++i) {
        SubmitOptions opts;
        if (i % 3 == 0) opts.policy = PinnedHybrid();  // pinned-path coverage
        if (i == 4) opts.deadline = 1e-6;  // expires under any execution
        if (i == 5) opts.deadline = 1e9;   // never expires
        handles.push_back(scheduler.Submit(specs[i], opts));
      }
      // One cancel lands on a (very likely) still-queued query, one on a
      // (very likely) running query; both states must terminate cleanly.
      EXPECT_TRUE(scheduler.Cancel(handles[7]).ok());
      EXPECT_TRUE(scheduler.Cancel(handles[1]).ok());

      for (size_t i = 0; i < handles.size(); ++i) {
        SCOPED_TRACE(specs[i].name + " (#" + std::to_string(i) + ")");
        const QueryResult r = scheduler.Wait(handles[i]);
        EXPECT_TRUE(IsChaosTerminal(r.status)) << r.status.ToString();
        if (r.status.ok()) {
          EXPECT_EQ(r.rows, refs[i]);
        } else if (r.status.code() == StatusCode::kCancelled ||
                   r.status.code() == StatusCode::kDeadlineExceeded) {
          EXPECT_TRUE(r.rows.empty());  // no partial rows ever surface
        }
        if (i == 4) {
          EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
              << r.status.ToString();
        }
        if (r.degraded) EXPECT_FALSE(r.fault.ok());
        if (r.replanned) EXPECT_GE(r.retries, 1);
        // The session's hash-table namespace is gone whatever the outcome.
        EXPECT_EQ(env.system->hts().NumTables(r.query_id), 0);
        // Exactly one terminal state: the handle is consumed, a second Wait
        // cannot observe another.
        EXPECT_FALSE(scheduler.Wait(handles[i]).status.ok());
      }
    }  // scheduler destructor drains everything still in flight

    env.ExpectNoLeaks();
    const auto c = env.system->fault().counters();
    injected_total += c.dma_faults + c.kernel_faults + c.staging_faults +
                      c.device_loss_rejections;
  }
  // The harness only proves something if faults actually fired somewhere
  // across the pinned seeds.
  EXPECT_GT(injected_total, 0u);
}

}  // namespace
}  // namespace hetex::core
