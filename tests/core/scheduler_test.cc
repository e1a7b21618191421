#include "core/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "test_util.h"

namespace hetex::core {
namespace {

using plan::ExecPolicy;
using test::TestEnv;

/// Deterministic hybrid policy: round-robin routing so the same plan assigns
/// the same blocks to the same instances run after run (latency comparisons
/// must not hinge on the adaptive balancer's thread-timing luck).
ExecPolicy PinnedHybrid() {
  ExecPolicy policy = TestEnv::Tune(ExecPolicy::Hybrid(3));
  policy.load_balance = false;
  return policy;
}

/// The mixed SSB workload the parity suite runs: at least one query per
/// flight, scalar and group-by aggregations, 1-3 joins.
std::vector<std::pair<int, int>> ParityQueries() {
  return {{1, 1}, {1, 2}, {2, 1}, {3, 1}, {4, 1}, {4, 2}};
}

// ---------------------------------------------------------------------------
// Concurrent-vs-serial parity: N SSB queries in flight against one System
// produce exactly the rows their serial runs produce.
// ---------------------------------------------------------------------------

TEST(SchedulerTest, ConcurrentVsSerialParityOnSsbMatrix) {
  TestEnv env(30'000);
  QueryExecutor executor(env.system.get());

  // Serial baseline (cost-based optimizer, one query at a time).
  std::vector<plan::QuerySpec> specs;
  std::vector<std::vector<std::vector<int64_t>>> serial_rows;
  for (const auto& [flight, idx] : ParityQueries()) {
    specs.push_back(env.ssb->Query(flight, idx));
    QueryResult serial = executor.Execute(specs.back());
    ASSERT_TRUE(serial.status.ok()) << serial.status.ToString();
    ASSERT_EQ(serial.rows, env.Reference(specs.back())) << specs.back().name;
    serial_rows.push_back(std::move(serial.rows));
  }

  // The same queries, all in flight at once (admission cap 4 exercises the
  // queue too). The optimizer runs per session, with the live backlog signal.
  std::vector<QueryHandle> handles;
  for (const auto& spec : specs) handles.push_back(executor.Submit(spec));
  for (size_t i = 0; i < handles.size(); ++i) {
    QueryResult concurrent = executor.Wait(handles[i]);
    ASSERT_TRUE(concurrent.status.ok())
        << specs[i].name << ": " << concurrent.status.ToString();
    EXPECT_EQ(concurrent.rows, serial_rows[i]) << specs[i].name;
    EXPECT_GT(concurrent.modeled_seconds, 0.0);
    // The session's hash-table namespace is gone once the query finished.
    EXPECT_EQ(env.system->hts().NumTables(concurrent.query_id), 0);
  }
}

// ---------------------------------------------------------------------------
// Cross-session program-cache sharing: concurrent sessions running the same
// plan shape re-finalize nothing once one session compiled the spans.
// ---------------------------------------------------------------------------

TEST(SchedulerTest, ProgramCacheHitsAcrossSessions) {
  TestEnv env(20'000);
  const auto spec = env.ssb->Query(2, 1);
  const ExecPolicy policy = TestEnv::Tune(ExecPolicy::CpuOnly(3));

  // Warm the cache with one solo run: every span program is now finalized.
  QueryExecutor executor(env.system.get());
  QueryResult warm = executor.Execute(spec, policy);
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();

  const auto before = env.system->program_cache().counters(sim::DeviceType::kCpu);

  std::vector<QueryHandle> handles;
  for (int i = 0; i < 4; ++i) handles.push_back(executor.Submit(spec, policy));
  for (auto& h : handles) {
    QueryResult r = executor.Wait(h);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.rows, warm.rows);
  }

  const auto after = env.system->program_cache().counters(sim::DeviceType::kCpu);
  // Every instance of every concurrent session hit the warm shared cache.
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
}

// ---------------------------------------------------------------------------
// HtRegistry regression: two simultaneous queries joining the same dimension
// table used to collide on the (join id, unit) key; query-scoped namespaces
// keep their hash tables disjoint.
// ---------------------------------------------------------------------------

TEST(SchedulerTest, SimultaneousQueriesJoiningSameDimensionTable) {
  TestEnv env(20'000);
  // Q1.1 and Q1.2 both broadcast-build a hash table over `date` with join id
  // 0 on the same units; so do two copies of Q1.1.
  const auto q11 = env.ssb->Query(1, 1);
  const auto q12 = env.ssb->Query(1, 2);
  const auto expected_q11 = env.Reference(q11);
  const auto expected_q12 = env.Reference(q12);

  QueryExecutor executor(env.system.get());
  const ExecPolicy policy = PinnedHybrid();
  for (int round = 0; round < 3; ++round) {
    QueryHandle a = executor.Submit(q11, policy);
    QueryHandle b = executor.Submit(q12, policy);
    QueryHandle c = executor.Submit(q11, policy);
    QueryResult ra = executor.Wait(a);
    QueryResult rb = executor.Wait(b);
    QueryResult rc = executor.Wait(c);
    ASSERT_TRUE(ra.status.ok()) << ra.status.ToString();
    ASSERT_TRUE(rb.status.ok()) << rb.status.ToString();
    ASSERT_TRUE(rc.status.ok()) << rc.status.ToString();
    EXPECT_EQ(ra.rows, expected_q11);
    EXPECT_EQ(rb.rows, expected_q12);
    EXPECT_EQ(rc.rows, expected_q11);
    // All three namespaces dropped.
    for (const auto& r : {ra, rb, rc}) {
      EXPECT_EQ(env.system->hts().NumTables(r.query_id), 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Contention can only slow, never speed up: a query sharing the server with
// three others never beats its solo latency.
// ---------------------------------------------------------------------------

TEST(SchedulerTest, ConcurrentLatencyNeverBeatsSolo) {
  TestEnv env(30'000);
  QueryExecutor executor(env.system.get());
  const ExecPolicy policy = PinnedHybrid();

  std::vector<plan::QuerySpec> specs;
  std::vector<double> solo;
  for (const auto& [flight, idx] : {std::pair{1, 1}, {2, 1}, {3, 1}, {4, 1}}) {
    specs.push_back(env.ssb->Query(flight, idx));
    QueryResult r = executor.Execute(specs.back(), policy);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    solo.push_back(r.modeled_seconds);
  }

  std::vector<QueryHandle> handles;
  for (const auto& spec : specs) handles.push_back(executor.Submit(spec, policy));
  for (size_t i = 0; i < handles.size(); ++i) {
    QueryResult r = executor.Wait(handles[i]);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    // Small tolerance: per-run jitter from the order concurrent producers of
    // ONE query reserve the shared links (present solo too); contention across
    // queries can only push the latency up.
    EXPECT_GE(r.modeled_seconds, solo[i] * 0.98)
        << specs[i].name << " concurrent " << r.modeled_seconds << " vs solo "
        << solo[i];
  }
}

// ---------------------------------------------------------------------------
// Solo latency through the session machinery is the old reset-model latency:
// back-to-back runs see fresh resources every time.
// ---------------------------------------------------------------------------

TEST(SchedulerTest, SoloLatencyStableAcrossRepeatedRuns) {
  TestEnv env(20'000);
  QueryExecutor executor(env.system.get());
  const auto spec = env.ssb->Query(2, 1);
  const ExecPolicy policy = PinnedHybrid();

  QueryResult first = executor.Execute(spec, policy);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  for (int i = 0; i < 3; ++i) {
    QueryResult again = executor.Execute(spec, policy);
    ASSERT_TRUE(again.status.ok());
    // No residual backlog from earlier queries leaks into a fresh session.
    EXPECT_NEAR(again.modeled_seconds, first.modeled_seconds,
                0.02 * first.modeled_seconds);
  }

  // Serial submission through the scheduler (cap 1) matches the solo path.
  QueryScheduler serial(env.system.get(), {.max_concurrent = 1});
  SubmitOptions opts;
  opts.policy = policy;
  QueryHandle h = serial.Submit(spec, opts);
  QueryResult scheduled = serial.Wait(h);
  ASSERT_TRUE(scheduled.status.ok());
  EXPECT_NEAR(scheduled.modeled_seconds, first.modeled_seconds,
              0.02 * first.modeled_seconds);
}

// ---------------------------------------------------------------------------
// Admission control: the concurrency cap and the per-query memory budget both
// gate how many queries run at once.
// ---------------------------------------------------------------------------

TEST(SchedulerTest, AdmissionCapBoundsInFlightQueries) {
  TestEnv env(20'000);
  QueryScheduler scheduler(env.system.get(), {.max_concurrent = 2});
  const auto spec = env.ssb->Query(1, 1);
  const auto expected = env.Reference(spec);

  SubmitOptions opts;
  opts.policy = PinnedHybrid();
  std::vector<QueryHandle> handles;
  for (int i = 0; i < 6; ++i) handles.push_back(scheduler.Submit(spec, opts));
  EXPECT_LE(scheduler.in_flight(), 2);
  for (auto& h : handles) {
    EXPECT_LE(scheduler.in_flight(), 2);
    QueryResult r = scheduler.Wait(h);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.rows, expected);
  }
}

TEST(SchedulerTest, MemoryBudgetSerializesOversizedQueries) {
  TestEnv env(20'000);
  QueryScheduler probe(env.system.get());
  const uint64_t total = probe.total_budget_blocks();
  ASSERT_GT(total, 0u);

  // Every query demands the whole arena: the cap alone would admit 4, the
  // memory budget admits one at a time.
  QueryScheduler scheduler(env.system.get(),
                           {.max_concurrent = 4, .memory_budget_blocks = total});
  const auto spec = env.ssb->Query(1, 1);
  const auto expected = env.Reference(spec);
  SubmitOptions opts;
  opts.policy = PinnedHybrid();
  std::vector<QueryHandle> handles;
  for (int i = 0; i < 3; ++i) handles.push_back(scheduler.Submit(spec, opts));
  EXPECT_LE(scheduler.in_flight(), 1);
  for (auto& h : handles) {
    EXPECT_LE(scheduler.in_flight(), 1);
    QueryResult r = scheduler.Wait(h);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.rows, expected);
  }
}

// ---------------------------------------------------------------------------
// Session plumbing details.
// ---------------------------------------------------------------------------

TEST(SchedulerTest, ArrivalOffsetsDelaySessions) {
  TestEnv env(20'000);
  QueryScheduler scheduler(env.system.get(), {.max_concurrent = 2});
  const auto spec = env.ssb->Query(1, 1);

  SubmitOptions now;
  now.policy = PinnedHybrid();
  SubmitOptions later = now;
  later.arrival_offset = 0.5;  // arrives half a virtual second into the batch

  QueryHandle a = scheduler.Submit(spec, now);
  QueryHandle b = scheduler.Submit(spec, later);
  QueryResult ra = scheduler.Wait(a);
  QueryResult rb = scheduler.Wait(b);
  ASSERT_TRUE(ra.status.ok());
  ASSERT_TRUE(rb.status.ok());
  EXPECT_DOUBLE_EQ(ra.arrival_offset, 0.0);
  EXPECT_DOUBLE_EQ(rb.arrival_offset, 0.5);
  // The late arrival finds idle resources (the early query is long done in
  // virtual time): its own latency is unaffected by the offset.
  EXPECT_NEAR(rb.modeled_seconds, ra.modeled_seconds,
              0.05 * ra.modeled_seconds);
}

// ---------------------------------------------------------------------------
// UVA link occupancy end to end: a bare-GPU (UVA) query's kernel bytes occupy
// the PCIe link BandwidthServer, so a DMA-heavy query sharing the link and the
// virtual timeline runs slower than solo.
// ---------------------------------------------------------------------------

/// Custom contention server: fixed latencies scaled down so the 10 ms router
/// bring-up does not drown the bandwidth effects under test, and (optionally)
/// one many-core socket where the 45 GB/s DRAM aggregate genuinely binds.
struct ContentionEnv {
  ContentionEnv(int sockets, int cores_per_socket, int gpus,
                uint64_t lineorder_rows) {
    System::Options opts;
    opts.topology.num_sockets = sockets;
    opts.topology.cores_per_socket = cores_per_socket;
    opts.topology.num_gpus = gpus;
    opts.topology.gpu_sim_threads = 2;
    opts.topology.host_capacity_per_socket = 4ull << 30;
    opts.topology.gpu_capacity = 1ull << 30;
    opts.topology.cost_model.ScaleFixedLatencies(0.001);
    opts.blocks.block_bytes = 64 << 10;
    opts.blocks.host_arena_blocks = 256;
    opts.blocks.gpu_arena_blocks = 128;
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

  std::unique_ptr<System> system;
  std::unique_ptr<ssb::Ssb> ssb;
};

TEST(SchedulerTest, DmaQuerySlowsDownBehindConcurrentUvaQuery) {
  ContentionEnv env(2, 2, 2, 60'000);
  QueryExecutor executor(env.system.get());
  const auto spec = env.ssb->Query(1, 1);

  ExecPolicy gpu_policy = TestEnv::Tune(ExecPolicy::GpuOnly());
  gpu_policy.load_balance = false;  // deterministic block routing
  const plan::HetPlan dma_plan =
      plan::BuildHetPlan(spec, gpu_policy, env.system->topology());
  const plan::HetPlan uva_plan = plan::BuildHetPlan(
      spec, ExecPolicy::Bare(sim::DeviceType::kGpu), env.system->topology());

  // Solo baseline of the DMA-heavy plan (idle arrival).
  QueryResult solo = executor.ExecutePlan(spec, dma_plan);
  ASSERT_TRUE(solo.status.ok()) << solo.status.ToString();

  // The UVA query runs first; its epoch is offset by the DMA query's
  // per-query set-up (its routers wake parked workers) so the two sessions'
  // link activity overlaps in virtual time (the bare plan has no routers and
  // starts streaming immediately). Its kernels leave real occupancy on gpu0's
  // link; the DMA query then joins the earlier epoch and its fact-table
  // transfers queue behind the UVA streams.
  const sim::VTime epoch = env.system->VirtualHorizon();
  const sim::VTime init = env.system->cost_model().task_spawn_latency;
  QueryResult uva = executor.ExecutePlan(
      spec, uva_plan, QuerySession{env.system->NextQueryId(), epoch + init});
  ASSERT_TRUE(uva.status.ok()) << uva.status.ToString();
  ASSERT_EQ(uva.rows, solo.rows);

  QueryResult contended = executor.ExecutePlan(
      spec, dma_plan, QuerySession{env.system->NextQueryId(), epoch});
  ASSERT_TRUE(contended.status.ok()) << contended.status.ToString();
  EXPECT_EQ(contended.rows, solo.rows);
  // Visible slowdown, not just noise: the UVA query streamed the whole fact
  // table over link 0 ahead of this session's transfers.
  EXPECT_GT(contended.modeled_seconds, solo.modeled_seconds * 1.05)
      << "contended " << contended.modeled_seconds << " vs solo "
      << solo.modeled_seconds;
}

// ---------------------------------------------------------------------------
// Cross-session CPU DRAM contention: a socket's fluid shares divide across
// every in-flight session's workers, not just one query's.
// ---------------------------------------------------------------------------

TEST(SchedulerTest, OtherSessionsWorkersShrinkDramFluidShare) {
  // One socket x 12 cores, no GPUs: 12 solo workers stream at 45/12 GB/s each.
  // The scan reads 4-byte measures, so it stays DRAM-bound.
  ContentionEnv env(1, 12, 0, 60'000);
  QueryExecutor executor(env.system.get());
  const auto spec = test::WideMeasureScan(*env.ssb, env.system.get());
  ExecPolicy policy = TestEnv::Tune(ExecPolicy::CpuOnly(12));
  policy.load_balance = false;

  sim::DramServer& dram = env.system->topology().socket_dram(0);
  const uint64_t gen_before = dram.generation();
  QueryResult solo = executor.Execute(spec, policy);
  ASSERT_TRUE(solo.status.ok()) << solo.status.ToString();
  // The runtime itself registered (and released) this query's workers: one
  // register/release pair per execution phase (builds, fact chain). Without
  // this, every contention assertion below could pass against a runtime that
  // silently stopped charging cross-session DRAM.
  EXPECT_EQ(dram.generation() - gen_before, 4u);
  EXPECT_EQ(dram.active_workers(), 0);

  // A phantom in-flight session holds 12 workers on socket 0: every worker's
  // share drops from 45/12 to 45/24 GB/s, and the bandwidth-bound scan phase
  // slows visibly — deterministically, no thread-timing luck involved.
  const uint64_t token = dram.Register(/*session=*/999'999, /*epoch=*/0.0, 12);
  QueryResult contended = executor.Execute(spec, policy);
  dram.Release(token);
  ASSERT_TRUE(contended.status.ok()) << contended.status.ToString();
  EXPECT_EQ(contended.rows, solo.rows);
  EXPECT_GT(contended.modeled_seconds, solo.modeled_seconds * 1.2)
      << "contended " << contended.modeled_seconds << " vs solo "
      << solo.modeled_seconds;

  // Released: the next solo run is back on the solo timeline.
  QueryResult after = executor.Execute(spec, policy);
  ASSERT_TRUE(after.status.ok());
  EXPECT_NEAR(after.modeled_seconds, solo.modeled_seconds,
              0.02 * solo.modeled_seconds);

  // Self-exclusion: a registration under the query's OWN session id is not
  // charged — the id threads through WorkerInstance into every provider, so
  // a query never divides by its own phase registrations twice.
  const uint64_t qid = env.system->NextQueryId();
  const plan::HetPlan plan =
      plan::BuildHetPlan(spec, policy, env.system->topology());
  const uint64_t self = dram.Register(qid, 0.0, 12);
  QueryResult self_run = executor.ExecutePlan(
      spec, plan, QuerySession{qid, env.system->VirtualHorizon()});
  dram.Release(self);
  ASSERT_TRUE(self_run.status.ok()) << self_run.status.ToString();
  EXPECT_NEAR(self_run.modeled_seconds, solo.modeled_seconds,
              0.02 * solo.modeled_seconds);
}

TEST(SchedulerTest, ConcurrentSessionsOnOneSocketEachGetReducedShare) {
  ContentionEnv env(1, 12, 0, 30'000);
  System* system = env.system.get();
  QueryExecutor executor(system);
  const auto spec = env.ssb->Query(1, 1);
  ExecPolicy policy = TestEnv::Tune(ExecPolicy::CpuOnly(12));
  policy.load_balance = false;

  QueryResult solo = executor.Execute(spec, policy);
  ASSERT_TRUE(solo.status.ok()) << solo.status.ToString();

  // Two sessions in flight on the one socket: each runs wall-clock
  // concurrently with the other, so each divides the DRAM aggregate by both
  // sessions' workers for the overlapping part of its lifetime. Contention
  // can only slow them down, never speed them up.
  QueryScheduler scheduler(system, {.max_concurrent = 2});
  SubmitOptions opts;
  opts.policy = policy;
  QueryHandle a = scheduler.Submit(spec, opts);
  QueryHandle b = scheduler.Submit(spec, opts);
  QueryResult ra = scheduler.Wait(a);
  QueryResult rb = scheduler.Wait(b);
  ASSERT_TRUE(ra.status.ok()) << ra.status.ToString();
  ASSERT_TRUE(rb.status.ok()) << rb.status.ToString();
  EXPECT_EQ(ra.rows, solo.rows);
  EXPECT_EQ(rb.rows, solo.rows);
  EXPECT_GE(ra.modeled_seconds, solo.modeled_seconds * 0.98);
  EXPECT_GE(rb.modeled_seconds, solo.modeled_seconds * 0.98);
}

// ---------------------------------------------------------------------------
// Cancellation and deadlines against the admission queue.
// ---------------------------------------------------------------------------

TEST(SchedulerTest, CancelWhileQueuedFreesSlotWithoutStarting) {
  TestEnv env(20'000);
  QueryScheduler scheduler(env.system.get(), {.max_concurrent = 1});
  const auto spec = env.ssb->Query(3, 1);
  const auto expected = env.Reference(spec);
  SubmitOptions opts;
  opts.policy = PinnedHybrid();

  QueryHandle a = scheduler.Submit(spec, opts);
  QueryHandle b = scheduler.Submit(spec, opts);
  QueryHandle c = scheduler.Submit(spec, opts);
  EXPECT_TRUE(scheduler.Cancel(b).ok());

  // The cancelled query terminates in place: it never held a slot or budget,
  // never opened a session, never produced a row.
  QueryResult rb = scheduler.Wait(b);
  EXPECT_EQ(rb.status.code(), StatusCode::kCancelled) << rb.status.ToString();
  EXPECT_TRUE(rb.rows.empty());
  EXPECT_EQ(rb.retries, 0);
  EXPECT_FALSE(rb.degraded);
  EXPECT_EQ(env.system->hts().NumTables(rb.query_id), 0);

  // Admission moves on past the hole: both survivors run to completion.
  QueryResult ra = scheduler.Wait(a);
  QueryResult rc = scheduler.Wait(c);
  ASSERT_TRUE(ra.status.ok()) << ra.status.ToString();
  ASSERT_TRUE(rc.status.ok()) << rc.status.ToString();
  EXPECT_EQ(ra.rows, expected);
  EXPECT_EQ(rc.rows, expected);
}

TEST(SchedulerTest, CancelRunningQueryStopsCooperativelyAndReleasesAll) {
  TestEnv env(60'000);
  QueryScheduler scheduler(env.system.get(), {.max_concurrent = 1});
  const auto spec = env.ssb->Query(2, 1);
  SubmitOptions opts;
  opts.policy = PinnedHybrid();

  // Hold every GPU staging block, so the query cannot finish before the
  // cancel lands: its first mem-move into a GPU waits for a block until the
  // cancellation wakes it.
  std::vector<std::pair<memory::BlockManager*, memory::Block*>> held;
  for (sim::MemNodeId node : env.system->GpuNodes()) {
    memory::BlockManager& arena = env.system->blocks().manager(node);
    while (memory::Block* b = arena.Acquire()) held.emplace_back(&arena, b);
  }
  QueryHandle a = scheduler.Submit(spec, opts);
  EXPECT_TRUE(scheduler.Cancel(a).ok());
  QueryResult ra = scheduler.Wait(a);
  for (auto [arena, b] : held) arena->Release(b);
  EXPECT_EQ(ra.status.code(), StatusCode::kCancelled) << ra.status.ToString();
  EXPECT_TRUE(ra.rows.empty());  // the authoritative stamp clears partials

  // Everything the aborted run held is back: staging blocks, HT namespaces,
  // DRAM registrations — and the scheduler keeps serving queries.
  for (sim::MemNodeId node : env.system->HostNodes()) {
    EXPECT_EQ(env.system->blocks().manager(node).in_use(), 0u);
  }
  for (sim::MemNodeId node : env.system->GpuNodes()) {
    EXPECT_EQ(env.system->blocks().manager(node).in_use(), 0u);
  }
  EXPECT_EQ(env.system->hts().TotalHtBytes(), 0u);

  QueryResult after = scheduler.Wait(scheduler.Submit(spec, opts));
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_EQ(after.rows, env.Reference(spec));
}

TEST(SchedulerTest, CancelUnknownAndFinishedHandles) {
  TestEnv env(20'000);
  QueryScheduler scheduler(env.system.get(), {.max_concurrent = 1});
  EXPECT_EQ(scheduler.Cancel(QueryHandle{424242}).code(),
            StatusCode::kInvalidArgument);
  const auto spec = env.ssb->Query(1, 1);
  SubmitOptions opts;
  opts.policy = PinnedHybrid();

  // Finished-but-unwaited: Cancel is an OK no-op, the result survives intact.
  QueryHandle h = scheduler.Submit(spec, opts);
  while (scheduler.in_flight() > 0 || scheduler.queued() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(scheduler.Cancel(h).ok());
  QueryResult r = scheduler.Wait(h);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.rows, env.Reference(spec));

  // Waited handles are gone: cancelling one is InvalidArgument, idempotently.
  EXPECT_EQ(scheduler.Cancel(h).code(), StatusCode::kInvalidArgument);
}

TEST(SchedulerTest, DeadlineExpiredInQueueNeverExecutes) {
  TestEnv env(20'000);
  QueryScheduler scheduler(env.system.get(), {.max_concurrent = 1});
  const auto spec = env.ssb->Query(2, 1);
  SubmitOptions opts;
  opts.policy = PinnedHybrid();

  QueryHandle a = scheduler.Submit(spec, opts);  // occupies the only slot
  SubmitOptions hopeless = opts;
  hopeless.deadline = 1e-9;  // far below any possible queue wait
  QueryHandle b = scheduler.Submit(spec, hopeless);

  QueryResult rb = scheduler.Wait(b);
  EXPECT_EQ(rb.status.code(), StatusCode::kDeadlineExceeded)
      << rb.status.ToString();
  EXPECT_TRUE(rb.rows.empty());
  EXPECT_EQ(rb.retries, 0);
  // Almost always b queues behind a and the deadline expires in the queue —
  // then it must never have started executing. (If a's worker happened to
  // finish on the wall clock before b's submission, the server went idle, b
  // ran immediately and the deadline killed it mid-flight instead; both are
  // correct terminal paths.)
  if (rb.queue_wait > 0) EXPECT_EQ(rb.modeled_seconds, 0.0);
  QueryResult ra = scheduler.Wait(a);
  ASSERT_TRUE(ra.status.ok()) << ra.status.ToString();
}

TEST(SchedulerTest, DeadlineDuringExecutionAndGenerousDeadline) {
  TestEnv env(30'000);
  QueryExecutor executor(env.system.get());
  const auto spec = env.ssb->Query(2, 1);
  const ExecPolicy policy = PinnedHybrid();
  QueryResult solo = executor.Execute(spec, policy);
  ASSERT_TRUE(solo.status.ok()) << solo.status.ToString();

  QueryScheduler scheduler(env.system.get(), {.max_concurrent = 1});
  SubmitOptions opts;
  opts.policy = policy;

  // Half the known solo latency: the query starts, overruns mid-flight, and
  // terminates with the deadline status and no partial rows.
  SubmitOptions tight = opts;
  tight.deadline = solo.modeled_seconds / 2;
  QueryResult late = scheduler.Wait(scheduler.Submit(spec, tight));
  EXPECT_EQ(late.status.code(), StatusCode::kDeadlineExceeded)
      << late.status.ToString();
  EXPECT_TRUE(late.rows.empty());

  // Ten times the solo latency: the deadline is inert.
  SubmitOptions loose = opts;
  loose.deadline = solo.modeled_seconds * 10;
  QueryResult fine = scheduler.Wait(scheduler.Submit(spec, loose));
  ASSERT_TRUE(fine.status.ok()) << fine.status.ToString();
  EXPECT_EQ(fine.rows, solo.rows);
  EXPECT_FALSE(fine.degraded);
}

TEST(SchedulerTest, WaitOnUnknownHandleFails) {
  TestEnv env(20'000);
  QueryScheduler scheduler(env.system.get());
  QueryResult r = scheduler.Wait(QueryHandle{9999});
  EXPECT_FALSE(r.status.ok());
}

TEST(SchedulerTest, DestructorDrainsUnwaitedQueries) {
  TestEnv env(20'000);
  const auto spec = env.ssb->Query(1, 1);
  {
    QueryScheduler scheduler(env.system.get(), {.max_concurrent = 2});
    SubmitOptions opts;
    opts.policy = PinnedHybrid();
    for (int i = 0; i < 4; ++i) scheduler.Submit(spec, opts);
    // Never waited: the destructor must drain them without leaking state.
  }
  EXPECT_EQ(env.system->hts().TotalHtBytes(), 0u);
}

}  // namespace
}  // namespace hetex::core
