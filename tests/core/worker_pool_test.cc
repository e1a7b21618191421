// The System's worker pool: every per-query thread (worker-group instances,
// segmenters, scheduled queries) runs on it as a task. A task never waits for
// a busy thread, joining a ticket means the task's function has returned,
// and a warm System starts no thread for a query.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/scheduler.h"
#include "core/worker_pool.h"
#include "test_util.h"

namespace hetex::core {
namespace {

using plan::ExecPolicy;
using test::TestEnv;

TEST(WorkerPoolTest, ParkedThreadsRunLaterTasks) {
  WorkerPool pool;
  int runs = 0;
  for (int i = 0; i < 5; ++i) pool.Spawn([&] { ++runs; }).Join();
  EXPECT_EQ(runs, 5);
  EXPECT_EQ(pool.counters().threads_started, 1u);
  EXPECT_EQ(pool.counters().tasks_run, 5u);
}

TEST(WorkerPoolTest, NeverQueuesATaskBehindABusyThread) {
  // Each task waits until all of them run at once: a pool that queued one
  // behind a busy thread would never let them finish.
  constexpr int kTasks = 8;
  WorkerPool pool;
  for (int round = 0; round < 2; ++round) {
    std::mutex mu;
    std::condition_variable cv;
    int started = 0;
    std::vector<WorkerPool::Ticket> tickets;
    for (int i = 0; i < kTasks; ++i) {
      tickets.push_back(pool.Spawn([&] {
        std::unique_lock<std::mutex> lock(mu);
        ++started;
        cv.notify_all();
        cv.wait(lock, [&] { return started == kTasks; });
      }));
    }
    tickets.clear();  // joins
    EXPECT_EQ(started, kTasks);
    // The second round runs on the first round's parked threads.
    EXPECT_EQ(pool.counters().threads_started, static_cast<uint64_t>(kTasks));
  }
  EXPECT_EQ(pool.counters().tasks_run, 2u * kTasks);
}

TEST(WorkerPoolTest, JoinReturnsAfterTheFunctionAndItsCapturesAreGone) {
  WorkerPool pool;
  auto capture = std::make_shared<int>(0);
  std::atomic<bool> returning{false};
  WorkerPool::Ticket ticket = pool.Spawn([capture, &returning] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    returning.store(true);
  });
  ticket.Join();
  EXPECT_TRUE(returning.load());
  EXPECT_EQ(capture.use_count(), 1);  // the task's copy is destroyed
  ticket.Join();                      // a joined ticket joins as a no-op
  EXPECT_EQ(pool.counters().tasks_run, 1u);
}

TEST(WorkerPoolTest, DestroyingOrReassigningATicketJoinsIt) {
  WorkerPool pool;
  std::atomic<int> done{0};
  auto slow = [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    done.fetch_add(1);
  };
  WorkerPool::Ticket ticket = pool.Spawn(slow);
  ticket = pool.Spawn(slow);  // joins the first task before taking the second
  EXPECT_GE(done.load(), 1);
  { WorkerPool::Ticket scoped = std::move(ticket); }
  EXPECT_EQ(done.load(), 2);
  ticket.Join();  // moved from: nothing to join
}

TEST(WorkerPoolTest, SpawnAfterReturnStartsOnceTheCallerHasParked) {
  WorkerPool pool;
  std::thread::id caller, second;
  std::atomic<bool> caller_joined{false};
  bool after_saw_join = false;
  WorkerPool::Ticket after_ticket, second_ticket;
  WorkerPool::Ticket ticket = pool.Spawn([&] {
    caller = std::this_thread::get_id();
    after_ticket = pool.SpawnAfterReturn([&] {
      // It starts once the caller's ticket has completed.
      for (int i = 0; i < 5000 && !caller_joined.load(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      after_saw_join = caller_joined.load();
    });
    // One per task: a second call spawns at once, here on a new thread.
    second_ticket =
        pool.SpawnAfterReturn([&] { second = std::this_thread::get_id(); });
  });
  ticket.Join();
  caller_joined.store(true);
  after_ticket.Join();
  second_ticket.Join();
  EXPECT_NE(second, caller);
  EXPECT_TRUE(after_saw_join);
  EXPECT_EQ(pool.counters().threads_started, 2u);  // none for the first
  EXPECT_EQ(pool.counters().tasks_run, 3u);

  // With another thread parked, the task takes that one.
  std::thread::id caller2, after2;
  WorkerPool::Ticket after2_ticket;
  pool.Spawn([&] {
        caller2 = std::this_thread::get_id();
        after2_ticket = pool.SpawnAfterReturn(
            [&] { after2 = std::this_thread::get_id(); });
      })
      .Join();
  after2_ticket.Join();
  EXPECT_NE(after2, caller2);

  // Off the pool's threads it is Spawn(), here on a parked thread.
  std::thread::id off_pool;
  pool.SpawnAfterReturn([&] { off_pool = std::this_thread::get_id(); }).Join();
  EXPECT_NE(off_pool, std::this_thread::get_id());
  EXPECT_EQ(pool.counters().threads_started, 2u);
}

/// hetbench's `ssb_pcie` System (the default paper server, 10 MiB of modeled
/// GPU memory, fixed latencies scaled by scale / SF200, 16 KiB blocks) on a
/// smaller data set.
struct SsbPcieEnv {
  static constexpr double kScale = 0.02;

  SsbPcieEnv() {
    System::Options o;
    o.reuse = ReuseOptions{};
    o.faults = sim::FaultOptions{};
    o.codegen = jit::CodegenOptions{};
    o.topology.gpu_capacity = 10ull << 20;
    o.topology.cost_model.ScaleFixedLatencies(kScale / 200);
    o.blocks.block_bytes = 16 << 10;
    o.blocks.host_arena_blocks = 768;
    o.blocks.gpu_arena_blocks = 384;
    system = std::make_unique<System>(o);
    ssb::Ssb::Options data;
    data.scale = kScale;
    ssb = std::make_unique<ssb::Ssb>(data, &system->catalog());
    for (const char* t : {"lineorder", "date", "customer", "supplier", "part"}) {
      HETEX_CHECK_OK(system->catalog().at(t).Place(system->HostNodes(),
                                                   &system->memory()));
    }
  }

  /// hetbench's closed-loop pass: each query optimized, then its pick run.
  void Pass() {
    QueryExecutor executor(system.get());
    ExecPolicy base;
    base.block_rows = 512;
    for (const auto& spec : ssb->AllQueries()) {
      plan::OptimizeResult opt;
      ASSERT_TRUE(executor.Optimize(spec, base, &opt).ok()) << spec.name;
      const QueryResult r = executor.ExecutePlan(spec, opt.best().plan);
      ASSERT_TRUE(r.status.ok()) << spec.name << ": " << r.status.ToString();
      EXPECT_EQ(r.rows, ssb::ReferenceExecute(spec, system->catalog())) << spec.name;
    }
  }

  std::unique_ptr<System> system;
  std::unique_ptr<ssb::Ssb> ssb;
};

TEST(WorkerPoolTest, AWarmSystemStartsNoThreadForAnSsbPass) {
  SsbPcieEnv env;
  const WorkerPool& pool = env.system->workers();
  EXPECT_EQ(pool.counters().threads_started, 0u);  // nothing runs before a query
  env.Pass();  // warm-up
  const WorkerPool::Counters warm = pool.counters();
  EXPECT_GT(warm.threads_started, 0u);
  env.Pass();
  const WorkerPool::Counters after = pool.counters();
  EXPECT_EQ(after.threads_started, warm.threads_started);
  // The second pass ran as many tasks as the first, every one on a thread
  // the first pass started.
  EXPECT_EQ(after.tasks_run, 2 * warm.tasks_run);
}

TEST(WorkerPoolTest, AWarmSystemStartsNoThreadForScheduledQueries) {
  // Scheduled queries pinned to two CPU workers, so each holds its scheduler
  // task, two instance tasks and a segmenter at once. At 256 rows a block a
  // scan is 78 blocks against a 16-block channel, so a segmenter lives
  // through its stage: four queries that start together hold all their
  // tasks at once, as a warm-up must for a later run to start no thread.
  TestEnv env(20'000);
  const std::vector<plan::QuerySpec> specs = env.ssb->AllQueries();
  SubmitOptions opts;
  opts.policy = TestEnv::Tune(ExecPolicy::CpuOnly(2));
  opts.policy->block_rows = 256;
  const WorkerPool& pool = env.system->workers();
  auto run = [&](int max_concurrent) {
    QueryScheduler scheduler(env.system.get(), {.max_concurrent = max_concurrent});
    std::vector<QueryHandle> handles;
    for (int i = 0; i < 100; ++i) {
      handles.push_back(scheduler.Submit(specs[i % specs.size()], opts));
    }
    for (const QueryHandle& h : handles) {
      const QueryResult r = scheduler.Wait(h);
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    }
    return pool.counters().threads_started;
  };

  // Each query waited on before the next is submitted: the pool holds as
  // many threads as one query holds tasks at once.
  {
    QueryScheduler scheduler(env.system.get(), {.max_concurrent = 1});
    for (const plan::QuerySpec& spec : specs) {
      ASSERT_TRUE(scheduler.Wait(scheduler.Submit(spec, opts)).status.ok());
    }
  }
  const uint64_t per_query = pool.counters().threads_started;
  ASSERT_GT(per_query, 1u);
  // A queued query starts once the query whose completion admits it has
  // parked its thread, so a batch served one at a time needs no thread more.
  EXPECT_EQ(run(1), per_query);

  // Four queries at once hold at most four times as many; after a warm-up at
  // concurrency 4, a run at concurrency 4 starts no thread.
  const uint64_t warm = run(4);
  EXPECT_LE(warm, 4 * per_query);
  const uint64_t tasks_before = pool.counters().tasks_run;
  EXPECT_EQ(run(4), warm);
  EXPECT_GT(pool.counters().tasks_run - tasks_before, 100u);  // every query ran tasks
}

}  // namespace
}  // namespace hetex::core
