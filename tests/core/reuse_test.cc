// Serving-layer cross-query reuse: single-flight shared hash-table builds
// (dedup, virtual-time attach gating, fault failover), the result cache
// (LRU bounds, mutation-epoch invalidation) and the default-off pin — with
// both knobs off, nothing reuse-related is observable.

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/ht_registry.h"
#include "core/result_cache.h"
#include "core/scheduler.h"
#include "core/system.h"
#include "test_util.h"

namespace hetex {
namespace {

using core::HtRegistry;
using core::ResultCache;
using core::SharedBuildLease;

memory::MemoryManager* Cpu0Memory(test::TestEnv& env) {
  return &env.system->memory().manager(
      env.system->topology().LocalMemNode(sim::DeviceId::Cpu(0)));
}

// ---------------------------------------------------------------------------
// HtRegistry shared-build promotion (registry level, TSan-clean)
// ---------------------------------------------------------------------------

TEST(ReuseTest, SingleFlightDedupUnderRace) {
  test::TestEnv env(4'000);
  HtRegistry registry;
  const std::string key = "dim@0;unit-test";
  constexpr int kThreads = 8;
  constexpr double kBuildDone = 3.5;

  std::atomic<int> builds{0};
  std::atomic<int> attaches{0};
  std::atomic<int> bad_ready_at{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const uint64_t query = 100 + static_cast<uint64_t>(t);
      const SharedBuildLease lease =
          registry.AcquireShared(key, query, /*control=*/nullptr);
      if (lease.role == SharedBuildLease::Role::kBuild) {
        builds.fetch_add(1);
        const Result<jit::JoinHashTable*> ht = registry.Create(
            query, /*join_id=*/0, sim::DeviceId::Cpu(0), Cpu0Memory(env),
            jit::JoinHashTable::Layout(/*capacity=*/64, 8, {8}));
        ASSERT_TRUE(ht.ok()) << ht.status().ToString();
        registry.PublishShared(key, query, /*join_id=*/0,
                               {{sim::DeviceId::Cpu(0), kBuildDone}});
      } else {
        ASSERT_EQ(lease.role, SharedBuildLease::Role::kAttach);
        attaches.fetch_add(1);
        // Virtual-time gate: every attacher observes the build's completion
        // epoch, regardless of when it won the race to the registry.
        if (lease.ready_at.at(sim::DeviceId::Cpu(0)) != kBuildDone) {
          bad_ready_at.fetch_add(1);
        }
        EXPECT_GT(registry.AttachShared(key, query, /*join_id=*/7), 0);
        EXPECT_NE(registry.Get(query, 7, sim::DeviceId::Cpu(0)), nullptr);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(builds.load(), 1) << "single-flight must dedup to exactly one build";
  EXPECT_EQ(attaches.load(), kThreads - 1);
  EXPECT_EQ(bad_ready_at.load(), 0);
  const HtRegistry::SharedStats stats = registry.shared_stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.attaches, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.failovers, 0u);
}

TEST(ReuseTest, AttacherSeesEachUnitsOwnReadyAt) {
  // A replica set publishes one completion per unit; an attacher gates each
  // unit on its own replica, not on the slowest one.
  test::TestEnv env(4'000);
  HtRegistry registry;
  const std::string key = "dim@0;per-unit-test";
  const sim::DeviceId cpu0 = sim::DeviceId::Cpu(0);
  const sim::DeviceId gpu0 = sim::DeviceId::Gpu(0);
  ASSERT_EQ(registry.AcquireShared(key, 1, nullptr).role,
            SharedBuildLease::Role::kBuild);
  registry.Create(1, 0, sim::DeviceId::Cpu(0), Cpu0Memory(env),
                  jit::JoinHashTable::Layout(64, 8, {8}));
  registry.Create(1, 0, sim::DeviceId::Gpu(0), Cpu0Memory(env),
                  jit::JoinHashTable::Layout(64, 8, {8}));
  registry.PublishShared(key, 1, 0, {{cpu0, 2.0}, {gpu0, 5.0}});

  const SharedBuildLease lease = registry.AcquireShared(key, 2, nullptr);
  ASSERT_EQ(lease.role, SharedBuildLease::Role::kAttach);
  EXPECT_EQ(lease.ready_at,
            (std::map<sim::DeviceId, sim::VTime>{{cpu0, 2.0}, {gpu0, 5.0}}));
  EXPECT_EQ(registry.AttachShared(key, 2, /*join_id=*/3), 2);
  EXPECT_EQ(registry.Get(2, 3, sim::DeviceId::Cpu(0)),
            registry.Get(1, 0, sim::DeviceId::Cpu(0)));
}

TEST(ReuseTest, FailedBuildPromotesExactlyOneWaiter) {
  test::TestEnv env(4'000);
  HtRegistry registry;
  const std::string key = "dim@0;failover-test";

  const SharedBuildLease first =
      registry.AcquireShared(key, /*query=*/1, nullptr);
  ASSERT_EQ(first.role, SharedBuildLease::Role::kBuild);

  constexpr int kWaiters = 4;
  std::atomic<int> builds{0};
  std::atomic<int> attaches{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&, t] {
      const uint64_t query = 10 + static_cast<uint64_t>(t);
      const SharedBuildLease lease = registry.AcquireShared(key, query, nullptr);
      if (lease.role == SharedBuildLease::Role::kBuild) {
        builds.fetch_add(1);
        registry.Create(query, 0, sim::DeviceId::Cpu(0), Cpu0Memory(env),
                        jit::JoinHashTable::Layout(64, 8, {8}));
        registry.PublishShared(key, query, 0, {{sim::DeviceId::Cpu(0), 1.0}});
      } else {
        ASSERT_EQ(lease.role, SharedBuildLease::Role::kAttach);
        attaches.fetch_add(1);
      }
    });
  }
  // The original builder faults out: exactly one waiter is promoted to
  // builder, the rest attach to the failover build — nobody is poisoned.
  registry.FailShared(key);
  for (auto& t : waiters) t.join();

  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(attaches.load(), kWaiters - 1);
  const HtRegistry::SharedStats stats = registry.shared_stats();
  EXPECT_EQ(stats.builds, 2u);  // original claim + failover promotion
  EXPECT_EQ(stats.failovers, 1u);
}

TEST(ReuseTest, SelfConflictFallsBackToPrivateBuild) {
  HtRegistry registry;
  const std::string key = "dim@0;self-test";
  const SharedBuildLease first = registry.AcquireShared(key, 5, nullptr);
  ASSERT_EQ(first.role, SharedBuildLease::Role::kBuild);
  // The same query acquiring the same in-flight key again must not deadlock
  // waiting on itself — it builds that join privately.
  const SharedBuildLease second = registry.AcquireShared(key, 5, nullptr);
  EXPECT_EQ(second.role, SharedBuildLease::Role::kPrivate);
  registry.FailShared(key);  // release the claim so the entry is not wedged
}

TEST(ReuseTest, EarlierSessionNeverUsesALaterSessionsBuild) {
  // Roles follow the sessions' virtual arrival, not which host thread asked
  // first: a session arriving before the builder's builds privately, whether
  // the build is still in flight or already published.
  test::TestEnv env(4'000);
  HtRegistry registry;
  const std::string key = "dim@0;causal-test";
  auto acquire = [&](uint64_t query, sim::VTime epoch) {
    return registry.AcquireShared(key, query, nullptr, "dim", 0, epoch).role;
  };
  ASSERT_EQ(acquire(1, /*epoch=*/2.0), SharedBuildLease::Role::kBuild);
  EXPECT_EQ(acquire(2, 1.0), SharedBuildLease::Role::kPrivate);  // in flight
  registry.Create(1, 0, sim::DeviceId::Cpu(0), Cpu0Memory(env),
                  jit::JoinHashTable::Layout(64, 8, {8}));
  registry.PublishShared(key, 1, 0, {{sim::DeviceId::Cpu(0), 2.5}});
  EXPECT_EQ(acquire(3, 1.0), SharedBuildLease::Role::kPrivate);  // published
  EXPECT_EQ(acquire(4, 2.0), SharedBuildLease::Role::kAttach);
  EXPECT_EQ(acquire(5, 3.0), SharedBuildLease::Role::kAttach);
  EXPECT_EQ(registry.shared_stats().attaches, 2u);
}

TEST(ReuseTest, CancelledWaiterBailsOut) {
  HtRegistry registry;
  const std::string key = "dim@0;cancel-test";
  ASSERT_EQ(registry.AcquireShared(key, 1, nullptr).role,
            SharedBuildLease::Role::kBuild);
  core::QueryControl control;
  control.cancelled.store(true);
  const SharedBuildLease lease = registry.AcquireShared(key, 2, &control);
  EXPECT_EQ(lease.role, SharedBuildLease::Role::kCancelled);
  registry.FailShared(key);
}

TEST(ReuseTest, DeadlineExpiredWaiterBailsOut) {
  // A query whose deadline already fired must not keep holding its admission
  // slot blocked on another query's in-flight build.
  HtRegistry registry;
  const std::string key = "dim@0;deadline-test";
  ASSERT_EQ(registry.AcquireShared(key, 1, nullptr).role,
            SharedBuildLease::Role::kBuild);
  core::QueryControl control;
  control.deadline = 0.5;
  control.deadline_hit.store(true);
  const SharedBuildLease lease = registry.AcquireShared(key, 2, &control);
  EXPECT_EQ(lease.role, SharedBuildLease::Role::kCancelled);
  registry.FailShared(key);
}

TEST(ReuseTest, StaleGenerationEvictedOnNewEpochAcquire) {
  // Content keys embed the table's mutation epoch, so entries from older
  // epochs can never be acquired again: claiming a new-generation key must
  // retire them, or mutation churn grows the registry without bound.
  test::TestEnv env(4'000);
  HtRegistry registry;
  ASSERT_EQ(registry.AcquireShared("dim@0;gc-test", 1, nullptr, "dim", 0).role,
            SharedBuildLease::Role::kBuild);
  registry.Create(1, 0, sim::DeviceId::Cpu(0), Cpu0Memory(env),
                  jit::JoinHashTable::Layout(64, 8, {8}));
  registry.PublishShared("dim@0;gc-test", 1, 0, {{sim::DeviceId::Cpu(0), 1.0}});
  EXPECT_EQ(registry.NumSharedEntries(), 1);

  ASSERT_EQ(registry.AcquireShared("dim@1;gc-test", 2, nullptr, "dim", 1).role,
            SharedBuildLease::Role::kBuild);
  EXPECT_EQ(registry.NumSharedEntries(), 1) << "stale dim@0 entry must retire";

  // Other tables' generations are untouched by dim's sweep.
  ASSERT_EQ(
      registry.AcquireShared("other@0;gc-test", 3, nullptr, "other", 0).role,
      SharedBuildLease::Role::kBuild);
  EXPECT_EQ(registry.NumSharedEntries(), 2);
  registry.FailShared("dim@1;gc-test");
  registry.FailShared("other@0;gc-test");
}

// ---------------------------------------------------------------------------
// ResultCache (unit level)
// ---------------------------------------------------------------------------

TEST(ReuseTest, ResultCacheLruEvictsWithinByteBudget) {
  ResultCache cache(/*max_bytes=*/4096);
  const std::vector<std::vector<int64_t>> small = {{1, 2, 3}, {4, 5, 6}};
  cache.Insert("a", small);
  std::vector<std::vector<int64_t>> rows;
  ASSERT_TRUE(cache.Lookup("a", &rows));
  EXPECT_EQ(rows, small);

  // Fill far past the budget: the cache must stay within max_bytes and evict
  // oldest-first. "a" was touched by the lookup above, so it outlives the
  // first inserts that follow it.
  for (int i = 0; i < 64; ++i) {
    cache.Insert("fill" + std::to_string(i), small);
    EXPECT_LE(cache.bytes(), cache.max_bytes());
  }
  EXPECT_GT(cache.stats().evictions, 0u);

  // An entry larger than the whole cache is never admitted.
  std::vector<std::vector<int64_t>> huge(1);
  huge[0].assign(4096, 7);
  const int entries_before = cache.entries();
  cache.Insert("huge", huge);
  EXPECT_EQ(cache.entries(), entries_before);
  EXPECT_FALSE(cache.Lookup("huge", &rows));
}

TEST(ReuseTest, ResultCacheMissThenHitCounts) {
  ResultCache cache(1 << 20);
  std::vector<std::vector<int64_t>> rows;
  EXPECT_FALSE(cache.Lookup("k", &rows));
  cache.Insert("k", {{42}});
  EXPECT_TRUE(cache.Lookup("k", &rows));
  EXPECT_EQ(rows, (std::vector<std::vector<int64_t>>{{42}}));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

// ---------------------------------------------------------------------------
// Scheduler integration
// ---------------------------------------------------------------------------

core::ReuseOptions CacheOnly() {
  core::ReuseOptions reuse;
  reuse.result_cache = true;
  return reuse;
}

core::ReuseOptions SharedOnly() {
  core::ReuseOptions reuse;
  reuse.shared_builds = true;
  return reuse;
}

TEST(ReuseTest, ResultCacheHitThenInvalidationOnTableMutation) {
  test::TestEnv env(8'000, 2, 2, CacheOnly());
  const plan::QuerySpec spec = env.ssb->Query(1, 1);
  const auto reference = env.Reference(spec);
  core::QueryScheduler scheduler(env.system.get());

  core::QueryResult miss = scheduler.Wait(scheduler.Submit(spec));
  ASSERT_TRUE(miss.status.ok()) << miss.status.ToString();
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_EQ(miss.rows, reference);

  core::QueryResult hit = scheduler.Wait(scheduler.Submit(spec));
  ASSERT_TRUE(hit.status.ok()) << hit.status.ToString();
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.rows, reference);
  EXPECT_LT(hit.modeled_seconds, miss.modeled_seconds);

  // A table mutation changes the key every later submission computes: the
  // stale entry is unreachable and the query re-executes (and re-caches).
  env.system->catalog().at("lineorder").NoteMutation();
  core::QueryResult fresh = scheduler.Wait(scheduler.Submit(spec));
  ASSERT_TRUE(fresh.status.ok()) << fresh.status.ToString();
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_EQ(fresh.rows, reference);
}

TEST(ReuseTest, SharedBuildsConcurrentSameJoinQueriesParity) {
  test::TestEnv env(8'000, 2, 2, SharedOnly());
  const plan::QuerySpec spec = env.ssb->Query(2, 1);  // joins date+supplier+part
  const auto reference = env.Reference(spec);
  const int n_joins = static_cast<int>(spec.joins.size());
  ASSERT_GT(n_joins, 0);

  constexpr int kQueries = 4;
  core::QueryScheduler scheduler(env.system.get(),
                                 {.max_concurrent = kQueries});
  std::vector<core::QueryHandle> handles;
  for (int i = 0; i < kQueries; ++i) handles.push_back(scheduler.Submit(spec));
  int builds = 0, attaches = 0;
  for (auto& h : handles) {
    core::QueryResult r = scheduler.Wait(h);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.rows, reference);
    builds += r.shared_builds;
    attaches += r.shared_attaches;
  }
  // Single-flight across the whole run: each distinct dimension build happens
  // once, every other (query, join) attaches — whether it raced the build or
  // arrived after it published.
  EXPECT_EQ(builds, n_joins);
  EXPECT_EQ(attaches, (kQueries - 1) * n_joins);
  EXPECT_EQ(env.system->hts().NumSharedEntries(), n_joins);
  for (auto& h : handles) (void)h;  // namespaces dropped on completion
}

TEST(ReuseTest, EarlierArrivalBuildsPrivatelyAtItsSoloTime) {
  // A session run first on the host but 5 ms later on the virtual timeline
  // publishes its replicas; the earlier session then builds its own and
  // models its solo time instead of waiting for the later one's. Round-robin
  // routing keeps the solo time free of the load balancer's host-timing
  // jitter.
  plan::ExecPolicy policy = test::TestEnv::Tune(plan::ExecPolicy::CpuOnly(4));
  policy.load_balance = false;
  test::TestEnv solo_env(60'000, 2, 2, core::ReuseOptions{});
  const plan::QuerySpec spec = solo_env.ssb->Query(2, 1);
  const core::QueryResult solo = solo_env.Run(spec, policy);
  ASSERT_TRUE(solo.status.ok()) << solo.status.ToString();

  test::TestEnv env(60'000, 2, 2, SharedOnly());
  core::System& sys = *env.system;
  core::QueryExecutor executor(&sys);
  const plan::HetPlan plan = plan::BuildHetPlan(spec, policy, sys.topology());
  const sim::VTime h = sys.VirtualHorizon();
  const core::QueryResult later =
      executor.ExecutePlan(spec, plan, core::QuerySession{sys.NextQueryId(), h + 5e-3});
  ASSERT_TRUE(later.status.ok()) << later.status.ToString();
  EXPECT_EQ(later.shared_builds, static_cast<int>(spec.joins.size()));

  const core::QueryResult earlier =
      executor.ExecutePlan(spec, plan, core::QuerySession{sys.NextQueryId(), h});
  ASSERT_TRUE(earlier.status.ok()) << earlier.status.ToString();
  EXPECT_EQ(earlier.rows, solo.rows);
  EXPECT_EQ(earlier.shared_attaches, 0);
  EXPECT_EQ(earlier.shared_builds, 0);
  EXPECT_NEAR(earlier.modeled_seconds, solo.modeled_seconds,
              solo.modeled_seconds * 1e-3);
}

TEST(ReuseTest, AttachingQueryStartsEachProbeUnitAtItsReplica) {
  // End to end: two hybrid queries arrive together with shared builds on.
  // One builds and publishes per-unit completions, the other attaches; both
  // start every probe unit at that unit's own replica, so the attacher's
  // per-unit readiness equals the builder's — and the units differ (the GPU
  // replicas cross PCIe, the sockets' do not).
  test::TestEnv env(8'000, 2, 2, SharedOnly());
  const plan::QuerySpec spec = env.ssb->Query(2, 1);
  core::QueryScheduler scheduler(env.system.get(), {.max_concurrent = 2});
  core::SubmitOptions pinned;
  pinned.policy = test::TestEnv::Tune(plan::ExecPolicy::Hybrid());
  core::QueryHandle ha = scheduler.Submit(spec, pinned);
  core::QueryHandle hb = scheduler.Submit(spec, pinned);
  core::QueryResult ra = scheduler.Wait(ha);
  core::QueryResult rb = scheduler.Wait(hb);
  ASSERT_TRUE(ra.status.ok()) << ra.status.ToString();
  ASSERT_TRUE(rb.status.ok()) << rb.status.ToString();
  ASSERT_EQ(ra.session_epoch, rb.session_epoch);
  const core::QueryResult& builder = ra.shared_builds > 0 ? ra : rb;
  const core::QueryResult& attacher = ra.shared_builds > 0 ? rb : ra;
  ASSERT_GT(attacher.shared_attaches, 0);
  ASSERT_EQ(builder.unit_ready.size(), 4u);  // 2 sockets + 2 GPUs
  ASSERT_EQ(attacher.unit_ready.size(), builder.unit_ready.size());
  sim::VTime earliest = builder.unit_ready[0].start;
  sim::VTime latest = earliest;
  for (size_t i = 0; i < builder.unit_ready.size(); ++i) {
    EXPECT_EQ(attacher.unit_ready[i].unit, builder.unit_ready[i].unit);
    EXPECT_DOUBLE_EQ(attacher.unit_ready[i].start, builder.unit_ready[i].start)
        << builder.unit_ready[i].unit.ToString();
    earliest = std::min(earliest, builder.unit_ready[i].start);
    latest = std::max(latest, builder.unit_ready[i].start);
  }
  EXPECT_LT(earliest, latest) << "every unit gated on one global watermark";
}

TEST(ReuseTest, AttacherSeesEachUnitsLastParallelWriter) {
  // Each socket's replica is built by its two probe workers. The builder
  // publishes a unit's completion as the latest of that unit's writers, and
  // an attacher's per-(join, unit) readiness is exactly that time.
  test::TestEnv env(8'000, 2, 2, SharedOnly());
  const plan::QuerySpec spec = env.ssb->Query(3, 1);
  core::QueryScheduler scheduler(env.system.get(), {.max_concurrent = 2});
  core::SubmitOptions pinned;
  pinned.policy = test::TestEnv::Tune(plan::ExecPolicy::Hybrid());
  core::QueryHandle ha = scheduler.Submit(spec, pinned);
  core::QueryHandle hb = scheduler.Submit(spec, pinned);
  core::QueryResult ra = scheduler.Wait(ha);
  core::QueryResult rb = scheduler.Wait(hb);
  ASSERT_TRUE(ra.status.ok()) << ra.status.ToString();
  ASSERT_TRUE(rb.status.ok()) << rb.status.ToString();
  ASSERT_EQ(ra.session_epoch, rb.session_epoch);
  const core::QueryResult& builder = ra.shared_builds > 0 ? ra : rb;
  const core::QueryResult& attacher = ra.shared_builds > 0 ? rb : ra;
  ASSERT_EQ(builder.shared_builds, static_cast<int>(spec.joins.size()));
  ASSERT_EQ(attacher.shared_attaches, static_cast<int>(spec.joins.size()));

  // (join, unit) -> completion, per side.
  std::map<std::pair<int, sim::DeviceId>, core::QueryResult::BuildDone> built,
      attached;
  for (const auto& b : builder.builds) built[{b.join_id, b.unit}] = b;
  for (const auto& b : attacher.builds) attached[{b.join_id, b.unit}] = b;
  ASSERT_EQ(built.size(), 4 * spec.joins.size());  // 2 sockets + 2 GPUs
  ASSERT_EQ(attached.size(), built.size());
  for (const auto& [key, b] : built) {
    EXPECT_EQ(b.dop, b.unit.is_cpu() ? 2 : 1) << b.unit.ToString();
    const core::QueryResult::BuildDone& a = attached.at(key);
    EXPECT_EQ(a.dop, 0) << "attached, not built";
    EXPECT_DOUBLE_EQ(a.done, b.done)
        << "join " << key.first << " on " << b.unit.ToString();
  }
  // A unit's probes start with its last replica.
  for (const auto& u : attacher.unit_ready) {
    sim::VTime last = 0;
    for (const auto& [key, b] : built) {
      if (b.unit == u.unit) last = std::max(last, b.done);
    }
    EXPECT_DOUBLE_EQ(u.start, last) << u.unit.ToString();
  }
}

TEST(ReuseTest, OppositeBuildOrderQueriesDoNotDeadlock) {
  // Two multi-join queries listing the same dimension joins in opposite
  // orders acquire overlapping content-key sets. The graph builder must claim
  // them along a canonical (sorted) order: plan-order acquisition lets each
  // query hold a build role the other is blocked on — a cross-query deadlock
  // with no escape short of cancellation. Regression = this test hangs.
  test::TestEnv env(8'000, 2, 2, SharedOnly());
  const plan::QuerySpec fwd = env.ssb->Query(2, 1);
  ASSERT_GE(fwd.joins.size(), 2u);
  plan::QuerySpec rev = fwd;
  rev.name += "-rev";
  std::reverse(rev.joins.begin(), rev.joins.end());
  const auto ref_fwd = env.Reference(fwd);
  const auto ref_rev = env.Reference(rev);

  for (int it = 0; it < 4; ++it) {
    core::QueryScheduler scheduler(env.system.get(), {.max_concurrent = 2});
    core::QueryHandle ha = scheduler.Submit(fwd);
    core::QueryHandle hb = scheduler.Submit(rev);
    core::QueryResult ra = scheduler.Wait(ha);
    core::QueryResult rb = scheduler.Wait(hb);
    ASSERT_TRUE(ra.status.ok()) << ra.status.ToString();
    ASSERT_TRUE(rb.status.ok()) << rb.status.ToString();
    EXPECT_EQ(ra.rows, ref_fwd);
    EXPECT_EQ(rb.rows, ref_rev);
    // Re-arm the race: bumping every dimension's epoch forces the next
    // iteration to rebuild (attaching to iteration N's entries is instant and
    // would never contend).
    for (const auto& j : fwd.joins) {
      env.system->catalog().at(j.build_table).NoteMutation();
    }
  }
  // Stale generations retired as each iteration claimed its new-epoch keys:
  // the registry holds at most the live generation (per distinct unit set),
  // not one generation per mutation.
  EXPECT_LE(env.system->hts().NumSharedEntries(),
            2 * static_cast<int>(fwd.joins.size()));
}

TEST(ReuseTest, MutationWhileQueuedNeverServesStaleEpoch) {
  // The cache key is computed at dequeue time (and re-validated at insert),
  // never snapshotted at submit: after a mutation lands, no query — queued,
  // in flight, or future — can publish or hit pre-mutation state under the
  // post-mutation epoch, so the first post-mutation miss re-executes and
  // every later submission hits its result.
  //
  // The case needs hb still queued behind ha when the mutation lands. The
  // submitting thread is at times held up on the host until ha has finished;
  // hb then finds the server idle (it has no queue wait) and reads ha's entry
  // before the mutation, so the case repeats on a fresh System.
  bool queued = false;
  for (int attempt = 0; attempt < 50 && !queued; ++attempt) {
    test::TestEnv env(8'000, 2, 2, CacheOnly());
    const plan::QuerySpec spec = env.ssb->Query(1, 1);
    const auto reference = env.Reference(spec);
    core::QueryScheduler scheduler(env.system.get(), {.max_concurrent = 1});

    core::QueryHandle ha = scheduler.Submit(spec);
    core::QueryHandle hb = scheduler.Submit(spec);  // queued behind ha
    env.system->catalog().at("lineorder").NoteMutation();
    core::QueryResult ra = scheduler.Wait(ha);
    core::QueryResult rb = scheduler.Wait(hb);
    ASSERT_TRUE(ra.status.ok()) << ra.status.ToString();
    ASSERT_TRUE(rb.status.ok()) << rb.status.ToString();
    EXPECT_FALSE(ra.cache_hit);
    EXPECT_EQ(ra.rows, reference);
    EXPECT_EQ(rb.rows, reference);
    queued = rb.queue_wait > 0;
    if (!queued) continue;

    // A miss by hb means it dequeued after the mutation and re-cached its
    // rows under the new epoch, so rc must hit: with a key snapshotted at
    // submit, hb would miss and leave nothing under the new epoch. A hit by
    // hb read ha's entry, made under the new epoch when ha dequeued after the
    // mutation (or, if ha finished before the mutation landed, under the old
    // one, and rc is the first post-mutation miss). Either way the
    // submission after rc hits.
    core::QueryResult rc = scheduler.Wait(scheduler.Submit(spec));
    ASSERT_TRUE(rc.status.ok()) << rc.status.ToString();
    if (!rb.cache_hit) {
      EXPECT_TRUE(rc.cache_hit) << "post-mutation result was not re-cached";
    }
    EXPECT_EQ(rc.rows, reference);
    core::QueryResult rd = scheduler.Wait(scheduler.Submit(spec));
    ASSERT_TRUE(rd.status.ok()) << rd.status.ToString();
    EXPECT_TRUE(rd.cache_hit) << "post-mutation result was not re-cached";
    EXPECT_EQ(rd.rows, reference);
  }
  EXPECT_TRUE(queued) << "hb never queued behind ha in 50 attempts";
}

TEST(ReuseTest, DefaultOffIsInert) {
  // The PR-7 pin: with both knobs off (the default), no result cache exists,
  // no shared entry is ever created, and results carry no reuse accounting.
  core::ReuseOptions off;
  EXPECT_FALSE(off.shared_builds);
  EXPECT_FALSE(off.result_cache);

  test::TestEnv env(8'000, 2, 2, off);
  EXPECT_EQ(env.system->result_cache(), nullptr);
  const plan::QuerySpec spec = env.ssb->Query(2, 1);
  core::QueryScheduler scheduler(env.system.get());
  for (int i = 0; i < 2; ++i) {
    core::QueryResult r = scheduler.Wait(scheduler.Submit(spec));
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_FALSE(r.cache_hit);
    EXPECT_EQ(r.shared_builds, 0);
    EXPECT_EQ(r.shared_attaches, 0);
  }
  EXPECT_EQ(env.system->hts().NumSharedEntries(), 0);
}

// ---------------------------------------------------------------------------
// Chaos: shared builds under fault injection (picked up by the CI chaos
// filter via the "Chaos" name). A faulted shared build must fail over to a
// waiter without poisoning the attachers: every query ends OK or with a
// named fault, and OK rows stay bit-identical to the reference.
// ---------------------------------------------------------------------------

TEST(ReuseChaosTest, FaultedSharedBuildsFailOverCleanly) {
  core::System::Options opts;
  opts.topology.num_sockets = 2;
  opts.topology.cores_per_socket = 2;
  opts.topology.num_gpus = 2;
  opts.topology.gpu_sim_threads = 2;
  opts.topology.host_capacity_per_socket = 4ull << 30;
  opts.topology.gpu_capacity = 1ull << 30;
  opts.blocks.block_bytes = 64 << 10;
  opts.blocks.host_arena_blocks = 256;
  opts.blocks.gpu_arena_blocks = 128;
  opts.faults.enabled = true;
  opts.faults.seed = 0xC0FFEE;
  opts.faults.dma_fault_rate = 0.05;
  opts.faults.kernel_fault_rate = 0.05;
  opts.faults.staging_fault_rate = 0.01;
  core::ReuseOptions reuse;
  reuse.shared_builds = true;
  reuse.result_cache = true;
  opts.reuse = reuse;
  core::System system(opts);

  ssb::Ssb::Options ssb_opts;
  ssb_opts.lineorder_rows = 6'000;
  ssb_opts.scale = 0.002;
  ssb::Ssb ssb(ssb_opts, &system.catalog());
  for (const char* name : {"lineorder", "date", "customer", "supplier", "part"}) {
    HETEX_CHECK_OK(
        system.catalog().at(name).Place(system.HostNodes(), &system.memory()));
  }

  const std::vector<plan::QuerySpec> pool = {ssb.Query(2, 1), ssb.Query(3, 1),
                                             ssb.Query(2, 1), ssb.Query(2, 1)};
  std::vector<std::vector<std::vector<int64_t>>> reference;
  for (const auto& spec : pool) {
    reference.push_back(ssb::ReferenceExecute(spec, system.catalog()));
  }

  const int iters = test::FuzzIters(3);
  for (int it = 0; it < iters; ++it) {
    core::QueryScheduler scheduler(&system, {.max_concurrent = 4});
    std::vector<core::QueryHandle> handles;
    for (const auto& spec : pool) handles.push_back(scheduler.Submit(spec));
    for (size_t i = 0; i < handles.size(); ++i) {
      core::QueryResult r = scheduler.Wait(handles[i]);
      if (r.status.ok()) {
        EXPECT_EQ(r.rows, reference[i]) << pool[i].name << " iter " << it;
      } else {
        const StatusCode code = r.status.code();
        EXPECT_TRUE(code == StatusCode::kUnavailable ||
                    code == StatusCode::kResourceExhausted ||
                    code == StatusCode::kDeviceLost ||
                    code == StatusCode::kInternal)
            << "unnamed failure: " << r.status.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace hetex
