#include "sim/bandwidth.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace hetex::sim {
namespace {

TEST(BandwidthServer, SingleReservationTakesBytesOverRate) {
  BandwidthServer server(1e9);  // 1 GB/s
  auto w = server.Reserve(1'000'000, 0.0);
  EXPECT_DOUBLE_EQ(w.start, 0.0);
  EXPECT_DOUBLE_EQ(w.end, 1e-3);
}

TEST(BandwidthServer, LatencyAddsPerReservation) {
  BandwidthServer server(1e9, /*latency=*/1e-5);
  auto w = server.Reserve(1'000'000, 0.0);
  EXPECT_DOUBLE_EQ(w.end, 1e-3 + 1e-5);
}

TEST(BandwidthServer, BackToBackReservationsQueue) {
  BandwidthServer server(1e9);
  auto w1 = server.Reserve(1'000'000, 0.0);
  auto w2 = server.Reserve(1'000'000, 0.0);  // scheduled while busy
  EXPECT_DOUBLE_EQ(w2.start, w1.end);
  EXPECT_DOUBLE_EQ(w2.end, 2e-3);
}

TEST(BandwidthServer, EarliestDefersStart) {
  BandwidthServer server(1e9);
  auto w = server.Reserve(1000, /*earliest=*/5.0);
  EXPECT_DOUBLE_EQ(w.start, 5.0);
}

TEST(BandwidthServer, ReserveDurationOccupiesWindow) {
  BandwidthServer server(1.0);
  auto w1 = server.ReserveDuration(0.25, 0.0);
  auto w2 = server.ReserveDuration(0.25, 0.1);
  EXPECT_DOUBLE_EQ(w1.end, 0.25);
  EXPECT_DOUBLE_EQ(w2.start, 0.25);  // queued behind w1 despite earliest=0.1
}

TEST(BandwidthServer, EpochPastBacklogSeesIdleResource) {
  BandwidthServer server(1e9);
  server.Reserve(1'000'000, 0.0);
  const VTime horizon = server.free_at();
  EXPECT_GT(horizon, 0.0);
  // A session anchored at the horizon starts on a fresh timeline: its windows
  // come back epoch-relative, starting at zero (the reset-free reset).
  auto w = server.Reserve(1000, 0.0, horizon);
  EXPECT_DOUBLE_EQ(w.start, 0.0);
  EXPECT_NEAR(w.end, 1000 / 1e9, 1e-15);
  EXPECT_DOUBLE_EQ(server.free_at(), horizon + 1000 / 1e9);
}

TEST(BandwidthServer, ConcurrentSessionsQueueAcrossEpochs) {
  BandwidthServer server(1e9);
  // Session A (epoch 0) occupies [0, 1ms) absolute.
  auto a = server.Reserve(1'000'000, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(a.start, 0.0);
  // Session B arrives at epoch 0.4ms: its transfer queues behind A's, and the
  // queueing delay shows up in B's session-local window.
  auto b = server.Reserve(1'000'000, 0.0, 0.4e-3);
  EXPECT_DOUBLE_EQ(b.start, 0.6e-3);  // 1ms absolute - 0.4ms epoch
  EXPECT_DOUBLE_EQ(b.end, 1.6e-3);
}

TEST(BandwidthServer, ConcurrentReservationsNeverOverlap) {
  BandwidthServer server(1e9);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<BandwidthServer::Window> windows(kThreads * kPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        windows[t * kPerThread + i] = server.Reserve(1000, 0.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Total occupied time == sum of durations (no overlap, no gaps from t=0).
  double max_end = 0;
  for (const auto& w : windows) max_end = std::max(max_end, w.end);
  EXPECT_NEAR(max_end, kThreads * kPerThread * 1000 / 1e9, 1e-12);
}

TEST(BandwidthServer, ReserveBytesSkipsSetupLatency) {
  BandwidthServer server(1e9, /*latency=*/1e-5);
  // UVA/zero-copy streams pay pure bandwidth: no per-transfer setup term,
  // but the occupancy is real — a later DMA queues behind it.
  auto uva = server.ReserveBytes(1'000'000, 0.0);
  EXPECT_DOUBLE_EQ(uva.end, 1e-3);
  auto dma = server.Reserve(1'000'000, 0.0);
  EXPECT_DOUBLE_EQ(dma.start, uva.end);
  EXPECT_DOUBLE_EQ(dma.end, uva.end + 1e-3 + 1e-5);
}

TEST(BandwidthServer, ReserveDurationAtAnchorsExactly) {
  BandwidthServer server(1e9);
  server.ReserveDuration(1.0, 0.0);  // busy [0, 1)
  // Anchored reservation inside the busy span: the window is exactly where
  // the caller committed, not wherever first fit would wander.
  auto w = server.ReserveDurationAt(0.25, 0.5);
  EXPECT_DOUBLE_EQ(w.start, 0.25);
  EXPECT_DOUBLE_EQ(w.end, 0.75);
  // Occupancy stacked conservatively: the next first-fit still waits for 1.
  auto n = server.ReserveDuration(0.1, 0.0);
  EXPECT_DOUBLE_EQ(n.start, 1.0);
}

TEST(BandwidthServer, ReserveDurationAtRespectsEpochAndHorizon) {
  BandwidthServer server(1e9);
  auto w = server.ReserveDurationAt(/*start=*/0.5, /*duration=*/1.0,
                                    /*epoch=*/2.0);
  EXPECT_DOUBLE_EQ(w.start, 0.5);  // session-local
  EXPECT_DOUBLE_EQ(w.end, 1.5);
  EXPECT_DOUBLE_EQ(server.free_at(), 3.5);  // absolute
}

TEST(BandwidthServer, NestedReservationNeverShrinksOccupancy) {
  // Regression: the old disjoint-interval Insert's left-extend wrote
  // `prev->second = end`, so an interval nested inside an existing one would
  // SHRINK the container — [0.4, 1.0) would have gone free here.
  BandwidthServer server(1e9);
  server.ReserveDuration(1.0, 0.0);    // [0, 1)
  server.ReserveDurationAt(0.2, 0.2);  // nested [0.2, 0.4)
  auto w = server.ReserveDuration(0.1, 0.0);
  EXPECT_DOUBLE_EQ(w.start, 1.0);
  EXPECT_DOUBLE_EQ(server.free_at(), 1.1);
}

TEST(BandwidthServer, ProbeThenAnchoredReserveSurvivesRacingSessions) {
  // The UVA probe→reserve pattern under races: each session probes a start,
  // anchors dependent state on it, then commits with ReserveDurationAt. The
  // committed window must be exactly the probed one even when other sessions
  // reserve in between — the old re-run-first-fit commit could land the slot
  // somewhere the dependent reservations were never anchored.
  BandwidthServer server(1e9);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  constexpr VTime kDur = 1e-3;
  std::atomic<int> torn{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const VTime probed = server.ProbeStart(kDur, 0.0);
        const auto w = server.ReserveDurationAt(probed, kDur);
        if (w.start != probed || w.end != probed + kDur) torn.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(torn.load(), 0);
  // Every committed window is real occupancy: the horizon covers at least
  // one uncontended slot and the server stayed internally consistent.
  EXPECT_GE(server.free_at(), kDur);
}

TEST(DramServer, PerWorkerCapUntilSaturation) {
  DramServer dram(45e9, 6e9);
  EXPECT_DOUBLE_EQ(dram.EffectiveRate(), 6e9);  // idle: full per-core rate
  const uint64_t seven = dram.Register(/*session=*/1, /*epoch=*/0.0, 7);
  // 7 workers: 45/7 = 6.43 > 6 -> still per-core capped.
  EXPECT_DOUBLE_EQ(dram.EffectiveRate(), 6e9);
  const uint64_t one = dram.Register(/*session=*/1, /*epoch=*/0.0, 1);
  // 8 workers: 45/8 = 5.625 < 6 -> fluid share kicks in.
  EXPECT_DOUBLE_EQ(dram.EffectiveRate(), 45e9 / 8);
  dram.Release(seven);
  dram.Release(one);
  EXPECT_EQ(dram.active_workers(), 0);
}

TEST(DramServer, SessionsSplitTheAggregate) {
  DramServer dram(45e9, 6e9);
  const double bytes = 45e6;
  VTime end = 0;
  // Session 10 runs 6 workers: its divisor is its own count only, so its
  // blocks take the caller's uncontended closed form.
  const uint64_t a = dram.Register(10, /*epoch=*/0.0, 6);
  EXPECT_FALSE(dram.BlockEnd(10, 6, bytes, 0.0, 2.5, &end));
  // Session 11 arrives with 6 more: each session now sees the other's workers
  // in its fluid-share divisor (6 own + 6 others = 45/12 each).
  const uint64_t b = dram.Register(11, /*epoch=*/2.5, 6);
  ASSERT_TRUE(dram.BlockEnd(10, 6, bytes, 0.0, 2.5, &end));
  EXPECT_DOUBLE_EQ(end, 2.5 + bytes / (45e9 / 12));
  ASSERT_TRUE(dram.BlockEnd(11, 6, bytes, 0.0, 2.5, &end));
  EXPECT_DOUBLE_EQ(end, 2.5 + bytes / (45e9 / 12));
  EXPECT_EQ(dram.active_workers(), 12);
  EXPECT_DOUBLE_EQ(dram.EffectiveRate(), 45e9 / 12);
  dram.Release(a);
  EXPECT_FALSE(dram.BlockEnd(11, 6, bytes, 0.0, 2.5, &end));
  dram.Release(b);
  EXPECT_EQ(dram.active_workers(), 0);
}

TEST(DramServer, OneSessionMayHoldSeveralRegistrations) {
  // Build phase and fact phase of one query can overlap registration windows;
  // neither counts against the query's own divisor.
  DramServer dram(45e9, 6e9);
  const uint64_t build = dram.Register(7, 0.0, 2);
  const uint64_t fact = dram.Register(7, 0.0, 4);
  VTime end = 0;
  EXPECT_FALSE(dram.BlockEnd(7, 4, 1e6, 0.0, 0.0, &end));
  EXPECT_EQ(dram.active_workers(), 6);
  // Another session sees all of them: 6 own + 6 others = 45/12.
  ASSERT_TRUE(dram.BlockEnd(8, 6, 1e6, 0.0, 0.0, &end));
  EXPECT_DOUBLE_EQ(end, 1e6 / (45e9 / 12));
  dram.Release(build);
  dram.Release(fact);
}

// ---------------------------------------------------------------------------
// Virtual-time interval accounting: phases reserve {workers, [start, end)} on
// the socket's absolute timeline; a block's fluid share integrates over the
// sessions actually overlapping it in virtual time.
// ---------------------------------------------------------------------------

TEST(DramServer, SoloBlockIsUncontended) {
  // A session overlapping only its own open registration takes the solo fast
  // path: BlockEnd returns false and the caller's closed-form divisor (its
  // own worker count) applies bit-identically.
  DramServer dram(45e9, 6e9);
  const uint64_t own = dram.Register(/*session=*/1, /*start=*/0.0, 12);
  VTime end = -1;
  EXPECT_FALSE(dram.BlockEnd(/*session=*/1, /*own_workers=*/12,
                             /*bytes=*/1e9, /*compute=*/0.0, /*start=*/0.5,
                             &end));
  dram.Release(own, 2.0);
}

TEST(DramServer, StaggeredEpochSessionsDoNotShareADivisor) {
  // The wall-clock-scoped bug this PR removes: session 1's phase covers
  // [0, 1) in virtual time; session 2's block starts at 5.0. They were never
  // concurrent in virtual time, so session 2 must see an idle socket — even
  // though (wall-clock) session 1's interval is long closed yet still on the
  // timeline, and even if both had been registered at the same instant.
  DramServer dram(45e9, 6e9);
  const uint64_t t = dram.Register(/*session=*/1, /*start=*/0.0, 12);
  dram.Release(t, /*end=*/1.0);
  VTime end = -1;
  EXPECT_FALSE(dram.BlockEnd(/*session=*/2, /*own_workers=*/12,
                             /*bytes=*/1e9, /*compute=*/0.0, /*start=*/5.0,
                             &end));
  EXPECT_EQ(dram.workers_overlapping(5.0), 0);
  EXPECT_EQ(dram.workers_overlapping(0.5), 12);
}

TEST(DramServer, ClosedIntervalChargesOverlappingSession) {
  // Session 1's closed 12-worker phase covers [0, 1); session 2's 12-worker
  // block starts at 0 with 3.75 GB of traffic. While the intervals overlap,
  // each worker's share is min(6, 45/24) = 1.875 GB/s; past 1.0 the socket is
  // session 2's alone at min(6, 45/12) = 3.75 GB/s. Piecewise:
  // 1 s drains 1.875 GB, the remaining 1.875 GB takes 0.5 s -> end = 1.5.
  DramServer dram(45e9, 6e9);
  const uint64_t t = dram.Register(/*session=*/1, /*start=*/0.0, 12);
  dram.Release(t, /*end=*/1.0);
  VTime end = -1;
  ASSERT_TRUE(dram.BlockEnd(/*session=*/2, /*own_workers=*/12,
                            /*bytes=*/3.75e9, /*compute=*/0.0, /*start=*/0.0,
                            &end));
  EXPECT_DOUBLE_EQ(end, 1.5);
  // Compute floors the block end when it dominates the drain.
  ASSERT_TRUE(dram.BlockEnd(2, 12, 3.75e9, /*compute=*/10.0, 0.0, &end));
  EXPECT_DOUBLE_EQ(end, 10.0);
}

TEST(DramServer, DiscardedRegistrationLeavesNoResidue) {
  // Release without an end time (error paths, phantom test registrations)
  // closes the interval at its own start: no trace on the timeline, and
  // later sessions anchored anywhere see an idle socket.
  DramServer dram(45e9, 6e9);
  const uint64_t t = dram.Register(/*session=*/1, /*start=*/0.0, 12);
  EXPECT_EQ(dram.workers_overlapping(100.0), 12);  // open-ended while held
  dram.Release(t);
  EXPECT_EQ(dram.workers_overlapping(0.0), 0);
  EXPECT_EQ(dram.num_segments(), 0u);
  VTime end = -1;
  EXPECT_FALSE(dram.BlockEnd(2, 12, 1e9, 0.0, 0.0, &end));
  EXPECT_DOUBLE_EQ(dram.horizon(), 0.0);
}

TEST(DramServer, HorizonCoversClosedIntervals) {
  DramServer dram(45e9, 6e9);
  const uint64_t a = dram.Register(1, 0.0, 4);
  dram.Release(a, 2.5);
  const uint64_t b = dram.Register(2, 1.0, 4);
  dram.Release(b, 4.0);
  EXPECT_DOUBLE_EQ(dram.horizon(), 4.0);
  // A session anchored at the horizon overlaps nothing.
  VTime end = -1;
  EXPECT_FALSE(dram.BlockEnd(3, 4, 1e9, 0.0, dram.horizon(), &end));
}

TEST(DramServer, OwnOpenIntervalExcludedOthersCharged) {
  // Own 6-worker registration is not double-charged (the query's own
  // concurrency is the caller-supplied own_workers), but another session's
  // open 6 workers are: share = min(6, 45/12) = 3.75 GB/s per worker.
  DramServer dram(45e9, 6e9);
  const uint64_t own = dram.Register(/*session=*/7, /*start=*/0.0, 6);
  const uint64_t other = dram.Register(/*session=*/8, /*start=*/0.0, 6);
  VTime end = -1;
  ASSERT_TRUE(dram.BlockEnd(/*session=*/7, /*own_workers=*/6,
                            /*bytes=*/3.75e9, /*compute=*/0.0, /*start=*/0.0,
                            &end));
  EXPECT_DOUBLE_EQ(end, 1.0);
  dram.Release(own, 1.0);
  dram.Release(other, 1.0);
}

TEST(DramServer, ConcurrentRegisterReleaseAndBlockEnd) {
  // TSan coverage: registrations, closes and block pricing race from
  // different sessions' worker threads.
  DramServer dram(45e9, 6e9);
  std::vector<std::thread> threads;
  for (int s = 0; s < 4; ++s) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < 200; ++i) {
        const VTime start = 0.01 * i;
        const uint64_t t =
            dram.Register(static_cast<uint64_t>(s), start, 1 + s);
        VTime end = -1;
        dram.BlockEnd(static_cast<uint64_t>(s), 1 + s, 1e6, 0.0, start, &end);
        dram.Release(t, start + 0.005);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(dram.active_workers(), 0);
  EXPECT_GT(dram.generation(), 0u);
}

}  // namespace
}  // namespace hetex::sim
