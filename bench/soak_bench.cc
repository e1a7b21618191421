// Soak benchmark for the virtual-time DRAM contention model: sweeps 64/128/256
// in-flight sessions through one long-lived System so the per-socket interval
// timelines accumulate hundreds of closed execution-phase intervals, and gates
// that (a) the cost of one reservation cycle stays roughly flat across the
// sweep (the O(log n) + bounded-segment claim), and (b) solo query latencies
// after the soak are bit-identical to the pre-soak idle-server run (a fresh
// session anchored at the horizon overlaps nothing, so the uncontended
// fast path — the closed-form divisor — must still be taken verbatim).
//
// Usage:
//   bench_soak_bench [--check] [--rows R] [--seed S] [--max-concurrent C]
//                    [--cycles K] [--factor F]
//
// Two parts per level L in {64, 128, 256}:
//   micro  — a bare sim::DramServer preloaded with L staggered closed
//            intervals, then K timed Register -> BlockEnd -> Release cycles
//            (one reservation each). Reports ns/reservation and the segment
//            count the Bound() cap holds the timeline to, and asserts that a
//            fresh session registered at the horizon still takes the
//            uncontended fast path (BlockEnd == false) — the bit-exact proof
//            that the accumulated timeline cannot touch a solo query's
//            closed-form arithmetic.
//   served — L one-query sessions from an SSB mix pushed through the
//            concurrent scheduler at a fixed offered load (Poisson arrivals),
//            all into the SAME System as every previous level. Reports
//            achieved qps, p99 latency and the live DRAM segment count.
//
// --check exits nonzero unless every served query succeeds, the solo fast
// path holds at every level, post-soak solo latencies match pre-soak within
// 1e-4 relative (the engine has pre-existing run-to-run jitter of ~2e-6
// relative from thread-completion-order block distribution — measured
// identically on the previous revision — while any real contention leak
// shifts latency by >= 1e-1 relative), segment counts stay under the
// timeline cap, and ns/reservation at 256 sessions is <= 3x the 64-session
// figure. Failures exit nonzero with "CHECK FAILED:" on stderr.
//
// BENCH_soak.json, printed on stdout (CI tees it from the Release job's
// `--check` run), is one JSON object:
//
//   {
//     "lineorder_rows": <uint>,       // fact rows in the served SSB mix
//     "max_concurrent": <int>,        // scheduler admission width
//     "micro_cycles": <int>,          // timed reservation cycles per level
//     "mean_solo_latency_s": <s>,     // pre-soak pool mean (rate calibration)
//     "offered_qps": <qps>,           // Poisson arrival rate, all levels
//     "levels": [                     // one entry per in-flight-session
//       {                             // level: 64, 128, 256
//         "sessions": <int>,          // sessions pushed through the scheduler
//         "ok": <int>,                // sessions that completed OK
//         "achieved_qps": <qps>,      // ok / virtual-time makespan
//         "p99_latency_s": <s>,       // queue wait + modeled latency p99
//         "dram_segments": <uint>,    // live System max socket-timeline size
//         "ns_per_reservation": <ns>, // micro Register+BlockEnd+Release cost
//         "micro_segments": <uint>,   // micro timeline size (Bound()-capped)
//         "solo_fast_path": <bool>,   // horizon session saw BlockEnd==false
//         "wall_s": <s>               // host wall clock (diagnostic only)
//       }, ...
//     ],
//     "ns_flat_ratio": <x>,           // ns(256 sessions) / ns(64 sessions)
//     "solo_max_rel_dev": <x>,        // post- vs pre-soak solo latency dev
//     "solo_parity_ok": <bool>        // solo_max_rel_dev <= 1e-4
//   }

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "core/system.h"
#include "sim/bandwidth.h"
#include "ssb/ssb.h"

namespace hetex {
namespace {

const std::vector<std::pair<int, int>> kPool = {{1, 1}, {2, 1}, {3, 1}, {4, 1}};

constexpr int kLevels[] = {64, 128, 256};

struct MicroStats {
  double ns_per_reservation = 0;
  size_t segments = 0;
  bool solo_fast_path = false;
};

// One reservation cycle = what a CPU execution phase costs the DramServer:
// open an interval, price one block against the timeline, close the interval.
MicroStats RunMicro(int sessions, int cycles, uint64_t seed) {
  sim::DramServer dram(45e9, 6e9);
  const double dt = 1e-3;
  const double span = sessions * dt;
  for (int i = 0; i < sessions; ++i) {
    const uint64_t t =
        dram.Register(static_cast<uint64_t>(i), i * dt, /*workers=*/4);
    dram.Release(t, i * dt + 0.5);
  }
  Rng rng(seed);
  auto cycle = [&](uint64_t session) {
    const sim::VTime start = rng.NextDouble() * span;
    const uint64_t tok = dram.Register(session, start, /*workers=*/4);
    sim::VTime end = 0;
    dram.BlockEnd(session, /*own_workers=*/4, /*bytes=*/1e5, /*compute=*/0.0,
                  start, &end);
    dram.Release(tok, start + 5e-4);
  };
  for (int i = 0; i < 512; ++i) cycle(1'000'000);  // warmup: hit the Bound cap
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < cycles; ++i) cycle(2'000'000 + static_cast<uint64_t>(i));
  const auto t1 = std::chrono::steady_clock::now();
  MicroStats out;
  out.ns_per_reservation =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / cycles;
  out.segments = dram.num_segments();
  // A fresh session anchored at the horizon overlaps none of the thousands of
  // accumulated intervals: BlockEnd must take the uncontended fast path, so
  // its caller prices the block with the pre-interval-timeline closed form —
  // bit-identical solo behavior by construction.
  const sim::VTime solo_start = dram.horizon();
  const uint64_t solo = dram.Register(3'000'000, solo_start, 4);
  sim::VTime end = 0;
  out.solo_fast_path =
      !dram.BlockEnd(3'000'000, 4, 1e6, 0.0, solo_start, &end);
  dram.Release(solo);
  return out;
}

core::System::Options SystemOptions() {
  core::System::Options opts;
  opts.topology.num_sockets = 2;
  opts.topology.cores_per_socket = 2;
  opts.topology.num_gpus = 2;
  opts.topology.gpu_sim_threads = 2;
  opts.topology.host_capacity_per_socket = 4ull << 30;
  opts.topology.gpu_capacity = 1ull << 30;
  opts.blocks.block_bytes = 64 << 10;
  opts.blocks.host_arena_blocks = 512;
  opts.blocks.gpu_arena_blocks = 256;
  return opts;
}

size_t MaxDramSegments(core::System* system) {
  size_t m = 0;
  const sim::Topology& topo = system->topology();
  for (int s = 0; s < topo.num_sockets(); ++s) {
    m = std::max(m, topo.socket_dram(s).num_segments());
  }
  return m;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

struct LevelStats {
  int sessions = 0;
  MicroStats micro;
  int ok = 0;
  double achieved_qps = 0;
  double p99_latency_s = 0;
  size_t dram_segments = 0;
  double wall_s = 0;
};

LevelStats RunLevel(core::System* system, const std::vector<plan::QuerySpec>& pool,
                    int sessions, int max_concurrent, double offered_qps,
                    uint64_t seed) {
  LevelStats level;
  level.sessions = sessions;

  Rng rng(seed);
  core::QueryScheduler::Options sopts;
  sopts.max_concurrent = max_concurrent;
  core::QueryScheduler scheduler(system, sopts);

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<core::QueryHandle> handles;
  handles.reserve(static_cast<size_t>(sessions));
  double t = 0;
  for (int i = 0; i < sessions; ++i) {
    t += -std::log(1.0 - rng.NextDouble()) / offered_qps;
    core::SubmitOptions opts;
    opts.arrival_offset = t;
    handles.push_back(scheduler.Submit(pool[i % pool.size()], opts));
  }

  std::vector<double> latencies;
  double base = 0, last_end = 0;
  bool first = true;
  for (size_t qi = 0; qi < handles.size(); ++qi) {
    core::QueryResult r = scheduler.Wait(handles[qi]);
    HETEX_CHECK(r.status.ok())
        << "soak session " << qi << ": " << r.status.ToString();
    ++level.ok;
    const double arrival = r.session_epoch - r.queue_wait;
    if (first || arrival < base) base = arrival;
    first = false;
    last_end = std::max(last_end, r.session_epoch + r.modeled_seconds);
    latencies.push_back(r.queue_wait + r.modeled_seconds);
  }
  level.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                               wall_start)
                     .count();
  const double makespan = last_end - base;
  level.achieved_qps =
      makespan > 0 ? static_cast<double>(level.ok) / makespan : 0;
  level.p99_latency_s = Percentile(latencies, 0.99);
  level.dram_segments = MaxDramSegments(system);
  return level;
}

std::vector<double> SoloLatencies(core::System* system,
                                  const std::vector<plan::QuerySpec>& pool) {
  core::QueryExecutor executor(system);
  std::vector<double> out;
  for (const plan::QuerySpec& spec : pool) {
    core::QueryResult r = executor.Execute(spec);
    HETEX_CHECK(r.status.ok()) << spec.name << ": " << r.status.ToString();
    out.push_back(r.modeled_seconds);
  }
  return out;
}

}  // namespace
}  // namespace hetex

int main(int argc, char** argv) {
  using namespace hetex;  // NOLINT — bench brevity

  uint64_t rows = 10'000;
  uint64_t seed = 0x50A4ull;
  int max_concurrent = 16;
  int cycles = 20'000;
  double factor = 2.0;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
    if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      rows = std::strtoull(argv[++i], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--max-concurrent") == 0 && i + 1 < argc) {
      max_concurrent = std::atoi(argv[++i]);
    }
    if (std::strcmp(argv[i], "--cycles") == 0 && i + 1 < argc) {
      cycles = std::atoi(argv[++i]);
    }
    if (std::strcmp(argv[i], "--factor") == 0 && i + 1 < argc) {
      factor = std::atof(argv[++i]);
    }
  }

  // One System for the whole sweep: every level's sessions pile more closed
  // intervals onto the same per-socket timelines before the next level runs.
  core::System system(SystemOptions());
  ssb::Ssb::Options ssb_opts;
  ssb_opts.lineorder_rows = rows;
  ssb_opts.scale = 0.002;
  ssb::Ssb ssb(ssb_opts, &system.catalog());
  for (const char* name : {"lineorder", "date", "customer", "supplier", "part"}) {
    HETEX_CHECK_OK(
        system.catalog().at(name).Place(system.HostNodes(), &system.memory()));
  }
  std::vector<plan::QuerySpec> pool;
  for (const auto& [flight, idx] : kPool) pool.push_back(ssb.Query(flight, idx));

  // Pre-soak solo reference: the bit-parity baseline and the offered-rate
  // calibration in one pass.
  const std::vector<double> solo_before = SoloLatencies(&system, pool);
  double mean_solo = 0;
  for (double s : solo_before) mean_solo += s;
  mean_solo /= static_cast<double>(solo_before.size());
  const double offered_qps =
      factor * static_cast<double>(max_concurrent) / mean_solo;

  std::vector<LevelStats> levels;
  for (int sessions : kLevels) {
    LevelStats level =
        RunLevel(&system, pool, sessions, max_concurrent, offered_qps,
                 seed + static_cast<uint64_t>(sessions));
    level.micro = RunMicro(sessions, cycles, seed ^ static_cast<uint64_t>(sessions));
    levels.push_back(level);
  }

  // Post-soak solo parity: a fresh session anchors past every accumulated
  // interval, so its latencies must match the pre-soak run up to the engine's
  // pre-existing scheduling jitter (~2e-6 relative; see the header comment).
  // The bit-exact half of the claim is the per-level micro fast-path flag.
  const std::vector<double> solo_after = SoloLatencies(&system, pool);
  double solo_max_rel_dev = 0;
  for (size_t i = 0; i < solo_before.size(); ++i) {
    solo_max_rel_dev =
        std::max(solo_max_rel_dev, std::abs(solo_after[i] - solo_before[i]) /
                                       solo_before[i]);
  }
  const bool solo_parity = solo_max_rel_dev <= 1e-4;

  const double ns_lo = levels.front().micro.ns_per_reservation;
  const double ns_hi = levels.back().micro.ns_per_reservation;
  const double ns_ratio = ns_lo > 0 ? ns_hi / ns_lo : 0;

  std::printf("{\n  \"lineorder_rows\": %" PRIu64 ",\n"
              "  \"max_concurrent\": %d,\n  \"micro_cycles\": %d,\n"
              "  \"mean_solo_latency_s\": %.6f,\n  \"offered_qps\": %.2f,\n"
              "  \"levels\": [\n",
              rows, max_concurrent, cycles, mean_solo, offered_qps);
  for (size_t i = 0; i < levels.size(); ++i) {
    const LevelStats& l = levels[i];
    std::printf(
        "    {\"sessions\": %d, \"ok\": %d, \"achieved_qps\": %.2f, "
        "\"p99_latency_s\": %.6f, \"dram_segments\": %zu, "
        "\"ns_per_reservation\": %.1f, \"micro_segments\": %zu, "
        "\"solo_fast_path\": %s, \"wall_s\": %.3f}%s\n",
        l.sessions, l.ok, l.achieved_qps, l.p99_latency_s, l.dram_segments,
        l.micro.ns_per_reservation, l.micro.segments,
        l.micro.solo_fast_path ? "true" : "false", l.wall_s,
        i + 1 < levels.size() ? "," : "");
  }
  std::printf("  ],\n  \"ns_flat_ratio\": %.2f,\n"
              "  \"solo_max_rel_dev\": %.3g,\n  \"solo_parity_ok\": %s\n}\n",
              ns_ratio, solo_max_rel_dev, solo_parity ? "true" : "false");

  if (check) {
    for (const LevelStats& l : levels) {
      if (l.ok != l.sessions) {
        std::fprintf(stderr, "CHECK FAILED: level %d completed %d/%d sessions\n",
                     l.sessions, l.ok, l.sessions);
        return 1;
      }
      if (l.dram_segments > 4096 || l.micro.segments > 4096) {
        std::fprintf(stderr,
                     "CHECK FAILED: level %d segment count escaped the cap "
                     "(dram %zu, micro %zu)\n",
                     l.sessions, l.dram_segments, l.micro.segments);
        return 1;
      }
      if (!l.micro.solo_fast_path) {
        std::fprintf(stderr,
                     "CHECK FAILED: level %d horizon-anchored session left the "
                     "uncontended fast path\n",
                     l.sessions);
        return 1;
      }
    }
    if (!solo_parity) {
      std::fprintf(stderr,
                   "CHECK FAILED: post-soak solo latencies diverge from the "
                   "pre-soak idle-server run (max rel dev %.3g > 1e-4)\n",
                   solo_max_rel_dev);
      return 1;
    }
    if (ns_ratio <= 0 || ns_ratio > 3.0) {
      std::fprintf(stderr,
                   "CHECK FAILED: ns/reservation not flat across the sweep "
                   "(%.1f ns at %d sessions vs %.1f ns at %d, ratio %.2f > 3)\n",
                   ns_hi, levels.back().sessions, ns_lo, levels.front().sessions,
                   ns_ratio);
      return 1;
    }
    std::fprintf(stderr,
                 "check ok: %d/%d/%d sessions, ns/reservation %.0f -> %.0f "
                 "(ratio %.2f), solo fast path held, solo latencies within "
                 "%.3g of pre-soak\n",
                 kLevels[0], kLevels[1], kLevels[2], ns_lo, ns_hi, ns_ratio,
                 solo_max_rel_dev);
  }
  return 0;
}
