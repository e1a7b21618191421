// Figure 7 — scale-up on the topology fabric (§6.4): the SSB probe mix pushed
// through the concurrent scheduler on 1-, 2- and 4-GPU scale-out fabrics
// (fully-connected NVLink peer mesh + NUMA inter-socket link), plus two
// routing/regression legs. Reports JSON (BENCH_scaleup.json — schema below).
//
// Usage:
//   bench_fig7_scaleup [--check] [--rows N] [--repeat K]
//
// --check exits nonzero unless
//   (a) modeled queries/sec on the SSB probe mix rises monotonically from
//       1 -> 2 -> 4 GPUs (the encapsulated-parallelism scale-up claim),
//   (b) peer-routed GPU<->GPU build broadcasts beat host-staged routing on a
//       multi-join query (same data, same policy, peer mesh vs no peer mesh),
//       and the coster's estimates agree with the measured ordering, and
//   (c) the pre-fabric baseline — a 1-GPU single-socket topology with no peer
//       or inter-socket links — still passes the solo SSB matrix bit-exactly
//       against the scalar reference with the optimizer's picked plan within
//       1.2x of the measured-best candidate (the PR 8 regression gate).
//
// BENCH_scaleup.json, printed on stdout (CI tees it from the Release job's
// `--check` run), is one JSON object:
//
//   {
//     "lineorder_rows": <uint>,      // fact rows per sweep point
//     "gpu_sweep": [                 // one entry per fabric size (1, 2, 4
//       {                            // GPUs; fact partitioned across GPUs)
//         "num_gpus": <int>,
//         "queries": <int>,          // queries pushed through the scheduler
//         "makespan_modeled_s": <s>, // virtual-time makespan of the batch
//         "qps_modeled": <qps>,      // queries / makespan_modeled_s
//         "p99_latency_s": <s>,      // per-query modeled latency p99
//         "wall_s": <s>              // host wall clock (diagnostic only)
//       }, ...
//     ],
//     "peer_leg": {                  // all tables in gpu0's memory, query
//       "query": "Qf.i",             // pinned to gpu1: NVLink mesh vs the
//       "peer_modeled_s": <s>,       // same fabric without it (host-staged)
//       "staged_modeled_s": <s>,
//       "speedup": <x>,              // staged / peer, > 1 when peer wins
//       "peer_est_s": <s>,           // coster estimates of the same routes
//       "staged_est_s": <s>,
//       "coster_ordering_ok": <bool> // estimated ordering == measured
//     },
//     "baseline": {                  // 1-GPU single-socket no-fabric system
//       "queries": <int>,            // all 13 SSB queries, optimizer-picked
//       "parity_ok": <bool>,         // picked-plan rows == reference rows
//       "coster_max_ratio": <x>      // picked / measured-best, gated <= 1.2
//     }
//   }
//
// `--check` failures exit nonzero with "CHECK FAILED:" on stderr.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/scheduler.h"
#include "core/system.h"
#include "plan/optimizer.h"
#include "ssb/reference.h"
#include "ssb/ssb.h"

namespace hetex {
namespace {

/// One point of the GPU sweep: the probe mix at a fixed admission cap.
struct SweepPoint {
  int num_gpus = 0;
  int queries = 0;
  double makespan_modeled_s = 0;
  double qps_modeled = 0;
  double p99_latency_s = 0;
  double wall_s = 0;
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

// Self-similar miniature (the fig4/fig5 convention): fixed costs shrink with
// the dataset so the bandwidth/compute story — what the fabric sweep varies —
// dominates the modeled time, not DMA, launch or routing latencies.
constexpr double kLatencyScale = 1.0 / 60;

core::System::Options FabricOptions(int num_gpus) {
  core::System::Options opts;
  opts.topology = sim::Topology::ScaleOutOptions(num_gpus);
  opts.topology.cost_model.ScaleFixedLatencies(kLatencyScale);
  // Miniature server: small core counts and arenas keep the functional run
  // fast; the fabric shape (links, mesh, sockets) is what the sweep varies.
  opts.topology.cores_per_socket = 2;
  opts.topology.gpu_sim_threads = 2;
  opts.topology.host_capacity_per_socket = 4ull << 30;
  opts.topology.gpu_capacity = 1ull << 30;
  opts.blocks.block_bytes = 64 << 10;
  opts.blocks.host_arena_blocks = 512;
  opts.blocks.gpu_arena_blocks = 256;
  return opts;
}

void LoadSsb(core::System* system, ssb::Ssb::Options ssb_opts,
             std::vector<std::unique_ptr<ssb::Ssb>>* keep) {
  keep->push_back(std::make_unique<ssb::Ssb>(ssb_opts, &system->catalog()));
  for (const char* name : {"lineorder", "date", "customer", "supplier", "part"}) {
    HETEX_CHECK_OK(
        system->catalog().at(name).Place(system->HostNodes(), &system->memory()));
  }
}

}  // namespace
}  // namespace hetex

int main(int argc, char** argv) {
  using namespace hetex;  // NOLINT — bench brevity

  uint64_t rows = 480'000;
  int repeat = 3;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
    if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      rows = std::strtoull(argv[++i], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
    }
  }

  ssb::Ssb::Options ssb_opts;
  ssb_opts.lineorder_rows = rows;
  ssb_opts.scale = 0.002;
  std::vector<std::unique_ptr<ssb::Ssb>> ssb_keep;

  // --------------------------------------------------------------- GPU sweep
  // The probe mix of throughput_bench (all four SSB flights), scheduled at a
  // fixed admission cap on 1/2/4-GPU scale-out fabrics in the paper's Fig. 4
  // regime: the fact table partitioned across the GPUs' device memories
  // (aggregate scan bandwidth grows with the fabric), dimensions host-resident.
  // The backlog-steered optimizer spreads builds across the fabric — more GPUs
  // means more local fact partitions, more peer-reachable build homes and more
  // probe lanes, so modeled qps must rise with the hardware.
  const std::vector<std::pair<int, int>> kMix = {
      {1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 1}, {3, 2}, {4, 1}, {4, 2}};
  std::vector<SweepPoint> sweep;
  for (int num_gpus : {1, 2, 4}) {
    core::System system(FabricOptions(num_gpus));
    LoadSsb(&system, ssb_opts, &ssb_keep);
    HETEX_CHECK_OK(system.catalog().at("lineorder").Place(system.GpuNodes(),
                                                          &system.memory()));
    std::vector<plan::QuerySpec> workload;
    for (int r = 0; r < repeat; ++r) {
      for (const auto& [flight, idx] : kMix) {
        workload.push_back(ssb_keep.back()->Query(flight, idx));
      }
    }

    const auto wall_start = std::chrono::steady_clock::now();
    core::QueryScheduler scheduler(&system, {.max_concurrent = 8});
    std::vector<core::QueryHandle> handles;
    handles.reserve(workload.size());
    for (const auto& spec : workload) handles.push_back(scheduler.Submit(spec));

    SweepPoint point;
    point.num_gpus = num_gpus;
    point.queries = static_cast<int>(workload.size());
    std::vector<double> latencies;
    double base = 0, last_end = 0;
    bool first = true;
    for (size_t i = 0; i < handles.size(); ++i) {
      core::QueryResult r = scheduler.Wait(handles[i]);
      HETEX_CHECK(r.status.ok()) << workload[i].name << " on " << num_gpus
                                 << " GPU(s): " << r.status.ToString();
      const double arrival = r.session_epoch - r.queue_wait;
      if (first || arrival < base) base = arrival;
      first = false;
      last_end = std::max(last_end, r.session_epoch + r.modeled_seconds);
      latencies.push_back(r.queue_wait + r.modeled_seconds);
    }
    point.makespan_modeled_s = last_end - base;
    point.qps_modeled = point.makespan_modeled_s > 0
                            ? static_cast<double>(point.queries) /
                                  point.makespan_modeled_s
                            : 0;
    point.p99_latency_s = Percentile(latencies, 0.99);
    point.wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
    sweep.push_back(point);
  }

  // ---------------------------------------------------------------- peer leg
  // Multi-join query (Q3.1: customer + supplier + date) with the fact table
  // and every dimension table resident in GPU 0's memory, executed on GPU 1:
  // the hash-table builds and the fact stream all cross GPU<->GPU, over the
  // NVLink peer link when the fabric has one, staged through host memory over
  // two PCIe hops when it doesn't. Same data, same policy.
  const std::pair<int, int> kPeerQuery = {3, 1};
  double peer_s = 0, staged_s = 0, peer_est = 0, staged_est = 0;
  for (bool with_peer : {true, false}) {
    core::System::Options opts = FabricOptions(2);
    if (!with_peer) opts.topology.peer_links.clear();
    opts.topology.inter_socket_bw = 0;  // isolate the peer-vs-staged delta
    core::System system(opts);
    LoadSsb(&system, ssb_opts, &ssb_keep);
    for (const char* t : {"lineorder", "date", "customer", "supplier", "part"}) {
      HETEX_CHECK_OK(system.catalog().at(t).Place({system.GpuNodes()[0]},
                                                  &system.memory()));
    }
    const auto spec = ssb_keep.back()->Query(kPeerQuery.first, kPeerQuery.second);
    plan::ExecPolicy policy = plan::ExecPolicy::GpuOnly({1});
    policy.block_rows = 4096;

    core::QueryExecutor executor(&system);
    const core::QueryResult r = executor.Execute(spec, policy);
    HETEX_CHECK(r.status.ok()) << r.status.ToString();

    plan::PlanCoster::Options coster_opts;
    coster_opts.pack_block_rows = system.blocks().options().block_bytes / 8;
    plan::PlanCoster coster(spec, system.catalog(), system.topology(),
                            coster_opts);
    const auto est =
        coster.Cost(plan::BuildHetPlan(spec, policy, system.topology()));
    HETEX_CHECK(est.ok()) << est.status().ToString();
    (with_peer ? peer_s : staged_s) = r.modeled_seconds;
    (with_peer ? peer_est : staged_est) = est.value().total;
  }
  const bool coster_ordering_ok = peer_est < staged_est;

  // ------------------------------------------------------------ baseline leg
  // Pre-fabric regression gate: a 1-GPU single-socket topology with no peer
  // mesh and no inter-socket link must behave exactly as before the fabric
  // landed — the full solo SSB matrix matches the scalar reference bit-exactly
  // and the optimizer's picked plan stays within 1.2x of the measured-best
  // candidate on every query.
  bool baseline_parity_ok = true;
  double coster_max_ratio = 0;
  int baseline_queries = 0;
  {
    core::System::Options opts;
    opts.topology.num_sockets = 1;
    opts.topology.cores_per_socket = 4;
    opts.topology.num_gpus = 1;
    opts.topology.gpu_sim_threads = 2;
    opts.topology.host_capacity_per_socket = 4ull << 30;
    opts.topology.gpu_capacity = 1ull << 30;
    opts.blocks.block_bytes = 64 << 10;
    opts.blocks.host_arena_blocks = 512;
    opts.blocks.gpu_arena_blocks = 256;
    core::System system(opts);
    ssb::Ssb::Options base_ssb = ssb_opts;
    base_ssb.lineorder_rows = std::min<uint64_t>(rows, 20'000);
    LoadSsb(&system, base_ssb, &ssb_keep);

    core::QueryExecutor executor(&system);
    for (int flight = 1; flight <= 4; ++flight) {
      for (int idx = 1; idx <= ssb::Ssb::FlightSize(flight); ++idx) {
        const auto spec = ssb_keep.back()->Query(flight, idx);
        ++baseline_queries;
        plan::ExecPolicy base_policy = plan::ExecPolicy::Hybrid(3);
        base_policy.block_rows = 4096;
        plan::OptimizeResult opt;
        const Status st = executor.Optimize(spec, base_policy, &opt);
        HETEX_CHECK(st.ok()) << spec.name << ": " << st.ToString();
        double best = -1, picked = -1;
        for (size_t i = 0; i < opt.ranked.size(); ++i) {
          const core::QueryResult m =
              executor.ExecutePlan(spec, opt.ranked[i].candidate.plan);
          HETEX_CHECK(m.status.ok())
              << opt.ranked[i].candidate.label << ": " << m.status.ToString();
          if (i == 0) {
            picked = m.modeled_seconds;
            if (m.rows != ssb::ReferenceExecute(spec, system.catalog())) {
              baseline_parity_ok = false;
              std::fprintf(stderr, "PARITY FAILURE: %s picked-plan rows "
                                   "diverge from reference\n",
                           spec.name.c_str());
            }
          }
          if (best < 0 || m.modeled_seconds < best) best = m.modeled_seconds;
        }
        coster_max_ratio = std::max(coster_max_ratio, picked / best);
      }
    }
  }

  // ------------------------------------------------------------------- JSON
  std::printf("{\n  \"lineorder_rows\": %" PRIu64 ",\n  \"gpu_sweep\": [\n",
              rows);
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::printf("    {\"num_gpus\": %d, \"queries\": %d, "
                "\"makespan_modeled_s\": %.6f, \"qps_modeled\": %.2f, "
                "\"p99_latency_s\": %.6f, \"wall_s\": %.3f}%s\n",
                p.num_gpus, p.queries, p.makespan_modeled_s, p.qps_modeled,
                p.p99_latency_s, p.wall_s, i + 1 < sweep.size() ? "," : "");
  }
  std::printf("  ],\n  \"peer_leg\": {\"query\": \"Q%d.%d\", "
              "\"peer_modeled_s\": %.6f, \"staged_modeled_s\": %.6f, "
              "\"speedup\": %.3f, \"peer_est_s\": %.6f, "
              "\"staged_est_s\": %.6f, \"coster_ordering_ok\": %s},\n",
              kPeerQuery.first, kPeerQuery.second, peer_s, staged_s,
              peer_s > 0 ? staged_s / peer_s : 0, peer_est, staged_est,
              coster_ordering_ok ? "true" : "false");
  std::printf("  \"baseline\": {\"queries\": %d, \"parity_ok\": %s, "
              "\"coster_max_ratio\": %.4f}\n}\n",
              baseline_queries, baseline_parity_ok ? "true" : "false",
              coster_max_ratio);

  if (check) {
    bool ok = true;
    for (size_t i = 1; i < sweep.size(); ++i) {
      if (sweep[i].qps_modeled <= sweep[i - 1].qps_modeled) {
        std::fprintf(stderr,
                     "CHECK FAILED: modeled qps did not rise from %d to %d "
                     "GPUs (%.2f -> %.2f)\n",
                     sweep[i - 1].num_gpus, sweep[i].num_gpus,
                     sweep[i - 1].qps_modeled, sweep[i].qps_modeled);
        ok = false;
      }
    }
    if (peer_s >= staged_s) {
      std::fprintf(stderr,
                   "CHECK FAILED: peer-routed build broadcast (%.6fs) did not "
                   "beat host-staged routing (%.6fs)\n",
                   peer_s, staged_s);
      ok = false;
    }
    if (!coster_ordering_ok) {
      std::fprintf(stderr,
                   "CHECK FAILED: coster estimate ordering disagrees with the "
                   "measured peer-vs-staged ordering (est %.6fs vs %.6fs)\n",
                   peer_est, staged_est);
      ok = false;
    }
    if (!baseline_parity_ok) {
      std::fprintf(stderr, "CHECK FAILED: baseline solo SSB matrix diverges "
                           "from the scalar reference\n");
      ok = false;
    }
    if (coster_max_ratio > 1.2) {
      std::fprintf(stderr,
                   "CHECK FAILED: baseline picked plan %.4fx the measured "
                   "best (bound 1.2x)\n",
                   coster_max_ratio);
      ok = false;
    }
    if (!ok) return 1;
    std::fprintf(stderr,
                 "check ok: qps 1g=%.2f 2g=%.2f 4g=%.2f, peer %.3fx over "
                 "staged (coster agrees), baseline parity ok, coster ratio "
                 "%.4f <= 1.2\n",
                 sweep[0].qps_modeled, sweep[1].qps_modeled,
                 sweep[2].qps_modeled, peer_s > 0 ? staged_s / peer_s : 0,
                 coster_max_ratio);
  }
  return 0;
}
