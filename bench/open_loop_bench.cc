// Open-loop serving benchmark: Poisson arrivals from a repeated-dimension-
// table SSB mix pushed through the concurrent scheduler, A/B-ing the serving
// layer's cross-query reuse (shared hash-table builds + result cache) at a
// fixed offered load. Reports offered vs achieved queries/sec, p50/p99
// client-observed latency and the cache/share hit rates per leg, as JSON.
//
// Usage:
//   bench_open_loop_bench [--check] [--queries N] [--rows R] [--seed S]
//                         [--factor F] [--max-concurrent C]
//
// The driver is open-loop: arrival offsets are drawn once (exponential gaps at
// `factor x max_concurrent / mean solo latency`) and replayed identically into
// every leg — the offered load does not adapt to the server. The whole trace
// is submitted upfront; the scheduler's admission control and the virtual
// arrival offsets shape the timeline, and the result cache is consulted at
// dequeue time (a query only hits on results completed earlier on it).
//
// --check exits nonzero unless (a) every completed query's rows are
// bit-identical to the scalar reference in every leg, and (b) the reuse-on
// leg achieves >= 1.3x the reuse-off achieved qps at the same offered load.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "core/system.h"
#include "ssb/reference.h"
#include "ssb/ssb.h"

namespace hetex {
namespace {

// The repeated-dimension-table mix: flights 2-4 all join the small dimension
// tables (date, supplier, customer, part) that cross-query build sharing
// dedups, and repeat often enough that the result cache converges to hits.
const std::vector<std::pair<int, int>> kPool = {
    {2, 1}, {2, 2}, {3, 1}, {3, 2}, {4, 1}, {4, 2}};

struct LegStats {
  std::string name;
  int queries = 0;
  int ok = 0;
  double achieved_qps = 0;
  double p50_latency_s = 0;
  double p99_latency_s = 0;
  double mean_queue_wait_s = 0;
  double cache_hit_rate = 0;
  int shared_builds = 0;
  int shared_attaches = 0;
  double share_attach_rate = 0;  ///< attaches / (builds + attaches)
  double wall_s = 0;
  bool parity_ok = true;
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

core::System::Options SystemOptions(core::ReuseOptions reuse) {
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
  opts.reuse = reuse;
  return opts;
}

std::unique_ptr<ssb::Ssb> LoadSsb(core::System* system, uint64_t rows) {
  ssb::Ssb::Options ssb_opts;
  ssb_opts.lineorder_rows = rows;
  ssb_opts.scale = 0.002;
  auto ssb = std::make_unique<ssb::Ssb>(ssb_opts, &system->catalog());
  for (const char* name : {"lineorder", "date", "customer", "supplier", "part"}) {
    HETEX_CHECK_OK(
        system->catalog().at(name).Place(system->HostNodes(), &system->memory()));
  }
  return ssb;
}

LegStats RunLeg(const std::string& name, core::ReuseOptions reuse, uint64_t rows,
                int max_concurrent, const std::vector<int>& draws,
                const std::vector<double>& arrivals,
                const std::vector<std::vector<std::vector<int64_t>>>& reference) {
  core::System system(SystemOptions(reuse));
  auto ssb = LoadSsb(&system, rows);
  std::vector<plan::QuerySpec> pool;
  for (const auto& [flight, idx] : kPool) pool.push_back(ssb->Query(flight, idx));

  core::QueryScheduler::Options sopts;
  sopts.max_concurrent = max_concurrent;
  core::QueryScheduler scheduler(&system, sopts);

  LegStats leg;
  leg.name = name;
  leg.queries = static_cast<int>(draws.size());
  const auto wall_start = std::chrono::steady_clock::now();

  std::vector<core::QueryHandle> handles;
  handles.reserve(draws.size());
  for (size_t i = 0; i < draws.size(); ++i) {
    core::SubmitOptions opts;
    opts.arrival_offset = arrivals[i];
    handles.push_back(scheduler.Submit(pool[draws[i]], opts));
  }

  std::vector<double> latencies;
  double base = 0, last_end = 0, wait_sum = 0;
  bool first = true;
  int cache_hits = 0;
  for (size_t qi = 0; qi < handles.size(); ++qi) {
    core::QueryResult r = scheduler.Wait(handles[qi]);
    HETEX_CHECK(r.status.ok())
        << leg.name << " query " << qi << ": " << r.status.ToString();
    ++leg.ok;
    if (r.cache_hit) ++cache_hits;
    leg.shared_builds += r.shared_builds;
    leg.shared_attaches += r.shared_attaches;
    const double arrival = r.session_epoch - r.queue_wait;
    if (first || arrival < base) base = arrival;
    first = false;
    last_end = std::max(last_end, r.session_epoch + r.modeled_seconds);
    latencies.push_back(r.queue_wait + r.modeled_seconds);
    wait_sum += r.queue_wait;
    if (r.rows != reference[static_cast<size_t>(draws[qi])]) {
      leg.parity_ok = false;
      std::fprintf(stderr, "PARITY FAILURE: leg %s query %zu (%s) diverges\n",
                   leg.name.c_str(), qi, pool[draws[qi]].name.c_str());
    }
  }

  leg.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             wall_start)
                   .count();
  const double makespan = last_end - base;
  leg.achieved_qps = makespan > 0 ? static_cast<double>(leg.ok) / makespan : 0;
  leg.p50_latency_s = Percentile(latencies, 0.50);
  leg.p99_latency_s = Percentile(latencies, 0.99);
  leg.mean_queue_wait_s =
      latencies.empty() ? 0 : wait_sum / static_cast<double>(latencies.size());
  leg.cache_hit_rate =
      leg.ok > 0 ? static_cast<double>(cache_hits) / leg.ok : 0;
  const int share_total = leg.shared_builds + leg.shared_attaches;
  leg.share_attach_rate =
      share_total > 0 ? static_cast<double>(leg.shared_attaches) / share_total
                      : 0;
  return leg;
}

}  // namespace
}  // namespace hetex

int main(int argc, char** argv) {
  using namespace hetex;  // NOLINT — bench brevity

  uint64_t rows = 12'000;
  int queries = 10'000;
  uint64_t seed = 0x09E17007ull;
  double factor = 2.0;
  int max_concurrent = 8;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
    if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      rows = std::strtoull(argv[++i], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      queries = std::atoi(argv[++i]);
    }
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    }
    if (std::strcmp(argv[i], "--factor") == 0 && i + 1 < argc) {
      factor = std::atof(argv[++i]);
    }
    if (std::strcmp(argv[i], "--max-concurrent") == 0 && i + 1 < argc) {
      max_concurrent = std::atoi(argv[++i]);
    }
  }

  // Calibration: mean solo modeled latency of the pool (reuse off, idle
  // server) sets the offered rate, and the scalar reference rows anchor the
  // parity gate for every leg.
  double mean_solo = 0;
  std::vector<std::vector<std::vector<int64_t>>> reference;
  {
    core::System system(SystemOptions(core::ReuseOptions{}));
    auto ssb = LoadSsb(&system, rows);
    core::QueryExecutor executor(&system);
    for (const auto& [flight, idx] : kPool) {
      const plan::QuerySpec spec = ssb->Query(flight, idx);
      core::QueryResult r = executor.Execute(spec);
      HETEX_CHECK(r.status.ok()) << spec.name << ": " << r.status.ToString();
      mean_solo += r.modeled_seconds;
      reference.push_back(ssb::ReferenceExecute(spec, system.catalog()));
    }
    mean_solo /= static_cast<double>(kPool.size());
  }
  const double offered_qps =
      factor * static_cast<double>(max_concurrent) / mean_solo;

  // One arrival trace, replayed into every leg: Poisson process at the
  // offered rate, query identity drawn uniformly from the pool.
  Rng rng(seed);
  std::vector<int> draws;
  std::vector<double> arrivals;
  double t = 0;
  for (int i = 0; i < queries; ++i) {
    t += -std::log(1.0 - rng.NextDouble()) / offered_qps;
    arrivals.push_back(t);
    draws.push_back(static_cast<int>(rng.Uniform(kPool.size())));
  }

  core::ReuseOptions reuse_on;
  reuse_on.shared_builds = true;
  reuse_on.result_cache = true;

  std::vector<LegStats> legs;
  legs.push_back(RunLeg("reuse_off", core::ReuseOptions{}, rows, max_concurrent,
                        draws, arrivals, reference));
  legs.push_back(RunLeg("reuse_on", reuse_on, rows, max_concurrent, draws,
                        arrivals, reference));

  std::printf("{\n  \"lineorder_rows\": %" PRIu64 ",\n  \"queries\": %d,\n"
              "  \"max_concurrent\": %d,\n  \"mean_solo_latency_s\": %.6f,\n"
              "  \"offered_qps\": %.2f,\n  \"legs\": [\n",
              rows, queries, max_concurrent, mean_solo, offered_qps);
  for (size_t i = 0; i < legs.size(); ++i) {
    const LegStats& l = legs[i];
    std::printf(
        "    {\"name\": \"%s\", \"ok\": %d, \"achieved_qps\": %.2f, "
        "\"p50_latency_s\": %.6f, \"p99_latency_s\": %.6f, "
        "\"mean_queue_wait_s\": %.6f, \"cache_hit_rate\": %.4f, "
        "\"shared_builds\": %d, \"shared_attaches\": %d, "
        "\"share_attach_rate\": %.4f, \"wall_s\": %.3f, \"parity_ok\": %s}%s\n",
        l.name.c_str(), l.ok, l.achieved_qps, l.p50_latency_s, l.p99_latency_s,
        l.mean_queue_wait_s, l.cache_hit_rate, l.shared_builds,
        l.shared_attaches, l.share_attach_rate, l.wall_s,
        l.parity_ok ? "true" : "false", i + 1 < legs.size() ? "," : "");
  }
  std::printf("  ]\n}\n");

  if (check) {
    for (const LegStats& l : legs) {
      if (!l.parity_ok) {
        std::fprintf(stderr, "CHECK FAILED: leg %s rows diverge from reference\n",
                     l.name.c_str());
        return 1;
      }
    }
    const double off = legs[0].achieved_qps;
    const double on = legs[1].achieved_qps;
    if (off <= 0 || on < 1.3 * off) {
      std::fprintf(stderr,
                   "CHECK FAILED: reuse-on achieved %.2f qps, needs >= 1.3x "
                   "reuse-off %.2f qps at offered %.2f\n",
                   on, off, offered_qps);
      return 1;
    }
    std::fprintf(stderr,
                 "check ok: offered %.2f qps, reuse off %.2f -> on %.2f "
                 "(%.2fx), cache hit rate %.2f, share attach rate %.2f\n",
                 offered_qps, off, on, on / off, legs[1].cache_hit_rate,
                 legs[1].share_attach_rate);
  }
  return 0;
}
