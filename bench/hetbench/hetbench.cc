// hetbench — one seeded benchmark for the HetExchange engine.
//
// Four workloads, each run in its own process:
//   ssb_pcie          Fig. 5 regime: the fact table outgrows modeled GPU memory
//                     and streams over PCIe; closed loop, one client, the 13
//                     SSB queries through Optimize + ExecutePlan.
//   ssb_gpu_resident  Fig. 4 regime: the same data with the fact table in GPU
//                     memory; same loop.
//   serve_open        open-loop Poisson arrivals into the concurrent scheduler
//                     (reuse off): a latency leg below capacity and an
//                     overload leg that measures capacity.
//   serve_reuse_churn shared builds and the result cache on, with a table
//                     mutation after every few queries.
//
// Usage:
//   hetbench --workload NAME --seed S [--seconds T] [--trace FILE]
//
// The seed drives SSB data generation, the arrival traces and the query
// draws; every other input is a constant below. Each workload sets up
// (System, data placement, warm-up pass) and then measures a fixed number of
// whole rounds, SSB passes or serving cycles: its rounds per second times T,
// sized so that measuring takes about T seconds on a 4-vCPU 2.0 GHz VM.
// Equal T means equal work on every commit and machine; a run whose rounds
// take longer than kRunCap times T fails instead of measuring less. With
// --trace the run measures half its rounds untraced, then the other half with
// host spans recorded around every call into the engine's layers (serving
// workloads add one traced solo pass over the 13 queries per cycle), writes
// the spans to FILE as Chrome trace-event JSON and reports the layers' self
// times. Every executed query's rows are compared with
// ssb::ReferenceExecute. The last stdout line is one JSON object with the
// configuration, per-query detail, the correctness counts and every metric
// with its unit; the exit code is nonzero, after a "CHECK FAILED:" line on
// stderr, when any check failed.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "core/compiler.h"
#include "core/executor.h"
#include "core/graph_builder.h"
#include "core/scheduler.h"
#include "core/system.h"
#include "jit/vectorizer.h"
#include "plan/het_plan.h"
#include "report.h"
#include "ssb/reference.h"
#include "ssb/ssb.h"
#include "trace.h"

extern char** environ;

namespace hetex::hetbench {
namespace {

// ------------------------------------------------------------- fixed load
// Mirrored in README.md. Only the seed varies between runs.

/// An untraced run sets up at least kSetupsPerSide times before its measured
/// rounds and as many times after them, kMinSetupSeconds in all; setup_s is
/// the median. Set-ups one after another agree within about 5%, but host
/// speed moved their median by up to 30% between runs a minute apart, so the
/// samples come from both ends of the run. The serving set-up is so short
/// (tens of ms) that the time floor gives it about 50 samples.
constexpr int kSetupsPerSide = 3;
constexpr double kMinSetupSeconds = 2.0;
/// Measuring fails once it has taken longer than kRunCap times --seconds.
constexpr double kRunCap = 5;
/// SSB workloads try at most this many data seeds (see ChooseData).
constexpr int kMaxDataSeeds = 32;
/// Queries in flight at most (the scheduler's admission cap).
constexpr int kMaxConcurrent = 4;
/// Lineorder rows of the serving workloads.
constexpr uint64_t kServeRows = 60'000;
/// serve_open: offered rate of the latency leg, about 0.64 of capacity. At
/// 0.77 queueing amplified the host-timing dependence of modeled latency
/// under concurrency into a 3-4% run-to-run spread of the median.
constexpr double kServeQps = 250;
/// serve_open: offered rate of the capacity leg, about twice capacity.
constexpr double kOverloadQps = 800;
/// serve_reuse_churn: offered rate.
constexpr double kChurnQps = 300;
/// Arrivals per latency leg (one Poisson trace).
constexpr int kLegQueries = 1000;
/// Arrivals per capacity leg: its achieved rate varies far less than tail
/// latency does, so most of a cycle goes to the latency leg.
constexpr int kCapacityLegQueries = 500;
/// serve_reuse_churn: queries between table mutations.
constexpr int kWritePeriod = 10;
/// Dimension tables mutated in rotation by serve_reuse_churn.
constexpr const char* kWriteTables[] = {"date", "supplier", "customer", "part"};
/// Traced runs: the traced solo modeled_suite_ms must stay this close to the
/// untraced one.
constexpr double kTraceParityBound = 0.01;

struct SsbShape {
  double scale;
  double paper_sf;  ///< fixed latencies scale by scale / paper_sf
  uint64_t gpu_capacity;
  uint64_t customer_rows, supplier_rows, part_rows;
  bool fact_on_gpu;
  double rounds_per_second;  ///< passes per second of --seconds
};

/// Fig. 5: 1.2M host-resident lineorder rows against 10 MiB of modeled GPU
/// memory. Dimensions are scaled less than the fact table so their hash
/// tables keep the paper-scale size classes. A pass takes about 0.65 s.
constexpr SsbShape kSsbPcie{0.2, 200, 10ull << 20, 120'000, 30'000, 80'000, false, 1.5};
/// Fig. 4: the same data, the fact table across the GPUs' 8 GiB memories. A
/// pass takes about 0.9 s.
constexpr SsbShape kSsbGpuResident{0.2, 100, 8ull << 30, 120'000, 30'000, 80'000, true,
                                   1.1};
/// Serving cycles per second of --seconds: serve_open's cycle (1500 queries)
/// takes about 2.3 s, serve_reuse_churn's (1000 queries) about 1.25 s.
constexpr double kServeOpenRoundsPerSecond = 0.45;
constexpr double kChurnRoundsPerSecond = 0.8;

using Rows = std::vector<std::vector<int64_t>>;

// ------------------------------------------------------------ environment

/// Removes every HETEX_* variable: System::Options defaults read them, and an
/// exported knob would silently change what is measured.
std::vector<std::string> UnsetHetexEnv() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("HETEX_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  return names;
}

/// User + system CPU time of the whole process (every engine thread).
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Explicit options: tier-2 codegen off, fault plane off, reuse as given.
core::System::Options PinnedOptions(core::ReuseOptions reuse) {
  core::System::Options o;
  o.tier_policy = jit::TierPolicy::kAuto;
  o.codegen = jit::CodegenOptions{};
  o.faults = sim::FaultOptions{};
  o.reuse = reuse;
  return o;
}

// --------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  core::System::Options options;
  ssb::Ssb::Options data;
  bool fact_on_gpu = false;
  plan::ExecPolicy base;  ///< optimizer base policy of the closed loop
  bool serve = false;
  double rounds_per_second = 0;
};

Workload MakeSsbWorkload(const std::string& name, const SsbShape& shape,
                         uint64_t seed) {
  // The self-similar miniature of the figure benches: fixed latencies and
  // block granularity shrink with the data.
  const double latency_scale = shape.scale / shape.paper_sf;
  const uint64_t block_rows = std::max<uint64_t>(
      512, static_cast<uint64_t>(128.0 * 1024 * latency_scale));
  Workload w;
  w.name = name;
  w.options = PinnedOptions(core::ReuseOptions{});
  w.options.topology.gpu_capacity = shape.gpu_capacity;
  w.options.topology.cost_model.ScaleFixedLatencies(latency_scale);
  w.options.blocks.block_bytes = std::max<uint64_t>(block_rows * 8, 16 << 10);
  w.options.blocks.host_arena_blocks = 768;
  w.options.blocks.gpu_arena_blocks = 384;
  w.data.scale = shape.scale;
  w.data.seed = seed;
  w.data.customer_rows = shape.customer_rows;
  w.data.supplier_rows = shape.supplier_rows;
  w.data.part_rows = shape.part_rows;
  w.fact_on_gpu = shape.fact_on_gpu;
  w.base.block_rows = block_rows;
  w.rounds_per_second = shape.rounds_per_second;
  return w;
}

/// The throughput_bench server: 2 sockets x 2 cores, 2 GPUs, 60k rows.
Workload MakeServeWorkload(const std::string& name, bool reuse, uint64_t seed) {
  core::ReuseOptions r;
  r.shared_builds = reuse;
  r.result_cache = reuse;
  Workload w;
  w.name = name;
  w.serve = true;
  w.options = PinnedOptions(r);
  w.options.topology.num_sockets = 2;
  w.options.topology.cores_per_socket = 2;
  w.options.topology.num_gpus = 2;
  w.options.topology.gpu_sim_threads = 2;
  w.options.topology.host_capacity_per_socket = 4ull << 30;
  w.options.topology.gpu_capacity = 1ull << 30;
  w.options.blocks.block_bytes = 64 << 10;
  w.options.blocks.host_arena_blocks = 512;
  w.options.blocks.gpu_arena_blocks = 256;
  w.data.scale = 0.002;
  w.data.lineorder_rows = kServeRows;
  w.data.seed = seed;
  w.rounds_per_second = reuse ? kChurnRoundsPerSecond : kServeOpenRoundsPerSecond;
  return w;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  if (name == "ssb_pcie") {
    *out = MakeSsbWorkload(name, kSsbPcie, seed);
  } else if (name == "ssb_gpu_resident") {
    *out = MakeSsbWorkload(name, kSsbGpuResident, seed);
  } else if (name == "serve_open") {
    *out = MakeServeWorkload(name, /*reuse=*/false, seed);
  } else if (name == "serve_reuse_churn") {
    *out = MakeServeWorkload(name, /*reuse=*/true, seed);
  } else {
    return false;
  }
  return true;
}

// ------------------------------------------------------------------ set-up

struct Db {
  std::unique_ptr<core::System> system;
  std::unique_ptr<ssb::Ssb> ssb;
  std::vector<plan::QuerySpec> queries;  ///< the 13 SSB queries, paper order
  std::vector<Rows> reference;           ///< ssb::ReferenceExecute per query
  std::vector<double> solo_s;            ///< warm-up modeled latency per query
};

struct SetupTimes {
  std::vector<double> setup_s, datagen_s, place_s, warmup_s;
  double reference_s = 0;
  uint64_t warmup_misses = 0;  ///< program-cache misses of the last warm-up
};

uint64_t ProgramCacheMisses(core::System& s) {
  return s.program_cache().counters(sim::DeviceType::kCpu).misses +
         s.program_cache().counters(sim::DeviceType::kGpu).misses;
}

bool CheckQuery(Report& report, const char* where, const plan::QuerySpec& spec,
                const core::QueryResult& r, const Rows& reference) {
  const bool ok = r.status.ok() && r.rows == reference;
  report.CountQuery(ok);
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED: %s %s: %s\n", where, spec.name.c_str(),
                 r.status.ok() ? "rows differ from ssb::ReferenceExecute"
                               : r.status.ToString().c_str());
  }
  return ok;
}

/// Optimize + ExecutePlan: the closed-loop call sequence, also the warm-up.
core::QueryResult OptimizeAndRun(core::QueryExecutor& ex, const plan::QuerySpec& spec,
                                 const plan::ExecPolicy& base,
                                 plan::OptimizeResult* opt) {
  core::QueryResult r;
  r.status = ex.Optimize(spec, base, opt);
  if (!r.status.ok()) return r;
  return ex.ExecutePlan(spec, opt->best().plan);
}

/// Fixes the data seed and returns every query's ssb::ReferenceExecute rows
/// on that data. SSB workloads take the first of seed, seed + 2^32,
/// seed + 2 * 2^32, ... on whose data every query returns rows: at 1.2M
/// lineorder rows Q3.4 expects about one row, and an empty result cuts its
/// modeled latency by 40%, which set most of a 2.7% seed-to-seed spread of
/// the SSB sums. The serving data (40 suppliers) leaves Q3.4 empty for almost every
/// seed, so serving workloads keep the seed as given.
std::vector<Rows> ChooseData(Workload* w, SetupTimes* times) {
  const uint64_t seed = w->data.seed;
  for (int k = 0;; ++k) {
    w->data.seed = seed + (static_cast<uint64_t>(k) << 32);
    storage::Catalog catalog;
    const ssb::Ssb data(w->data, &catalog);
    Timer reference_timer;
    std::vector<Rows> reference;
    bool every_query_rows = true;
    for (const auto& spec : data.AllQueries()) {
      reference.push_back(ssb::ReferenceExecute(spec, catalog));
      every_query_rows = every_query_rows && !reference.back().empty();
    }
    times->reference_s = reference_timer.ElapsedSeconds();
    if (w->serve || every_query_rows || k + 1 == kMaxDataSeeds) return reference;
  }
}

/// Builds the System, generates and places the data and runs one warm-up
/// pass, at least `min_setups` times and until the run's set-ups add up to
/// `min_seconds`. The last set-up is kept. Data generation is timed apart
/// from set-up.
Db SetUp(const Workload& w, const std::vector<Rows>& reference, int min_setups,
         double min_seconds, Report& report, SetupTimes* times) {
  Db db;
  int rep = 0;
  do {
    db = Db{};
    Timer system_timer;
    db.system = std::make_unique<core::System>(w.options);
    const double system_s = system_timer.ElapsedSeconds();
    core::System& sys = *db.system;

    Timer datagen_timer;
    db.ssb = std::make_unique<ssb::Ssb>(w.data, &sys.catalog());
    db.queries = db.ssb->AllQueries();
    times->datagen_s.push_back(datagen_timer.ElapsedSeconds());
    db.reference = reference;

    Timer place_timer;
    for (const char* t : {"date", "customer", "supplier", "part"}) {
      HETEX_CHECK_OK(sys.catalog().at(t).Place(sys.HostNodes(), &sys.memory()));
    }
    HETEX_CHECK_OK(sys.catalog().at("lineorder").Place(
        w.fact_on_gpu ? sys.GpuNodes() : sys.HostNodes(), &sys.memory()));
    const double place_s = place_timer.ElapsedSeconds();

    Timer warmup_timer;
    core::QueryExecutor ex(&sys);
    for (size_t q = 0; q < db.queries.size(); ++q) {
      plan::OptimizeResult opt;
      const core::QueryResult r = OptimizeAndRun(ex, db.queries[q], w.base, &opt);
      CheckQuery(report, "warm-up", db.queries[q], r, db.reference[q]);
      db.solo_s.push_back(r.modeled_seconds);
    }
    const double warmup_s = warmup_timer.ElapsedSeconds();

    times->place_s.push_back(place_s);
    times->warmup_s.push_back(warmup_s);
    times->setup_s.push_back(system_s + place_s + warmup_s);
    times->warmup_misses = ProgramCacheMisses(sys);
    ++rep;
  } while (rep < min_setups || Sum(times->setup_s) < min_seconds);
  return db;
}

/// Counters read before and after a measured phase.
struct Counters {
  uint64_t cache_misses = 0;
  uint64_t vectorizer_fallbacks = 0;
  uint64_t remote_roundtrips = 0;
  core::HtRegistry::SharedStats shared;
  core::ResultCache::Stats result_cache;
  /// Largest PCIe-link and socket-DRAM timeline segment counts.
  size_t link_segments = 0, dram_segments = 0;

  static Counters Read(core::System& s) {
    Counters c;
    c.cache_misses = ProgramCacheMisses(s);
    c.vectorizer_fallbacks = jit::GetVectorizerCounters().fallbacks;
    c.remote_roundtrips = s.blocks().remote_roundtrips();
    c.shared = s.hts().shared_stats();
    if (s.result_cache() != nullptr) c.result_cache = s.result_cache()->stats();
    const sim::Topology& topo = s.topology();
    for (int l = 0; l < topo.num_pcie_links(); ++l) {
      c.link_segments = std::max(c.link_segments, topo.pcie_link(l).num_segments());
    }
    for (int k = 0; k < topo.num_sockets(); ++k) {
      c.dram_segments = std::max(c.dram_segments, topo.socket_dram(k).num_segments());
    }
    return c;
  }
};

// ----------------------------------------------------------------- samples

/// What one measured phase observed.
struct Samples {
  explicit Samples(size_t queries)
      : latency_by_query(queries), est_by_query(queries), label(queries) {}

  /// Client-observed modeled latency (queue wait + execution), in seconds,
  /// of the queries the latency metrics describe (a capacity leg's are not),
  /// by query and pooled; their modeled execution times and queue waits.
  std::vector<std::vector<double>> latency_by_query;
  std::vector<double> latency_s, exec_s;
  double queue_wait_sum_s = 0;
  /// Executed (not cache-hit) queries: modeled execution over the query's
  /// solo warm-up time, and ExecutePlan's host wall time.
  std::vector<double> contention, execute_plan_s;
  int cache_hits = 0;

  /// Every completed query of the phase.
  int completed = 0;
  sim::CostStats stats;
  int retries = 0;
  /// Host time of the phase's rounds, and per completed query of each round
  /// (an SSB pass or a serving cycle): the median over rounds is robust to a
  /// round in which the machine stalled.
  double host_total_s = 0;
  std::vector<double> round_host_per_query_s;
  std::vector<double> round_cpu_per_query_s;  ///< process CPU time, all threads

  /// Closed-loop passes: the picked plan's estimate and label per query.
  std::vector<std::vector<double>> est_by_query;
  std::vector<std::string> label;
  std::vector<double> transfer_share;
  double candidates = 0;

  /// Serving: achieved rate of each capacity leg, and the virtual makespan
  /// of the latency legs (summed over drained segments).
  std::vector<double> capacity_qps;
  double latency_makespan_s = 0;

  void Record(size_t q, const core::QueryResult& r, double solo_s, bool latency) {
    ++completed;
    stats.Add(r.stats);
    if (!latency) return;
    latency_by_query[q].push_back(r.queue_wait + r.modeled_seconds);
    latency_s.push_back(r.queue_wait + r.modeled_seconds);
    exec_s.push_back(r.modeled_seconds);
    queue_wait_sum_s += r.queue_wait;
    if (r.cache_hit) {
      ++cache_hits;
      return;
    }
    if (solo_s > 0) contention.push_back(r.modeled_seconds / solo_s);
    execute_plan_s.push_back(r.wall_seconds);
  }

  struct Round {
    double host_s, cpu_s;
    int completed;
  };
  Round BeginRound() const { return {host_total_s, ProcessCpuSeconds(), completed}; }
  void EndRound(const Round& begin) {
    const int n = completed - begin.completed;
    if (n == 0) return;
    round_host_per_query_s.push_back((host_total_s - begin.host_s) / n);
    round_cpu_per_query_s.push_back((ProcessCpuSeconds() - begin.cpu_s) / n);
  }
  double HostMsPerQuery() const { return Median(round_host_per_query_s) * 1e3; }

  double SuiteMs() const {
    double sum = 0;
    for (const auto& v : latency_by_query) sum += Median(v);
    return sum * 1e3;
  }
};

// ------------------------------------------------------- closed-loop pass

/// ExecutePlan's call sequence, spelled out so each layer gets its own span:
/// validate, lower, run, flush — the same public functions in the same order.
core::QueryResult ExecuteTraced(core::System& sys, core::QueryExecutor& ex,
                                const plan::QuerySpec& spec,
                                const plan::ExecPolicy& base, Tracer& tracer,
                                uint64_t query, plan::OptimizeResult* opt) {
  ScopedSpan root(&tracer, "query", -1, query);
  core::QueryResult r;
  {
    ScopedSpan span(&tracer, "plan.optimize", root.id(), query);
    r.status = ex.Optimize(spec, base, opt);
  }
  if (!r.status.ok()) return r;
  const plan::HetPlan& plan = opt->best().plan;
  const core::QuerySession session{sys.NextQueryId(), sys.VirtualHorizon()};
  Timer timer;
  r.query_id = session.query_id;
  {
    ScopedSpan span(&tracer, "plan.validate", root.id(), query);
    r.status = plan::ValidateHetPlan(plan);
  }
  if (!r.status.ok()) return r;
  core::GraphBuilder builder(&sys, &plan, &session);
  {
    ScopedSpan span(&tracer, "core.lower", root.id(), query);
    r.status = builder.Analyze();
  }
  if (!r.status.ok()) return r;
  {
    ScopedSpan span(&tracer, "core.run", root.id(), query);
    core::QueryCompiler compiler(spec, sys.catalog(), sys.cost_model());
    r.status = builder.Run(&compiler, &r);
  }
  r.wall_seconds = timer.ElapsedSeconds();
  ScopedSpan span(&tracer, "memory.flush_releases", root.id(), query);
  sys.blocks().FlushReleases();
  return r;
}

/// One solo pass over the 13 queries, one at a time: Optimize + ExecutePlan,
/// or with a tracer the same calls spelled out under spans.
void RunPass(const Workload& w, Db& db, Tracer* tracer, uint64_t* query_seq,
             Report& report, Samples* s) {
  core::System& sys = *db.system;
  core::QueryExecutor ex(&sys);
  for (size_t q = 0; q < db.queries.size(); ++q) {
    const plan::QuerySpec& spec = db.queries[q];
    plan::OptimizeResult opt;
    Timer host;
    const core::QueryResult r =
        tracer != nullptr
            ? ExecuteTraced(sys, ex, spec, w.base, *tracer, ++*query_seq, &opt)
            : OptimizeAndRun(ex, spec, w.base, &opt);
    s->host_total_s += host.ElapsedSeconds();
    if (!CheckQuery(report, tracer != nullptr ? "traced" : "timed", spec, r,
                    db.reference[q])) {
      continue;
    }
    s->Record(q, r, db.solo_s[q], /*latency=*/true);
    const plan::CostEstimate& est = opt.ranked.front().cost;
    s->est_by_query[q].push_back(est.total);
    s->transfer_share.push_back(est.total > 0 ? est.transfer / est.total : 0);
    s->candidates += static_cast<double>(opt.ranked.size());
    s->label[q] = opt.best().label;
  }
}

/// Best modeled latency of each query over the pinned CPU-only, GPU-only and
/// hybrid policies (0 when none completed).
std::vector<double> BestPinned(const Workload& w, Db& db, Report& report) {
  core::QueryExecutor ex(db.system.get());
  std::vector<double> best;
  for (size_t q = 0; q < db.queries.size(); ++q) {
    double b = 0;
    for (plan::ExecPolicy policy : {plan::ExecPolicy::CpuOnly(), plan::ExecPolicy::GpuOnly(),
                                    plan::ExecPolicy::Hybrid()}) {
      policy.block_rows = w.base.block_rows;
      policy.data_on_gpu =
          w.fact_on_gpu && policy.mode == plan::ExecPolicy::Mode::kGpuOnly;
      const core::QueryResult r = ex.Execute(db.queries[q], policy);
      if (!CheckQuery(report, "pinned", db.queries[q], r, db.reference[q])) continue;
      if (b == 0 || r.modeled_seconds < b) b = r.modeled_seconds;
    }
    best.push_back(b);
  }
  return best;
}

// ----------------------------------------------------------------- serving

struct Leg {
  double qps;
  int queries;
  int write_period;  ///< 0 = no mutations
  bool capacity;     ///< measures capacity; its latencies are not reported
  uint64_t trace_seed;
};

/// One Poisson trace of `leg.queries` arrivals at `leg.qps`, the 13 queries
/// drawn uniformly, submitted as virtual arrival offsets and waited on in
/// submission order. With a write period the trace is cut into segments: each
/// is submitted, drained, and followed by a mutation of the next dimension
/// table in rotation.
void RunLeg(Db& db, const Leg& leg, Tracer* tracer, uint64_t* query_seq,
            Report& report, Samples* s) {
  Rng rng(leg.trace_seed);
  const int n = leg.queries;
  std::vector<int> draws(n);
  std::vector<double> arrivals(n);
  double t = 0;
  for (int i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.NextDouble()) / leg.qps;
    arrivals[i] = t;
    draws[i] = static_cast<int>(rng.Uniform(db.queries.size()));
  }

  core::System& sys = *db.system;
  core::QueryScheduler scheduler(&sys, {.max_concurrent = kMaxConcurrent});
  Timer wall;
  const int segment = leg.write_period > 0 ? leg.write_period : n;
  const int completed_before = s->completed;
  int writes = 0;
  double makespan = 0;
  for (int begin = 0; begin < n; begin += segment) {
    const int end = std::min(n, begin + segment);
    std::vector<core::QueryHandle> handles;
    std::vector<uint64_t> ids;
    for (int i = begin; i < end; ++i) {
      ids.push_back(++*query_seq);
      ScopedSpan span(tracer, "core.scheduler.submit", -1, ids.back());
      core::SubmitOptions opts;
      opts.arrival_offset = arrivals[i] - arrivals[begin];
      handles.push_back(scheduler.Submit(db.queries[draws[i]], opts));
    }
    double first_arrival = std::numeric_limits<double>::infinity();
    double last_done = -std::numeric_limits<double>::infinity();
    for (int i = begin; i < end; ++i) {
      const uint64_t id = ids[i - begin];
      core::QueryResult r;
      {
        ScopedSpan span(tracer, "core.scheduler.wait", -1, id);
        r = scheduler.Wait(handles[i - begin]);
      }
      const size_t q = static_cast<size_t>(draws[i]);
      s->retries += r.retries;
      if (!CheckQuery(report, "served", db.queries[q], r, db.reference[q])) continue;
      const double arrival = r.session_epoch - r.queue_wait;
      const double done = r.session_epoch + r.modeled_seconds;
      first_arrival = std::min(first_arrival, arrival);
      last_done = std::max(last_done, done);
      s->Record(q, r, db.solo_s[q], /*latency=*/!leg.capacity);
      if (tracer != nullptr) {
        tracer->AddVirtual("queue", arrival, r.session_epoch, id);
        tracer->AddVirtual(r.cache_hit ? "exec (cache hit)" : "exec", r.session_epoch,
                           done, id);
      }
    }
    if (last_done > first_arrival) makespan += last_done - first_arrival;
    if (leg.write_period > 0) {
      sys.catalog().at(kWriteTables[writes++ % std::size(kWriteTables)]).NoteMutation();
    }
  }
  s->host_total_s += wall.ElapsedSeconds();
  if (leg.capacity) {
    s->capacity_qps.push_back(makespan > 0 ? (s->completed - completed_before) / makespan
                                           : 0);
  } else {
    s->latency_makespan_s += makespan;
  }
}

/// The legs of one serving cycle: serve_open pairs a latency leg with a
/// capacity leg; serve_reuse_churn runs one latency leg with writes.
std::vector<Leg> CycleLegs(const Workload& w, uint64_t seed, int cycle) {
  const uint64_t base = seed * 1'000'003ull + static_cast<uint64_t>(cycle) * 2;
  if (w.options.reuse.result_cache) {
    return {{kChurnQps, kLegQueries, kWritePeriod, false, base}};
  }
  return {{kServeQps, kLegQueries, 0, false, base},
          {kOverloadQps, kCapacityLegQueries, 0, true, base + 1}};
}

// --------------------------------------------------------------- phases

/// Measures `rounds` whole rounds. Traced serving phases add a traced solo
/// pass after each cycle, into `solo` (unused otherwise), outside the cycle's
/// host time. Once `clock` reads more than `cap_s` the phase stops and fails
/// the run, which then exits in time instead of reporting less work.
void RunPhase(const Workload& w, Db& db, uint64_t seed, int rounds, const Timer& clock,
              double cap_s, Tracer* tracer, int* cycle, Report& report, Samples* s,
              Samples* solo) {
  uint64_t query_seq = 0;
  for (int i = 0; i < rounds; ++i) {
    if (clock.ElapsedSeconds() > cap_s) {
      report.FailCheck();
      std::fprintf(stderr, "CHECK FAILED: measuring took over %.1f s, %d rounds left\n",
                   cap_s, rounds - i);
      return;
    }
    const Samples::Round round = s->BeginRound();
    if (w.serve) {
      for (const Leg& leg : CycleLegs(w, seed, (*cycle)++)) {
        RunLeg(db, leg, tracer, &query_seq, report, s);
      }
    } else {
      RunPass(w, db, tracer, &query_seq, report, s);
    }
    s->EndRound(round);
    if (w.serve && tracer != nullptr) RunPass(w, db, tracer, &query_seq, report, solo);
  }
}

// -------------------------------------------------------------- reporting

void ReportEndToEnd(Report& report, const Samples& s, const SetupTimes& setup) {
  report.Set("modeled_suite_ms", s.SuiteMs(), "ms");
  report.Set("latency_p50_ms", Percentile(s.latency_s, 0.50) * 1e3, "ms");
  report.Set("latency_p99_ms", Percentile(s.latency_s, 0.99) * 1e3, "ms");
  report.Set("setup_s", Median(setup.setup_s), "s");
}

/// Layer metrics of the untraced phase.
void ReportLayers(Report& report, const Samples& s, const SetupTimes& setup,
                  const Counters& before, const Counters& after) {
  const double completed = std::max(1, s.completed);
  auto delta = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  // serve_open: the capacity legs' achieved rate; otherwise completions per
  // modeled second (one closed-loop client, or churn's drained segments).
  const double busy_s =
      s.latency_makespan_s > 0 ? s.latency_makespan_s : Sum(s.latency_s);
  report.Set("throughput_qps",
             s.capacity_qps.empty() ? s.latency_s.size() / busy_s : Median(s.capacity_qps),
             "1/s");
  report.Set("host.ms_per_query", s.HostMsPerQuery(), "ms");
  report.Set("host.cpu_ms_per_query", Median(s.round_cpu_per_query_s) * 1e3, "ms");
  report.Set("core.execute_plan_ms_p50", Percentile(s.execute_plan_s, 0.5) * 1e3, "ms");
  report.Set("core.scheduler.queue_wait_share", s.queue_wait_sum_s / Sum(s.latency_s),
             "ratio");
  report.Set("core.scheduler.contention_factor",
             Sum(s.contention) / std::max<size_t>(1, s.contention.size()), "ratio");
  report.Set("core.result_cache.hit_rate",
             static_cast<double>(s.cache_hits) / std::max<size_t>(1, s.latency_s.size()),
             "ratio");
  report.Set("core.result_cache.evictions",
             delta(before.result_cache.evictions, after.result_cache.evictions), "count");
  const double builds = delta(before.shared.builds, after.shared.builds);
  const double attaches = delta(before.shared.attaches, after.shared.attaches);
  report.Set("core.ht_registry.attach_rate",
             builds + attaches > 0 ? attaches / (builds + attaches) : 0, "ratio");
  report.Set("core.ht_registry.failovers",
             delta(before.shared.failovers, after.shared.failovers), "count");
  report.Set("core.retries", s.retries, "count");
  report.Set("core.program_cache.misses_warmup",
             static_cast<double>(setup.warmup_misses), "count");
  report.Set("core.program_cache.misses_timed",
             delta(before.cache_misses, after.cache_misses), "count");
  report.Set("core.warmup_s", Median(setup.warmup_s), "s");
  report.Set("jit.vectorizer.fallbacks",
             delta(before.vectorizer_fallbacks, after.vectorizer_fallbacks), "count");
  report.Set("jit.host_mtuples_per_s",
             static_cast<double>(s.stats.tuples) / Sum(s.execute_plan_s) / 1e6,
             "Mtuples/s");
  report.Set("sim.exec_ms_p50", Percentile(s.exec_s, 0.50) * 1e3, "ms");
  report.Set("sim.exec_ms_p99", Percentile(s.exec_s, 0.99) * 1e3, "ms");
  report.Set("sim.modeled_mbytes_per_query",
             static_cast<double>(s.stats.TotalBytes()) / completed / 1e6, "MB");
  report.Set("sim.random_accesses_per_query",
             static_cast<double>(s.stats.near_accesses + s.stats.mid_accesses +
                                 s.stats.far_accesses) /
                 completed,
             "count");
  report.Set("sim.link_segments_max", static_cast<double>(after.link_segments), "count");
  report.Set("sim.dram_segments_max", static_cast<double>(after.dram_segments), "count");
  report.Set("memory.remote_roundtrips_per_query",
             delta(before.remote_roundtrips, after.remote_roundtrips) / completed,
             "count");
  report.Set("ssb.datagen_s", Median(setup.datagen_s), "s");
  report.Set("ssb.reference_s", setup.reference_s, "s");
  report.Set("storage.place_s", Median(setup.place_s), "s");
}

/// Optimizer accuracy from solo passes, and the per-query detail block.
/// `pinned` is empty outside traced runs.
void ReportPlan(Report& report, const Workload& w, Db& db, const Samples& s,
                const std::vector<double>& pinned) {
  core::System& sys = *db.system;
  const storage::Table& fact = sys.catalog().at("lineorder");
  std::vector<double> est_ratio, pcie_ratio, pinned_ratio;
  for (size_t q = 0; q < db.queries.size(); ++q) {
    const double modeled = Median(s.latency_by_query[q]);
    report.queries().Raw(db.queries[q].name,
                         JsonObject()
                             .Num("modeled_ms", modeled * 1e3)
                             .Num("est_ms", Median(s.est_by_query[q]) * 1e3)
                             .Int("rows", static_cast<int64_t>(db.reference[q].size()))
                             .Str("plan", s.label[q])
                             .str());
    if (modeled <= 0) continue;
    est_ratio.push_back(Median(s.est_by_query[q]) / modeled);
    // The Fig. 5 dotted line: the query's fact columns over both PCIe links.
    const double fact_bytes =
        static_cast<double>(fact.ColumnSetBytes(ssb::Ssb::FactColumns(db.queries[q])));
    pcie_ratio.push_back(modeled / (fact_bytes / (2 * sys.cost_model().pcie_bw)));
    if (q < pinned.size() && pinned[q] > 0) pinned_ratio.push_back(modeled / pinned[q]);
  }
  report.Set("plan.candidates", s.candidates / std::max(1, s.completed), "count");
  report.Set("plan.est_over_modeled", Geomean(est_ratio), "ratio");
  report.Set("plan.est_transfer_share", Median(s.transfer_share), "ratio");
  report.Set("plan.picked_over_best_pinned", Geomean(pinned_ratio), "ratio");
  // Only the streaming regime is bound by the links; the serving data is too
  // small for anything but fixed costs to matter.
  const bool streams = !w.serve && !w.fact_on_gpu;
  report.Set("sim.pcie_bound_ratio", streams ? Geomean(pcie_ratio) : 0, "ratio");
}

/// Layer self times of the traced phase, and its host-time overhead.
void ReportTraced(Report& report, const Tracer& tracer, double untraced_ms,
                  double traced_ms) {
  const auto self = tracer.SelfTimesUs();
  auto pct = [&](const char* name, double p) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : Percentile(it->second, p);
  };
  report.Set("plan.optimize_us_p50", pct("plan.optimize", 0.5), "us");
  report.Set("plan.optimize_us_p90", pct("plan.optimize", 0.9), "us");
  report.Set("core.validate_us_p50", pct("plan.validate", 0.5), "us");
  report.Set("core.lower_us_p50", pct("core.lower", 0.5), "us");
  report.Set("core.run_ms_p50", pct("core.run", 0.5) / 1e3, "ms");
  report.Set("core.run_ms_p90", pct("core.run", 0.9) / 1e3, "ms");
  report.Set("memory.flush_us_p50", pct("memory.flush_releases", 0.5), "us");
  report.Set("bench.query_glue_us_p50", pct("query", 0.5), "us");
  report.Set("bench.trace_overhead_pct", (traced_ms / untraced_ms - 1) * 100, "%");
}

void CheckTraceParity(Report& report, double traced_ms, double untraced_ms) {
  const double drift = std::abs(traced_ms / untraced_ms - 1);
  if (drift <= kTraceParityBound) return;
  report.FailCheck();
  std::fprintf(stderr,
               "CHECK FAILED: traced modeled_suite_ms %.6f vs untraced %.6f "
               "(drift %.4f > %.4f)\n",
               traced_ms, untraced_ms, drift, kTraceParityBound);
}

/// Measured rounds of a run of `seconds`.
int Rounds(const Workload& w, double seconds) {
  return std::max(1, static_cast<int>(std::lround(w.rounds_per_second * seconds)));
}

void Run(Workload w, uint64_t seed, double seconds, Tracer* tracer, Report& report) {
  SetupTimes setup;
  const std::vector<Rows> reference = ChooseData(&w, &setup);
  report.config().Int("data_seed", static_cast<int64_t>(w.data.seed));
  const bool traced = tracer != nullptr;
  Db db = SetUp(w, reference, traced ? 1 : kSetupsPerSide,
                traced ? 0 : kMinSetupSeconds / 2, report, &setup);
  core::System& sys = *db.system;
  const size_t nq = db.queries.size();

  const int rounds = Rounds(w, seconds);
  const int untraced_rounds = traced ? std::max(1, rounds / 2) : rounds;
  report.config().Int("rounds", rounds);
  const Timer clock;
  const double cap_s = kRunCap * seconds;
  int cycle = 0;
  Samples s(nq);
  const Counters before = Counters::Read(sys);
  RunPhase(w, db, seed, untraced_rounds, clock, cap_s, nullptr, &cycle, report, &s,
           nullptr);
  const Counters after = Counters::Read(sys);
  if (!traced) {
    if (!w.serve) ReportPlan(report, w, db, s, {});
    db = Db{};  // the measured System goes before the second half of set-ups
    SetUp(w, reference, kSetupsPerSide, kMinSetupSeconds, report, &setup);
  }
  report.config().Int("setups", static_cast<int64_t>(setup.setup_s.size()));
  ReportEndToEnd(report, s, setup);
  ReportLayers(report, s, setup, before, after);
  if (!traced) return;

  const std::vector<double> pinned = BestPinned(w, db, report);
  Samples ts(nq), solo(nq);
  RunPhase(w, db, seed, std::max(1, rounds - untraced_rounds), clock, cap_s, tracer,
           &cycle, report, &ts, &solo);
  ReportTraced(report, *tracer, s.HostMsPerQuery(), ts.HostMsPerQuery());
  if (!w.serve) {
    ReportPlan(report, w, db, s, pinned);
    CheckTraceParity(report, ts.SuiteMs(), s.SuiteMs());
    return;
  }
  ReportPlan(report, w, db, solo, pinned);
  // Shared builds let a later solo query attach instead of build, so only a
  // reuse-off server must reproduce its warm-up solo times.
  if (!w.options.reuse.shared_builds) {
    CheckTraceParity(report, solo.SuiteMs(), Sum(db.solo_s) * 1e3);
  }
}

// -------------------------------------------------------------------- main

std::string ConfigTopology(const core::System::Options& o) {
  const sim::Topology::Options& t = o.topology;
  return JsonObject()
      .Int("sockets", t.num_sockets)
      .Int("cores_per_socket", t.cores_per_socket)
      .Int("gpus", t.num_gpus)
      .Int("gpu_sim_threads", t.gpu_sim_threads)
      .Int("gpu_capacity_bytes", static_cast<int64_t>(t.gpu_capacity))
      .Int("peer_links", static_cast<int64_t>(t.peer_links.size()))
      .Num("pcie_bw", t.cost_model.pcie_bw)
      .Num("dma_latency_s", t.cost_model.dma_latency)
      .str();
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 10;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  Workload w;
  if (!have_seed || !(seconds > 0) || !MakeWorkload(workload, seed, &w)) {
    std::fprintf(stderr,
                 "usage: hetbench --workload ssb_pcie|ssb_gpu_resident|serve_open|"
                 "serve_reuse_churn --seed S [--seconds T] [--trace FILE]\n");
    return 2;
  }
  const std::vector<std::string> unset = UnsetHetexEnv();

  Report report;
  std::string unset_json;
  for (const std::string& n : unset) {
    unset_json += (unset_json.empty() ? "" : ",") + JsonObject::Quote(n);
  }
  const bool churn = w.options.reuse.result_cache;
  report.config()
      .Num("seconds", seconds)
      .Bool("traced", !trace_path.empty())
      .Raw("topology", ConfigTopology(w.options))
      .Num("ssb_scale", w.data.scale)
      .Int("lineorder_rows", static_cast<int64_t>(w.data.lineorder_rows > 0
                                                      ? w.data.lineorder_rows
                                                      : w.data.scale * 6'000'000))
      .Bool("fact_on_gpu", w.fact_on_gpu)
      .Int("block_bytes", static_cast<int64_t>(w.options.blocks.block_bytes))
      .Int("block_rows", static_cast<int64_t>(w.base.block_rows))
      .Str("tier_policy",
           w.options.tier_policy == jit::TierPolicy::kAuto ? "auto" : "pinned")
      .Bool("codegen", w.options.codegen.enabled)
      .Bool("faults", w.options.faults.enabled)
      .Bool("shared_builds", w.options.reuse.shared_builds)
      .Bool("result_cache", w.options.reuse.result_cache)
      .Raw("unset_env", "[" + unset_json + "]");
  if (w.serve) {
    report.config()
        .Int("max_concurrent", kMaxConcurrent)
        .Int("leg_queries", kLegQueries)
        .Int("capacity_leg_queries", churn ? 0 : kCapacityLegQueries)
        .Num("offered_qps", churn ? kChurnQps : kServeQps)
        .Num("overload_qps", churn ? 0 : kOverloadQps)
        .Int("write_period", churn ? kWritePeriod : 0);
  }

  Tracer tracer;
  Tracer* traced = trace_path.empty() ? nullptr : &tracer;
  Run(w, seed, seconds, traced, report);
  report.Set("memory.peak_rss_mb", PeakRssMb(), "MB");
  if (traced != nullptr && !tracer.WriteChromeJson(trace_path)) {
    std::fprintf(stderr, "CHECK FAILED: cannot write trace %s\n", trace_path.c_str());
    report.FailCheck();
  }
  std::printf("%s\n", report.ToJson(w.name, seed).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace hetex::hetbench

int main(int argc, char** argv) { return hetex::hetbench::Main(argc, argv); }
