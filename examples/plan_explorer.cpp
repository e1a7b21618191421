// Plan explorer: prints the heterogeneity-aware plans (the paper's Fig. 1e /
// Fig. 2b artifacts) that the planner produces for an SSB query under different
// execution policies, validates them against the §3.3 converter rules, prints
// the physical graph GraphBuilder lowers each plan to — so plan and execution
// shape can be eyeballed for agreement — and compiles each span through the
// system's program cache, reporting the chosen JIT tier and the per-device
// cache hit/miss counters.
//
// Tiering goes up to tier 2 (native codegen) when the kernel cache is enabled:
// run with HETEX_KERNEL_DIR=<dir> (or HETEX_TIER2=1) to see spans tier up to
// "native (jit-compiled)" — and, on a second run against the same directory,
// "native (kernel cache disk hit)" with the program cache's disk-hit counter
// ticking instead of the compiler. Codegen fallbacks print their named reason
// inline on the span's tier line.
//
// It then runs the cost-based optimizer: the ranked candidate table shows each
// enumerated plan's *estimated* virtual-time cost next to its *measured*
// virtual time (every candidate is executed), with the picked plan marked.
// For the picked plan it prints when each probe unit (CPU socket or GPU)
// started: the time that unit's hash-table replicas were ready. Each query
// also prints the order its fused pipeline probes the joins in
// (plan::ProbeOrder), by build table.
//
// Both modes open with the full fabric: every socket and GPU, per-link
// type/bandwidth (PCIe, NVLink-class peer, inter-socket), peer adjacency, and
// the live per-link backlog a query anchored at the current horizon would see.
//
// Flags:
//   --json             machine-readable report on stdout: {"fabric": {...},
//                      "queries": [...]} (exits non-zero when a query yields
//                      no candidates/picked plan)
//   --queries 1.1,3.1  comma-separated SSB queries for the optimizer section
//                      (default: 3.1 in human mode, 1.1,3.1,4.2 in JSON mode)
//   --gpus N           build the system as an N-GPU scale-out fabric
//                      (Topology::ScaleOutOptions: fully-connected NVLink peer
//                      mesh + inter-socket link; N=0 exercises the CPU-only
//                      degradation) instead of the default paper server

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/executor.h"
#include "core/graph_builder.h"
#include "core/program_cache.h"
#include "core/scheduler.h"
#include "core/system.h"
#include "jit/kernel_cache.h"
#include "plan/analysis.h"
#include "plan/het_plan.h"
#include "plan/optimizer.h"
#include "sim/topology.h"
#include "sim/vtime.h"
#include "ssb/ssb.h"

using namespace hetex;  // NOLINT — example brevity

namespace {

const char* TierName(jit::ExecTier tier) {
  switch (tier) {
    case jit::ExecTier::kInterpreter: return "0-interpreter";
    case jit::ExecTier::kVectorized: return "1-vectorized";
    case jit::ExecTier::kNative: return "2-native";
  }
  return "?";
}

/// Escapes a string for embedding in a JSON literal (tier reasons carry
/// compiler stderr, which has newlines and may quote paths).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Machine-readable fabric report: the same facts Topology::Describe prints —
/// sockets (DRAM rate + the workers whose DRAM intervals overlap `epoch`),
/// GPUs, and every interconnect link with its type, bandwidth and the backlog
/// a session anchored at `epoch` would queue behind.
void PrintFabricJson(const sim::Topology& topo, sim::VTime epoch) {
  std::printf("\"fabric\": {\"epoch\": %.9f,\n\"sockets\": [", epoch);
  for (int s = 0; s < topo.num_sockets(); ++s) {
    const auto& sock = topo.socket(s);
    std::printf("%s\n  {\"id\": %d, \"cores\": %d, \"mem_node\": %d, "
                "\"dram_gbps\": %.3f, \"backlog_workers\": %d}",
                s == 0 ? "" : ",", sock.id, sock.num_cores, sock.mem,
                topo.socket_dram(s).total_rate() / 1e9,
                topo.socket_dram(s).workers_overlapping(epoch));
  }
  std::printf("\n],\n\"gpus\": [");
  for (int g = 0; g < topo.num_gpus(); ++g) {
    const auto& gpu = topo.gpu(g);
    std::printf("%s\n  {\"id\": %d, \"mem_node\": %d, \"socket\": %d, "
                "\"pcie_link\": %d}",
                g == 0 ? "" : ",", gpu.id, gpu.mem, gpu.socket, gpu.pcie_link);
  }
  std::printf("\n],\n\"links\": [");
  for (int id = 0; id < topo.num_links(); ++id) {
    const sim::Topology::Link& l = topo.link_info(id);
    std::printf("%s\n  ", id == 0 ? "" : ",");
    switch (l.type) {
      case sim::Topology::LinkType::kPcie:
        std::printf("{\"type\": \"pcie\", \"id\": %d, \"gpu\": %d, "
                    "\"socket\": %d, ",
                    l.id, l.gpu_a, topo.gpu(l.gpu_a).socket);
        break;
      case sim::Topology::LinkType::kPeer:
        std::printf("{\"type\": \"peer\", \"id\": %d, \"gpu_a\": %d, "
                    "\"gpu_b\": %d, ",
                    l.id - topo.num_pcie_links(), l.gpu_a, l.gpu_b);
        break;
      case sim::Topology::LinkType::kInterSocket:
        std::printf("{\"type\": \"inter_socket\", ");
        break;
    }
    std::printf("\"gbps\": %.3f, \"backlog_s\": %.9f}", l.server->rate() / 1e9,
                sim::MaxT(0.0, l.server->free_at() - epoch));
  }
  std::printf("\n]},\n");
}

/// One span's live tier decision, for the human table and the JSON report.
struct SpanTier {
  std::string span;    // "build customer", "fact probe", ...
  std::string tier;    // TierName of the effective tier
  std::string reason;  // EffectiveTierReason(): tier line + any fallback reason
};

/// Compiles every span of a lowered plan through the system's per-device
/// program cache (as each of its worker instances would at Init) and prints the
/// tier ConvertToMachineCode picked plus the cache traffic per span.
void ReportSpanTiers(core::System& system, const core::GraphBuilder& builder,
                     const plan::QuerySpec& query,
                     std::vector<SpanTier>* out = nullptr, bool print = true) {
  const plan::PlanAnalysis& analysis = builder.analysis();
  core::QueryCompiler compiler(query, system.catalog(), system.cost_model());
  core::ProgramCache& cache = system.program_cache();

  auto report_stage = [&](const plan::Stage& stage, const char* label,
                          const core::CompiledPipeline& pipeline) {
    const auto before_cpu = cache.counters(sim::DeviceType::kCpu);
    const auto before_gpu = cache.counters(sim::DeviceType::kGpu);
    std::shared_ptr<const jit::PipelineProgram> program;
    for (const auto& dev : stage.instances) {
      auto provider = system.MakeProvider(dev);
      auto r = cache.GetOrCompile(*provider, pipeline);
      if (!r.ok()) {
        if (print) {
          std::printf("  %s %s: compile failed: %s\n", label,
                      plan::StageRoleName(stage.span().role),
                      r.status().ToString().c_str());
        }
        return;
      }
      program = r.value();
    }
    // Let background tier-2 compiles settle so the report shows the tier the
    // next block would actually execute at, not a transient "pending".
    if (system.kernel_cache() != nullptr) system.kernel_cache()->WaitIdle();
    const auto after_cpu = cache.counters(sim::DeviceType::kCpu);
    const auto after_gpu = cache.counters(sim::DeviceType::kGpu);
    const std::string span_name =
        std::string(label) + " " + plan::StageRoleName(stage.span().role);
    if (out != nullptr) {
      out->push_back({span_name, TierName(program->EffectiveTier()),
                      program->EffectiveTierReason()});
    }
    if (print) {
      std::printf(
          "  %s x%zu: tier=%s (%s) cache[cpu +%llu hit/+%llu miss/+%llu disk, "
          "gpu +%llu hit/+%llu miss/+%llu disk]\n",
          span_name.c_str(), stage.instances.size(),
          TierName(program->EffectiveTier()),
          program->EffectiveTierReason().c_str(),
          static_cast<unsigned long long>(after_cpu.hits - before_cpu.hits),
          static_cast<unsigned long long>(after_cpu.misses - before_cpu.misses),
          static_cast<unsigned long long>(after_cpu.disk_hits - before_cpu.disk_hits),
          static_cast<unsigned long long>(after_gpu.hits - before_gpu.hits),
          static_cast<unsigned long long>(after_gpu.misses - before_gpu.misses),
          static_cast<unsigned long long>(after_gpu.disk_hits - before_gpu.disk_hits));
    }
  };

  if (print) std::printf("span tiers + program cache:\n");
  for (const auto& stage : analysis.build_stages) {
    const core::GraphBuilder::BuildPipelines pipelines =
        builder.CompileBuildPipelines(stage, &compiler);
    if (stage.filter_stage >= 0) {
      report_stage(analysis.build_filter_stages[stage.filter_stage], "build",
                   pipelines.filter);
    }
    report_stage(stage, "build", pipelines.build);
  }
  // Fact stages compile through the same schema-threading path execution uses.
  const std::vector<core::CompiledPipeline> pipelines =
      builder.CompileFactPipelines(&compiler);
  for (size_t i = 0; i < pipelines.size(); ++i) {
    report_stage(analysis.fact_stages[i], "fact", pipelines[i]);
  }
}

/// Lowers the query under the hybrid policy and collects its spans' live tier
/// decisions (the JSON report's "spans" array).
std::vector<SpanTier> CollectSpanTiers(core::System& system,
                                       const plan::QuerySpec& query) {
  std::vector<SpanTier> tiers;
  const plan::HetPlan plan =
      plan::BuildHetPlan(query, plan::ExecPolicy::Hybrid(8), system.topology());
  if (!plan::ValidateHetPlan(plan).ok()) return tiers;
  core::GraphBuilder builder(&system, &plan);
  if (!builder.Analyze().ok()) return tiers;
  ReportSpanTiers(system, builder, query, &tiers, /*print=*/false);
  return tiers;
}

/// Serving-layer reuse decisions for one query, against a reuse-enabled
/// System (shared builds + result cache on): the first run builds and
/// publishes every join's shared hash tables, the second attaches to them;
/// the first scheduled submission misses the result cache (and populates
/// it), the second hits.
struct ReuseReport {
  int shared_builds_first = 0;    ///< joins built+published by run 1
  int shared_attaches_second = 0; ///< joins attached (not rebuilt) by run 2
  bool cache_hit_second = false;  ///< second submission answered from cache
  double miss_modeled_s = 0;
  double hit_modeled_s = 0;
};

ReuseReport CollectReuse(core::System& reuse_sys, const plan::QuerySpec& spec) {
  ReuseReport rep;
  core::QueryExecutor executor(&reuse_sys);
  const core::QueryResult r1 = executor.Execute(spec);
  const core::QueryResult r2 = executor.Execute(spec);
  if (r1.status.ok()) rep.shared_builds_first = r1.shared_builds;
  if (r2.status.ok()) rep.shared_attaches_second = r2.shared_attaches;
  core::QueryScheduler scheduler(&reuse_sys);
  const core::QueryResult miss = scheduler.Wait(scheduler.Submit(spec));
  const core::QueryResult hit = scheduler.Wait(scheduler.Submit(spec));
  if (miss.status.ok()) rep.miss_modeled_s = miss.modeled_seconds;
  if (hit.status.ok()) {
    rep.cache_hit_second = hit.cache_hit;
    rep.hit_modeled_s = hit.modeled_seconds;
  }
  return rep;
}

/// Optimizer section: enumerate → cost → rank, then execute every candidate to
/// put the measured virtual time next to the estimate. Returns false when the
/// candidate set is empty or no plan could be picked. `reuse_sys` is a
/// separate reuse-enabled System the serving-layer decisions are reported
/// against (the main system stays reuse-off, so candidate measurement is
/// undisturbed).
bool ReportOptimizer(core::System& system, core::System& reuse_sys,
                     const plan::QuerySpec& spec, bool json, bool first_json) {
  plan::ExecPolicy base = plan::ExecPolicy::Hybrid(8);
  base.block_rows = 4096;

  core::QueryExecutor executor(&system);
  plan::OptimizeResult opt;
  const Status st = executor.Optimize(spec, base, &opt);
  if (!st.ok() || opt.ranked.empty()) {
    if (json) {
      std::printf("%s{\"query\": \"%s\", \"error\": \"%s\"}", first_json ? "" : ",\n",
                  spec.name.c_str(), st.ToString().c_str());
    } else {
      std::printf("optimizer: %s\n", st.ToString().c_str());
    }
    return false;
  }

  struct Row {
    const plan::RankedCandidate* cand;
    double measured;
  };
  std::vector<Row> rows;
  double best_measured = -1;
  // Per probe unit, when the picked plan's probe instances started (their
  // unit's hash-table replicas were ready), and per (join, unit) replica its
  // build DOP and completion.
  std::vector<core::QueryResult::UnitReady> unit_ready;
  std::vector<core::QueryResult::BuildDone> builds;
  for (const auto& rc : opt.ranked) {
    const core::QueryResult r = executor.ExecutePlan(spec, rc.candidate.plan);
    const double measured = r.status.ok() ? r.modeled_seconds : -1;
    if (rows.empty()) {
      unit_ready = r.unit_ready;
      builds = r.builds;
    }
    if (measured >= 0 && (best_measured < 0 || measured < best_measured)) {
      best_measured = measured;
    }
    rows.push_back({&rc, measured});
  }

  const ReuseReport reuse = CollectReuse(reuse_sys, spec);
  // The nesting of the fused pipeline's probe loops, by build table.
  std::vector<std::string> probe_order;
  for (const int j : plan::ProbeOrder(spec, system.catalog(), system.cost_model())) {
    probe_order.push_back(spec.joins[j].build_table);
  }

  if (json) {
    std::printf("%s{\"query\": \"%s\", \"picked\": \"%s\",\n\"probe_order\": [",
                first_json ? "" : ",\n", spec.name.c_str(),
                opt.best().label.c_str());
    for (size_t i = 0; i < probe_order.size(); ++i) {
      std::printf("%s\"%s\"", i == 0 ? "" : ", ", probe_order[i].c_str());
    }
    std::printf("],\n\"spans\": [");
    const std::vector<SpanTier> tiers = CollectSpanTiers(system, spec);
    for (size_t i = 0; i < tiers.size(); ++i) {
      std::printf("%s\n  {\"span\": \"%s\", \"tier\": \"%s\", \"reason\": \"%s\"}",
                  i == 0 ? "" : ",", JsonEscape(tiers[i].span).c_str(),
                  tiers[i].tier.c_str(), JsonEscape(tiers[i].reason).c_str());
    }
    std::printf("\n],\n\"candidates\": [");
    for (size_t i = 0; i < rows.size(); ++i) {
      std::printf("%s\n  {\"label\": \"%s\", \"estimated\": %.9f, "
                  "\"measured\": %.9f, \"chosen\": %s}",
                  i == 0 ? "" : ",", rows[i].cand->candidate.label.c_str(),
                  rows[i].cand->cost.total, rows[i].measured,
                  i == 0 ? "true" : "false");
    }
    std::printf("\n],\n\"unit_ready\": [");
    for (size_t i = 0; i < unit_ready.size(); ++i) {
      std::printf("%s\n  {\"unit\": \"%s\", \"start\": %.9f}", i == 0 ? "" : ",",
                  unit_ready[i].unit.ToString().c_str(), unit_ready[i].start);
    }
    std::printf("\n],\n\"builds\": [");
    for (size_t i = 0; i < builds.size(); ++i) {
      std::printf("%s\n  {\"join\": %d, \"unit\": \"%s\", \"dop\": %d, "
                  "\"done\": %.9f}",
                  i == 0 ? "" : ",", builds[i].join_id,
                  builds[i].unit.ToString().c_str(), builds[i].dop,
                  builds[i].done);
    }
    std::printf("\n],\n\"reuse\": {\"shared_builds_first_run\": %d, "
                "\"shared_attaches_second_run\": %d, "
                "\"cache_hit_second_run\": %s, "
                "\"cache_miss_modeled_s\": %.9f, "
                "\"cache_hit_modeled_s\": %.9f}}",
                reuse.shared_builds_first, reuse.shared_attaches_second,
                reuse.cache_hit_second ? "true" : "false", reuse.miss_modeled_s,
                reuse.hit_modeled_s);
  } else {
    std::printf("=== optimizer: %s ===\n%s\nprobe order:", spec.name.c_str(),
                opt.cards.ToString().c_str());
    for (size_t i = 0; i < probe_order.size(); ++i) {
      std::printf("%s %s", i == 0 ? "" : ",", probe_order[i].c_str());
    }
    std::printf("\n");
    std::printf("%-26s %12s %12s  %s\n", "candidate", "estimated", "measured",
                "");
    for (size_t i = 0; i < rows.size(); ++i) {
      std::printf("%-26s %12.6f %12.6f  %s%s\n",
                  rows[i].cand->candidate.label.c_str(),
                  rows[i].cand->cost.total, rows[i].measured,
                  i == 0 ? "<- picked" : "",
                  rows[i].measured >= 0 && rows[i].measured <= best_measured
                      ? " (measured best)"
                      : "");
    }
    std::printf("probe-unit start (picked plan, hash tables ready):");
    for (const auto& u : unit_ready) {
      std::printf(" %s@%.6fs", u.unit.ToString().c_str(), u.start);
    }
    std::printf("\nhash-table builds (picked plan, join/unit x dop -> done):");
    for (const auto& b : builds) {
      std::printf(" ht[%d]/%s x%d->%.6fs", b.join_id, b.unit.ToString().c_str(),
                  b.dop, b.done);
    }
    std::printf("\n");
    std::printf("serving-layer reuse (shared builds + result cache on):\n");
    std::printf("  run 1: built+published %d shared hash table(s)\n",
                reuse.shared_builds_first);
    std::printf("  run 2: attached to %d shared hash table(s) (no rebuild)\n",
                reuse.shared_attaches_second);
    std::printf("  submit 1: result-cache miss, modeled %.6fs\n",
                reuse.miss_modeled_s);
    std::printf("  submit 2: result-cache %s, modeled %.6fs\n",
                reuse.cache_hit_second ? "hit" : "miss", reuse.hit_modeled_s);
    std::printf("\n");
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string queries_arg;
  int num_gpus = -1;  // -1 = default paper server, >= 0 = scale-out fabric
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      queries_arg = argv[++i];
    } else if (std::strcmp(argv[i], "--gpus") == 0 && i + 1 < argc) {
      num_gpus = std::atoi(argv[++i]);
    }
  }
  if (queries_arg.empty()) queries_arg = json ? "1.1,3.1,4.2" : "3.1";

  core::System::Options sys_opts;
  if (num_gpus >= 0) {
    sys_opts.topology = sim::Topology::ScaleOutOptions(num_gpus);
  }
  core::System system(sys_opts);
  ssb::Ssb::Options opts;
  opts.lineorder_rows = 30'000;  // small but large enough to execute candidates
  ssb::Ssb ssb(opts, &system.catalog());
  for (const char* name : {"lineorder", "date", "customer", "supplier", "part"}) {
    const Status st =
        system.catalog().at(name).Place(system.HostNodes(), &system.memory());
    if (!st.ok()) {
      std::fprintf(stderr, "place %s: %s\n", name, st.ToString().c_str());
      return 1;
    }
  }

  // Second System with the serving-layer reuse knobs on; the reuse report runs
  // here so shared builds / cache insertions never perturb candidate timing on
  // the main (reuse-off) system.
  core::System::Options reuse_opts;
  reuse_opts.reuse.shared_builds = true;
  reuse_opts.reuse.result_cache = true;
  core::System reuse_sys(reuse_opts);
  ssb::Ssb reuse_ssb(opts, &reuse_sys.catalog());
  for (const char* name : {"lineorder", "date", "customer", "supplier", "part"}) {
    const Status st = reuse_sys.catalog().at(name).Place(reuse_sys.HostNodes(),
                                                         &reuse_sys.memory());
    if (!st.ok()) {
      std::fprintf(stderr, "place %s (reuse): %s\n", name, st.ToString().c_str());
      return 1;
    }
  }

  // Parse "f.i,f.i" into query specs; malformed tokens are reported, not fatal.
  std::vector<plan::QuerySpec> opt_queries;
  for (size_t pos = 0; pos < queries_arg.size();) {
    size_t comma = queries_arg.find(',', pos);
    if (comma == std::string::npos) comma = queries_arg.size();
    const std::string q = queries_arg.substr(pos, comma - pos);
    pos = comma + 1;
    int flight = 0, idx = 0;
    if (std::sscanf(q.c_str(), "%d.%d", &flight, &idx) != 2 || idx < 1 ||
        idx > ssb::Ssb::FlightSize(flight)) {
      std::fprintf(stderr, "skipping malformed query token '%s'\n", q.c_str());
      continue;
    }
    opt_queries.push_back(ssb.Query(flight, idx));
  }
  if (opt_queries.empty()) {
    std::fprintf(stderr, "no valid --queries; expected \"f.i,f.i\" (e.g. 3.1)\n");
    return 1;
  }

  if (json) {
    bool ok = true;
    std::printf("{");
    PrintFabricJson(system.topology(), system.VirtualHorizon());
    std::printf("\"queries\": [");
    for (size_t i = 0; i < opt_queries.size(); ++i) {
      ok = ReportOptimizer(system, reuse_sys, opt_queries[i], /*json=*/true,
                           i == 0) &&
           ok;
    }
    std::printf("]}\n");
    return ok ? 0 : 1;
  }

  std::printf("=== fabric (live backlog at the next query's epoch) ===\n%s\n",
              system.topology().Describe(system.VirtualHorizon()).c_str());

  const plan::QuerySpec spec = ssb.Query(3, 1);

  struct Config {
    const char* label;
    plan::ExecPolicy policy;
  };
  plan::ExecPolicy split = plan::ExecPolicy::Hybrid(8);
  split.split_probe_stage = true;

  for (const auto& [label, policy] : {
           Config{"CPU-only, 4 workers", plan::ExecPolicy::CpuOnly(4)},
           Config{"GPU-only, both GPUs", plan::ExecPolicy::GpuOnly()},
           Config{"Hybrid, 8 CPU workers + 2 GPUs", plan::ExecPolicy::Hybrid(8)},
           Config{"Hybrid, split probe stage (hash router + hash-pack)", split},
           Config{"Bare Proteus (no HetExchange), 1 GPU, UVA",
                  plan::ExecPolicy::Bare(sim::DeviceType::kGpu)},
       }) {
    // GPU-placed policies on a GPU-less fabric (--gpus 0) are the named
    // InvalidArgument the executor would surface, not a layout abort.
    const Status placed = plan::ValidatePolicyForTopology(policy, system.topology());
    if (!placed.ok()) {
      std::printf("=== %s ===\npolicy: %s\n\n", label, placed.ToString().c_str());
      continue;
    }
    const plan::HetPlan plan = plan::BuildHetPlan(spec, policy, system.topology());
    std::printf("=== %s ===\n%s", label, plan.ToString().c_str());
    const Status st = plan::ValidateHetPlan(plan);
    std::printf("validation: %s\n", st.ToString().c_str());
    if (!st.ok()) {
      // The executor refuses invalid plans before lowering; mirror that here.
      std::printf("lowering: skipped (plan failed validation)\n\n");
      continue;
    }

    core::GraphBuilder builder(&system, &plan);
    const Status lowered = builder.Analyze();
    if (lowered.ok()) {
      std::printf("%s", builder.Describe().c_str());
      ReportSpanTiers(system, builder, spec);
      std::printf("\n");
    } else {
      std::printf("lowering: %s\n\n", lowered.ToString().c_str());
    }
  }

  bool ok = true;
  for (const auto& q : opt_queries) {
    ok = ReportOptimizer(system, reuse_sys, q, /*json=*/false, false) && ok;
  }
  return ok ? 0 : 1;
}
