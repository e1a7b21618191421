#include "core/graph_builder.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "core/processor.h"

namespace hetex::core {

namespace {

ProcessorFactory FactoryFor(const StageConfig* cfg) {
  return [cfg](WorkerInstance&) { return MakeVmProcessor(cfg); };
}

}  // namespace

Status GraphBuilder::Analyze() {
  Result<plan::PlanAnalysis> analysis =
      plan::AnalyzePlan(*plan_, system_->topology());
  analysis_ = analysis.ok() ? std::move(analysis).value() : plan::PlanAnalysis{};
  return analysis.status();
}

Edge::Options GraphBuilder::EdgeOptions(const plan::Stage& stage) {
  Edge::Options options;
  options.policy = stage.in.policy;
  options.control_cost = stage.in.control_cost;
  options.crossing_latency = stage.in.crossing_latency;
  // Relational operators are data-location agnostic: every exchange fixes
  // locality on the consumer side unless the plan opted into UVA addressing.
  options.mem_move = !stage.in.uva;
  // A unit's build instances fill one replica together: each unit receives
  // every block once, rotated over its instances.
  options.unit_broadcast = stage.span().role == plan::StageRole::kBuild &&
                           options.policy == plan::RouterPolicy::kBroadcast;
  return options;
}

std::string GraphBuilder::Describe() const {
  const plan::PlanAnalysis& a = analysis_;
  size_t instances = 0;
  for (const auto* stages : {&a.build_filter_stages, &a.build_stages, &a.fact_stages}) {
    for (const plan::Stage& s : *stages) instances += s.instances.size();
  }
  std::ostringstream os;
  os << "lowered graph: " << a.build_stages.size() << " build stage(s), "
     << a.fact_stages.size() << " fact stage(s), " << instances
     << " instance(s)\n";
  auto print_stage = [&](const plan::Stage& stage, const char* label) {
    const plan::Span& span = stage.span();
    os << label << " " << plan::StageRoleName(span.role);
    if (span.join_id >= 0) os << " ht[" << span.join_id << "]";
    os << " x" << stage.instances.size() << " [";
    for (size_t i = 0; i < stage.instances.size(); ++i) {
      os << (i ? " " : "") << stage.instances[i].ToString();
    }
    os << "]\n";
    const Edge::Options options = EdgeOptions(stage);
    os << "  edge: policy=" << plan::RouterPolicyName(options.policy)
       << (options.unit_broadcast ? "(per-unit rotation)" : "")
       << (options.mem_move ? " mem-move" : " no-mem-move")
       << (stage.in.uva ? " uva" : "");
    if (options.crossing_latency > 0) {
      os << " crossing=" << options.crossing_latency;
    }
    os << " control=" << options.control_cost << "\n";
  };
  for (const plan::Stage& stage : a.build_stages) {
    if (stage.filter_stage >= 0) {
      print_stage(a.build_filter_stages[stage.filter_stage], "build stage:");
    }
    print_stage(stage, "build stage:");
  }
  for (const plan::Stage& stage : a.fact_stages) print_stage(stage, "fact stage:");
  return os.str();
}

namespace {

/// One instantiated stage: the worker group plus the edge (and possibly the
/// source driver) feeding it. Declaration order matters for destruction.
struct RuntimeStage {
  std::unique_ptr<StageConfig> cfg;
  std::unique_ptr<WorkerGroup> group;
  std::unique_ptr<Edge> edge;
  std::unique_ptr<SourceDriver> source;
};

/// Session-local virtual time per CPU socket (phase boundaries differ per
/// socket once each unit starts probing at its own hash-table readiness).
using SocketTime = std::function<sim::VTime(int socket)>;

/// Concurrently-active CPU workers of one execution phase, per socket.
using SocketWorkers = std::map<int, int>;

/// Folds `stage`'s CPU workers into `out`: added when the phase runs its
/// stages concurrently, maxed in when they run one after another.
void CountWorkers(const plan::Stage& stage, bool concurrent, SocketWorkers* out) {
  SocketWorkers mine;
  for (const auto& dev : stage.instances) {
    if (dev.is_cpu()) mine[dev.index] += 1;
  }
  for (const auto& [socket, n] : mine) {
    int& w = (*out)[socket];
    w = concurrent ? w + n : std::max(w, n);
  }
}

/// Reserves one execution phase's concurrently-active CPU workers (per
/// socket) as an interval on the cross-session DRAM timelines: each socket's
/// interval opens at its session-local `start(socket)` and closes at the
/// modeled end passed to Close(). Closed intervals persist, so any session
/// overlapping this phase *in virtual time* divides its fluid share by these
/// workers — and this query's own shares divide by theirs (see
/// sim::DramServer). If the phase errors out before Close(), the destructor
/// discards the reservation (a phase that never modeled work must not charge
/// future sessions).
class DramPhaseGuard {
 public:
  DramPhaseGuard(sim::Topology* topo, const QuerySession& session,
                 const SocketWorkers& workers, const SocketTime& start)
      : topo_(topo), epoch_(session.epoch) {
    for (const auto& [socket, n] : workers) {
      if (n <= 0) continue;
      tokens_.emplace_back(socket, topo_->socket_dram(socket).Register(
                                       session.query_id, epoch_ + start(socket), n));
    }
  }

  /// Closes each socket's interval at session-local `end(socket)`.
  void Close(const SocketTime& end) {
    for (const auto& [socket, token] : tokens_) {
      topo_->socket_dram(socket).Release(token, epoch_ + end(socket));
    }
    tokens_.clear();
  }

  ~DramPhaseGuard() {
    for (const auto& [socket, token] : tokens_) {
      topo_->socket_dram(socket).Release(token);  // error path: discard
    }
  }
  DramPhaseGuard(const DramPhaseGuard&) = delete;
  DramPhaseGuard& operator=(const DramPhaseGuard&) = delete;

 private:
  sim::Topology* topo_;
  sim::VTime epoch_;
  std::vector<std::pair<int, uint64_t>> tokens_;
};

}  // namespace

std::vector<CompiledPipeline> GraphBuilder::CompileFactPipelines(
    QueryCompiler* compiler) const {
  // Pipelines compile producer→consumer so a stage can read its producer's emit
  // schema (stage B of split plans reads stage A's surviving columns).
  const size_t n_fact = analysis_.fact_stages.size();
  std::vector<CompiledPipeline> out(n_fact);
  for (size_t i = n_fact; i-- > 0;) {
    const plan::Span& span = analysis_.fact_stages[i].span();
    const bool packed_input =
        span.role == plan::StageRole::kProbe && i + 1 < n_fact;
    out[i] = compiler->CompileSpan(
        span, packed_input ? &out[i + 1].output_cols : nullptr);
  }
  return out;
}

GraphBuilder::BuildPipelines GraphBuilder::CompileBuildPipelines(
    const plan::Stage& stage, QueryCompiler* compiler) const {
  BuildPipelines out;
  if (stage.filter_stage >= 0) {
    out.filter = compiler->CompileSpan(
        analysis_.build_filter_stages[stage.filter_stage].span(), nullptr);
  }
  out.build = compiler->CompileSpan(
      stage.span(), stage.filter_stage >= 0 ? &out.filter.output_cols : nullptr);
  return out;
}

Status GraphBuilder::Run(QueryCompiler* compiler, QueryResult* result) {
  const plan::HetPlan& plan = *plan_;
  if (analysis_.fact_stages.empty()) {
    return Status::Internal("lowered graph has no fact stages (Analyze not run?)");
  }
  HETEX_RETURN_NOT_OK(plan::CheckUvaSources(plan, analysis_, system_->catalog(),
                                            system_->topology()));

  // The session anchors this query on the shared virtual timeline: its epoch
  // offsets every reservation on contended resources (PCIe links, GPU
  // streams), its id namespaces the hash tables in the System-shared registry.
  QuerySession session =
      session_ != nullptr
          ? *session_
          : QuerySession{system_->NextQueryId(), system_->VirtualHorizon()};
  // Every run stops as a whole on its first failure (QueryControl::Fail); an
  // unscheduled run gets a control of its own for that.
  QueryControl local_control;
  if (session.control == nullptr) session.control = &local_control;
  const QueryControl* control = session.control;
  HtRegistry& hts = system_->hts();
  // The namespace only lives for the run; release it on every exit path.
  struct HtNamespaceGuard {
    HtRegistry* hts;
    uint64_t query;
    ~HtNamespaceGuard() { hts->DropQuery(query); }
  } ht_guard{&hts, session.query_id};

  ResultSink sink;
  const sim::VTime init_clock = analysis_.init_latency;
  const uint64_t block_bytes = system_->blocks().options().block_bytes;
  const size_t channel_capacity = static_cast<size_t>(plan.channel_capacity);

  // The edge feeding `stage`'s group, created once the group exists.
  auto make_edge = [&](const plan::Stage& stage, WorkerGroup& group) {
    Edge::Options options = EdgeOptions(stage);
    options.epoch = session.epoch;
    options.control = session.control;
    return std::make_unique<Edge>(system_, options, group.instance_ptrs());
  };

  auto make_config = [&](const plan::Stage& stage) {
    auto cfg = std::make_unique<StageConfig>();
    cfg->role = stage.span().role;
    if (cfg->role == plan::StageRole::kGather) cfg->result = &sink;
    cfg->query_id = session.query_id;
    cfg->hts = &hts;
    cfg->programs = &system_->program_cache();
    cfg->block_bytes = block_bytes;
    cfg->allow_uva = stage.in.uva;
    return cfg;
  };

  // Lifts the run's first failure, else the first per-instance runtime error
  // (e.g. division by zero), out of a joined worker group.
  auto group_error = [control](WorkerGroup& group) {
    if (Status st = control->failure(); !st.ok()) return st;
    for (int i = 0; i < group.size(); ++i) {
      if (!group.instance(i).error().ok()) return group.instance(i).error();
    }
    return Status::OK();
  };

  auto make_source = [&](const plan::Stage& stage, const StageConfig& cfg,
                         Edge* edge, sim::VTime clock,
                         std::unique_ptr<SourceDriver>* out) -> Status {
    const plan::HetOpNode& seg = plan.node(stage.in.segmenter);
    const storage::Table* table = system_->catalog().Get(seg.table);
    if (table == nullptr || !table->placed()) {
      return Status::NotFound("source table missing or unplaced: " + seg.table);
    }
    std::vector<int> indices;
    indices.reserve(cfg.pipeline.input_cols.size());
    for (const auto& slot : cfg.pipeline.input_cols) {
      const int idx = table->FindColumn(slot.name);
      if (idx < 0) {
        // Hand-mutated plans can retarget a segmenter at the wrong table;
        // surface the mismatch instead of aborting inside the scan.
        return Status::InvalidArgument("segmenter table '" + seg.table +
                                       "' lacks pipeline input column '" +
                                       slot.name + "'");
      }
      indices.push_back(idx);
    }
    // GPU-bound scans (GPU instances or GPU-resident chunks) clamp coarse
    // stamps to one staging block (block_bytes / 8-byte slots) here, never
    // crashing at transfer time.
    const uint64_t block_rows = plan::ScanBlockRows(
        seg, stage.instances, table, system_->topology(), block_bytes / 8);
    *out = std::make_unique<SourceDriver>(system_, table, std::move(indices),
                                          block_rows, edge, clock,
                                          seg.per_block_cost);
    (*out)->set_control(control);
    return Status::OK();
  };

  // ------------------------------------------------------------------- builds
  //
  // Shared-build promotion (serving layer, off by default): before running the
  // build stages, each join's content key (table + mutation epoch + build
  // predicate + key/payload schema + capacity + unit set) is resolved against
  // the registry's single-flight shared entries. The winner builds normally
  // into its own namespace and publishes; losers attach the published replicas
  // into theirs and skip the build stage entirely, gating each unit's probes
  // on the absolute completion epoch of that unit's replica instead.
  struct SharedAcq {
    std::string key;
    std::string table;   ///< build table (stale-generation GC grouping)
    uint64_t epoch = 0;  ///< the table's mutation epoch the key embeds
    const plan::Stage* stage = nullptr;
    SharedBuildLease lease;
    bool published = false;
  };
  std::vector<SharedAcq> acqs;
  std::vector<const plan::Stage*> exec_builds;  // stages this query runs itself

  // Every unpublished build role is failed on exit, success or not: waiters
  // blocked on this query's in-flight shared builds must always wake, and the
  // first of them takes over the build (fault failover — a faulted builder
  // never poisons its attachers).
  struct SharedBuildGuard {
    HtRegistry* hts;
    std::vector<SharedAcq>* acqs;
    ~SharedBuildGuard() {
      for (const SharedAcq& acq : *acqs) {
        if (acq.lease.role == SharedBuildLease::Role::kBuild && !acq.published) {
          hts->FailShared(acq.key);
        }
      }
    }
  } shared_guard{&hts, &acqs};

  const bool share_builds = system_->reuse().shared_builds;
  auto shared_build_key = [&](const plan::Stage& stage, SharedAcq* acq) {
    const plan::JoinSpec& j = compiler->spec().joins[stage.span().join_id];
    const storage::Table* table = system_->catalog().Get(j.build_table);
    acq->table = j.build_table;
    acq->epoch = table != nullptr ? table->mutation_epoch() : 0;
    std::ostringstream os;
    os << j.build_table << "@" << acq->epoch
       << ";bf=" << (j.build_filter != nullptr ? j.build_filter->ToString() : "-")
       << ";bk=" << j.build_key << ";pay=";
    for (size_t i = 0; i < j.payload.size(); ++i) {
      os << (i ? "," : "") << j.payload[i];
    }
    os << ";cap=" << plan::JoinHtCapacity(j, system_->catalog())
       << ";w=" << compiler->JoinPayloadWidth(stage.span().join_id);
    // Exact unit-set match: Analyze() proved the build placement covers every
    // probe unit, so a replica set built for the same units covers them too.
    std::vector<sim::DeviceId> units = stage.instances;
    std::sort(units.begin(), units.end());
    os << ";units=";
    for (size_t i = 0; i < units.size(); ++i) {
      os << (i ? "," : "") << units[i].ToString();
    }
    acq->key = os.str();
  };

  // Pass 1 (plan order): compute every shareable stage's content key; stages
  // that cannot share — knob off, or invalid join stamps from hand-mutated
  // plans, which must surface through the execution loop below exactly as
  // without sharing — map to no acquisition.
  std::vector<int> stage_acq;  // per build stage: index into acqs, or -1
  for (const plan::Stage& stage : analysis_.build_stages) {
    const int join = stage.span().join_id;
    if (!share_builds || join < 0 ||
        join >= static_cast<int>(compiler->spec().joins.size())) {
      stage_acq.push_back(-1);
      continue;
    }
    SharedAcq acq;
    acq.stage = &stage;
    shared_build_key(stage, &acq);
    stage_acq.push_back(static_cast<int>(acqs.size()));
    acqs.push_back(std::move(acq));
  }

  // Pass 2: acquire in canonical (sorted-key) order. AcquireShared blocks
  // while holding earlier build roles, so two queries whose key sets overlap
  // must claim them along one global total order — plan-order acquisition let
  // opposite-join-order queries hold-and-wait on each other forever. Ties
  // (one query computing the same key twice) keep plan order; the later
  // acquire self-conflicts into a private build.
  {
    std::vector<size_t> order(acqs.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return acqs[a].key < acqs[b].key; });
    for (size_t idx : order) {
      SharedAcq& acq = acqs[idx];
      acq.lease = hts.AcquireShared(acq.key, session.query_id, control,
                                    acq.table, acq.epoch);
      if (acq.lease.role == SharedBuildLease::Role::kCancelled) {
        // Build roles already won are failed over by shared_guard on return.
        return control->deadline_hit.load(std::memory_order_relaxed)
                   ? Status::DeadlineExceeded(
                         "query deadline expired while waiting on a shared "
                         "hash-table build")
                   : Status::Cancelled("query cancelled");
      }
    }
  }

  // Pass 3 (plan order): attach won replicas and collect the stages this
  // query executes itself — in the exact order the non-shared path uses.
  // `replica_ready` is each unit's latest replica completion, attached or
  // built, in session-local time (0 for a unit without one).
  std::map<sim::DeviceId, sim::VTime> replica_ready;
  auto note_ready = [&](sim::DeviceId unit, sim::VTime t) {
    sim::VTime& ready = replica_ready[unit];
    ready = sim::MaxT(ready, t);
  };
  for (size_t si = 0; si < analysis_.build_stages.size(); ++si) {
    const plan::Stage& stage = analysis_.build_stages[si];
    if (stage_acq[si] < 0) {
      exec_builds.push_back(&stage);
      continue;
    }
    const SharedAcq& acq = acqs[stage_acq[si]];
    switch (acq.lease.role) {
      case SharedBuildLease::Role::kCancelled:
        break;  // unreachable: pass 2 returned
      case SharedBuildLease::Role::kAttach:
        hts.AttachShared(acq.key, session.query_id, stage.span().join_id);
        // The key pins the unit set, so every instance's unit has a replica;
        // its readiness is translated into this session's local time (a late
        // arrival's negative time clamps to init_clock below: the artifact
        // already exists, so it pays nothing).
        for (const auto& [unit, ready] : acq.lease.ready_at) {
          note_ready(unit, ready - session.epoch);
          result->builds.push_back(
              {stage.span().join_id, unit, 0, ready - session.epoch});
        }
        ++result->shared_attaches;
        break;
      case SharedBuildLease::Role::kBuild:
        ++result->shared_builds;
        exec_builds.push_back(&stage);
        break;
      case SharedBuildLease::Role::kPrivate:
        exec_builds.push_back(&stage);
        break;
    }
  }

  // Each unit runs this query's builds one join after another, in plan order,
  // on all of its instances: a join's instances on a unit start when that
  // unit's previous build ended (dependency order, not host thread timing).
  // Build-side filter stages run on the same cores before the builds. So the
  // build phase's DRAM intervals reserve each socket's widest stage, not the
  // sum over joins. They open at the modeled build start; each
  // socket's is closed (not discarded) at that socket's fact-phase start once
  // the units' replica readiness is known, so [init_clock, socket start)
  // stays on the timeline for later sessions.
  SocketWorkers build_workers;
  for (const plan::Stage* stage : exec_builds) {
    CountWorkers(*stage, /*concurrent=*/false, &build_workers);
    if (stage->filter_stage >= 0) {
      CountWorkers(analysis_.build_filter_stages[stage->filter_stage],
                   /*concurrent=*/false, &build_workers);
    }
  }
  DramPhaseGuard build_dram(&system_->topology(), session, build_workers,
                            [&](int) { return init_clock; });
  std::map<sim::DeviceId, sim::VTime> unit_free;  // end of its latest build
  auto free_at = [&](sim::DeviceId dev) {
    auto it = unit_free.find(dev);
    return it != unit_free.end() ? it->second : init_clock;
  };

  // End of each core's latest build-side filter instance (see plan::Core).
  std::map<plan::Core, sim::VTime> filter_end;

  // A build-side filter stage runs to completion on its CPU workers, each
  // starting when its core's previous filter instance ended. Its packed
  // survivors come back in replay order — (ready time, producer instance,
  // sequence) — with the node holding them.
  struct Survivor {
    DataMsg msg;
    sim::MemNodeId node;
  };
  auto run_build_filter = [&](const plan::Stage& stage, CompiledPipeline pipeline,
                              std::vector<Survivor>* survivors) -> Status {
    RuntimeStage rt;
    rt.cfg = make_config(stage);
    rt.cfg->pipeline = std::move(pipeline);
    std::vector<std::vector<DataMsg>> collected(stage.instances.size());
    rt.cfg->collect = &collected;
    std::vector<sim::VTime> starts;
    for (const plan::Core& core : stage.cores) {
      auto it = filter_end.find(core);
      starts.push_back(it != filter_end.end() ? it->second : init_clock);
    }
    rt.group = std::make_unique<WorkerGroup>(
        system_, stage.instances, FactoryFor(rt.cfg.get()), nullptr,
        channel_capacity, std::move(starts), session.epoch, session.query_id,
        control);
    rt.edge = make_edge(stage, *rt.group);
    HETEX_RETURN_NOT_OK(
        make_source(stage, *rt.cfg, rt.edge.get(), init_clock, &rt.source));
    rt.group->Start();
    rt.source->Start();
    rt.source->Join();
    rt.group->Join();
    result->stats.Add(rt.group->total_stats());
    for (int k = 0; k < rt.group->size(); ++k) {
      const WorkerInstance& inst = rt.group->instance(k);
      filter_end[stage.cores[k]] = inst.clock();
      for (DataMsg& msg : collected[k]) {
        survivors->push_back({std::move(msg), inst.node()});
      }
    }
    // Instance-major collection keeps (instance, sequence) order among equal
    // ready times.
    std::stable_sort(survivors->begin(), survivors->end(),
                     [](const Survivor& a, const Survivor& b) {
                       return a.msg.ready_at < b.msg.ready_at;
                     });
    return group_error(*rt.group);
  };

  // Hand-mutated plans reach here through ExecutePlan: a stamped join id the
  // query does not have must surface as a Status, not a crash.
  for (const plan::Stage* stage : exec_builds) {
    const int join = stage->span().join_id;
    if (join < 0 || join >= static_cast<int>(compiler->spec().joins.size())) {
      return Status::InvalidArgument(
          "build span stamped with join id " + std::to_string(join) +
          " but the query has " +
          std::to_string(compiler->spec().joins.size()) + " join(s)");
    }
  }

  // One stage per core at a time: every core first runs its share of the
  // build-side filter stages, one after another, then its builds. So the
  // GPUs' survivors are ready after the sockets' filters alone, not behind
  // the sockets' own builds. Survivors still held on an early return go back
  // to their arenas.
  struct HeldSurvivors {
    System* system;
    std::vector<std::vector<Survivor>> by_build;
    ~HeldSurvivors() {
      for (auto& survivors : by_build) {
        for (Survivor& sv : survivors) ReleaseMsgBlocks(system, sv.msg, sv.node);
      }
    }
  } held{system_, std::vector<std::vector<Survivor>>(exec_builds.size())};
  std::vector<BuildPipelines> build_pipelines(exec_builds.size());
  for (size_t b = 0; b < exec_builds.size(); ++b) {
    build_pipelines[b] = CompileBuildPipelines(*exec_builds[b], compiler);
    if (exec_builds[b]->filter_stage < 0) continue;
    HETEX_RETURN_NOT_OK(run_build_filter(
        analysis_.build_filter_stages[exec_builds[b]->filter_stage],
        std::move(build_pipelines[b].filter), &held.by_build[b]));
  }

  for (size_t b = 0; b < exec_builds.size(); ++b) {
    const plan::Stage& stage = *exec_builds[b];
    const int join = stage.span().join_id;
    RuntimeStage rt;
    rt.cfg = make_config(stage);
    rt.cfg->pipeline = std::move(build_pipelines[b].build);
    // One replica per unit, created before any of its writers runs. An
    // instance starts after its unit's previous build and after its core's
    // filter instances.
    std::vector<sim::VTime> starts;
    for (size_t k = 0; k < stage.instances.size(); ++k) {
      const sim::DeviceId dev = stage.instances[k];
      auto [it, fresh] = rt.cfg->build_replicas.try_emplace(dev);
      if (fresh) {
        it->second.ht = hts.Create(
            session.query_id, join, dev,
            &system_->memory().manager(system_->topology().LocalMemNode(dev)),
            plan::JoinHtCapacity(compiler->spec().joins[join], system_->catalog()),
            compiler->JoinPayloadWidth(join));
      }
      ++it->second.writers;
      auto filtered = filter_end.find(stage.cores[k]);
      starts.push_back(filtered != filter_end.end()
                           ? sim::MaxT(free_at(dev), filtered->second)
                           : free_at(dev));
    }
    rt.group = std::make_unique<WorkerGroup>(
        system_, stage.instances, FactoryFor(rt.cfg.get()), nullptr,
        channel_capacity, std::move(starts), session.epoch, session.query_id,
        control);
    rt.edge = make_edge(stage, *rt.group);
    if (stage.filter_stage < 0) {
      HETEX_RETURN_NOT_OK(
          make_source(stage, *rt.cfg, rt.edge.get(), init_clock, &rt.source));
      rt.group->Start();
      rt.source->Start();
      rt.source->Join();
    } else {
      // One thread replays the survivors into the broadcast, so which
      // instance inserts which block, and the order in which each GPU link
      // is reserved, depend only on data and plan.
      rt.group->Start();
      rt.edge->AddProducer();
      for (Survivor& sv : held.by_build[b]) {
        rt.edge->Push(std::move(sv.msg), sv.node);
      }
      held.by_build[b].clear();
      rt.edge->CloseProducer();
    }
    rt.group->Join();
    result->stats.Add(rt.group->total_stats());
    HETEX_RETURN_NOT_OK(group_error(*rt.group));

    // A replica is complete when the last of its writers finished.
    std::map<sim::DeviceId, QueryResult::BuildDone> done;  // unit -> completion
    for (int k = 0; k < rt.group->size(); ++k) {
      const WorkerInstance& inst = rt.group->instance(k);
      QueryResult::BuildDone& d = done[inst.device()];
      d.join_id = join;
      d.unit = inst.device();
      d.dop += 1;
      d.done = sim::MaxT(d.done, inst.clock());
    }
    std::map<sim::DeviceId, sim::VTime> ready_at;
    for (const auto& [unit, d] : done) {
      unit_free[unit] = d.done;
      note_ready(unit, d.done);
      ready_at[unit] = session.epoch + d.done;
      result->builds.push_back(d);
    }
    // Cooperative cancellation/deadline stops leave cleanly-joined build
    // groups with partial hash tables; those must never be published.
    const bool stopped =
        control->stopped.load(std::memory_order_relaxed) ||
        control->deadline_hit.load(std::memory_order_relaxed);
    for (SharedAcq& acq : acqs) {
      if (stopped || acq.stage != &stage ||
          acq.lease.role != SharedBuildLease::Role::kBuild) {
        continue;
      }
      hts.PublishShared(acq.key, session.query_id, join, std::move(ready_at));
      acq.published = true;
      break;
    }
  }

  // Each probe instance starts when the replicas on its own unit are ready
  // (built here, or attached), so CPU sockets need not idle while the GPUs'
  // tables still cross PCIe; the load-balance router steers early fact blocks
  // to the instances already running. Every other fact-side clock — the
  // segmenter, filter and gather stages — starts at the earliest probe unit's
  // start.
  auto unit_ready = [&](sim::DeviceId dev) {
    auto it = replica_ready.find(dev);
    return sim::MaxT(init_clock,
                     it != replica_ready.end() ? it->second : 0.0);
  };
  const size_t n_fact = analysis_.fact_stages.size();
  std::vector<std::vector<sim::VTime>> starts(n_fact);
  std::map<sim::DeviceId, QueryResult::UnitReady> probe_units;
  for (size_t i = 0; i < n_fact; ++i) {
    const plan::Stage& stage = analysis_.fact_stages[i];
    if (stage.span().role != plan::StageRole::kProbe) continue;
    for (const auto& dev : stage.instances) {
      starts[i].push_back(unit_ready(dev));
      probe_units[dev] = {dev, starts[i].back()};
    }
  }
  const auto earliest = std::min_element(
      probe_units.begin(), probe_units.end(),
      [](const auto& a, const auto& b) { return a.second.start < b.second.start; });
  const sim::VTime fact_start =
      earliest != probe_units.end() ? earliest->second.start : init_clock;
  for (const auto& [unit, ready] : probe_units) result->unit_ready.push_back(ready);

  // Per socket, the fact phase starts with its earliest instance. The build
  // interval closes exactly there — half-open intervals, so this query's
  // fact-stage blocks never overlap (and never get charged for) its own
  // closed build interval. A socket with builds but no fact workers closes at
  // its own replicas' readiness.
  std::map<int, sim::VTime> socket_start;
  for (size_t i = 0; i < n_fact; ++i) {
    const plan::Stage& stage = analysis_.fact_stages[i];
    if (starts[i].empty()) starts[i].assign(stage.instances.size(), fact_start);
    for (size_t k = 0; k < stage.instances.size(); ++k) {
      if (!stage.instances[k].is_cpu()) continue;
      auto [it, fresh] =
          socket_start.emplace(stage.instances[k].index, starts[i][k]);
      if (!fresh) it->second = std::min(it->second, starts[i][k]);
    }
  }
  const SocketTime phase_boundary = [&](int socket) {
    auto it = socket_start.find(socket);
    return it != socket_start.end() ? it->second
                                    : unit_ready(sim::DeviceId::Cpu(socket));
  };
  build_dram.Close(phase_boundary);

  // -------------------------------------------------------------- fact stages
  std::vector<CompiledPipeline> pipelines = CompileFactPipelines(compiler);

  // Instantiation runs consumer→producer: each group needs its downstream edge,
  // each edge needs its consumer group's instances.
  SocketWorkers fact_workers;
  for (const plan::Stage& stage : analysis_.fact_stages) {
    CountWorkers(stage, /*concurrent=*/true, &fact_workers);
  }
  DramPhaseGuard dram(&system_->topology(), session, fact_workers,
                      phase_boundary);
  std::vector<RuntimeStage> stages;
  Edge* downstream = nullptr;
  for (size_t i = 0; i < n_fact; ++i) {
    const plan::Stage& stage = analysis_.fact_stages[i];
    RuntimeStage rt;
    rt.cfg = make_config(stage);
    rt.cfg->pipeline = std::move(pipelines[i]);
    rt.cfg->out = downstream;
    if (stage.span().role == plan::StageRole::kFilterStage &&
        downstream != nullptr) {
      rt.cfg->n_buckets = downstream->num_consumers();
    }
    rt.group = std::make_unique<WorkerGroup>(
        system_, stage.instances, FactoryFor(rt.cfg.get()), downstream,
        channel_capacity, std::move(starts[i]), session.epoch,
        session.query_id, control);
    rt.edge = make_edge(stage, *rt.group);
    downstream = rt.edge.get();
    if (stage.in.segmenter != -1) {
      Status st = make_source(stage, *rt.cfg, rt.edge.get(), fact_start,
                              &rt.source);
      if (!st.ok()) return st;
    }
    stages.push_back(std::move(rt));
  }

  for (auto& rt : stages) rt.group->Start();
  for (auto& rt : stages) {
    if (rt.source != nullptr) rt.source->Start();
  }
  for (auto& rt : stages) {
    if (rt.source != nullptr) rt.source->Join();
  }
  for (auto it = stages.rbegin(); it != stages.rend(); ++it) it->group->Join();
  for (auto& rt : stages) {
    Status st = group_error(*rt.group);
    if (!st.ok()) {
      for (auto& rt2 : stages) result->stats.Add(rt2.group->total_stats());
      return st;
    }
  }

  result->rows = sink.TakeRows();
  result->modeled_seconds =
      sim::MaxT(sink.done_at(), stages.front().group->max_end());
  dram.Close([&](int) { return result->modeled_seconds; });
  for (auto& rt : stages) result->stats.Add(rt.group->total_stats());
  return Status::OK();
}

}  // namespace hetex::core
