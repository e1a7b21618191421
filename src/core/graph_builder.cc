#include "core/graph_builder.h"

#include <algorithm>
#include <deque>
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
  // every block once, on the instance given the fewest rows so far.
  options.unit_broadcast = stage.span().role == plan::StageRole::kBuild &&
                           options.policy == plan::RouterPolicy::kBroadcast;
  return options;
}

std::string GraphBuilder::Describe() const {
  const plan::PlanAnalysis& a = analysis_;
  size_t instances = a.probe.instances.size() + a.gather.instances.size();
  for (const auto* stages : {&a.build_filter_stages, &a.build_stages}) {
    for (const plan::Stage& s : *stages) instances += s.instances.size();
  }
  std::ostringstream os;
  os << "lowered graph: " << a.build_stages.size() << " build stage(s), "
     << "2 fact stage(s), " << instances << " instance(s)\n";
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
       << (options.unit_broadcast ? "(per-unit fewest-rows)" : "")
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
  print_stage(a.gather, "fact stage:");
  print_stage(a.probe, "fact stage:");
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

/// The packed output a stage collected (a build-side filter's survivors, a
/// probe stage's partial groups), held for one thread to replay into the next
/// stage's edge in (ready time, producer instance, sequence) order: which
/// consumer takes which message, and the order in which links are reserved,
/// then depend only on data and plan. Whatever is still held when the run
/// returns early goes back to its arena.
class Replay {
 public:
  explicit Replay(System* system) : system_(system) {}
  ~Replay() {
    for (Held& h : held_) ReleaseMsgBlocks(system_, h.msg, h.node);
  }
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  /// Takes a joined group's collection ((*collected)[k]: instance k's
  /// messages in emission order) and notes the producers' latest end.
  void Collect(WorkerGroup& group, std::vector<std::vector<DataMsg>>* collected) {
    for (int k = 0; k < group.size(); ++k) {
      const WorkerInstance& inst = group.instance(k);
      closed_at_ = sim::MaxT(closed_at_, inst.clock());
      for (DataMsg& msg : (*collected)[k]) held_.push_back({std::move(msg), inst.node()});
      (*collected)[k].clear();
    }
    // Instance-major collection keeps (instance, sequence) order among equal
    // ready times.
    std::stable_sort(held_.begin(), held_.end(), [](const Held& a, const Held& b) {
      return a.msg.ready_at < b.msg.ready_at;
    });
  }

  uint64_t rows() const {
    uint64_t n = 0;
    for (const Held& h : held_) n += h.msg.rows;
    return n;
  }

  /// Pushes every held message into `edge` as its one producer, whose stream
  /// ends at the collected producers' latest end.
  void Into(Edge* edge) {
    edge->AddProducer();
    for (Held& h : held_) edge->Push(std::move(h.msg), h.node);
    held_.clear();
    edge->CloseProducer(closed_at_);
  }

 private:
  struct Held {
    DataMsg msg;
    sim::MemNodeId node;
  };
  System* system_;
  std::vector<Held> held_;
  sim::VTime closed_at_ = 0;
};

}  // namespace

GraphBuilder::BuildPipelines GraphBuilder::CompileBuildPipelines(
    const plan::Stage& stage, plan::QueryCompiler* compiler) const {
  BuildPipelines out;
  if (stage.filter_stage >= 0) {
    out.filter = compiler->CompileSpan(
        analysis_.build_filter_stages[stage.filter_stage].span(), nullptr);
  }
  out.build = compiler->CompileSpan(
      stage.span(), stage.filter_stage >= 0 ? &out.filter.output_cols : nullptr);
  return out;
}

Status GraphBuilder::Run(plan::QueryCompiler* compiler, QueryResult* result) {
  const plan::HetPlan& plan = *plan_;
  const plan::Stage& probe = analysis_.probe;
  const plan::Stage& merge = analysis_.gather;
  if (probe.branches.empty()) {
    return Status::Internal("lowered graph has no probe stage (Analyze not run?)");
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
  // Stages start once the query woke its parked workers (the routers'
  // stamp), and not before the System's worker-pool bring-up ends.
  const sim::VTime init_clock =
      system_->PoolWait(session.epoch) + analysis_.init_latency;
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
    os << ";" << plan::JoinHtLayout(j, system_->catalog()).ToString();
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
                                    acq.table, acq.epoch, session.epoch);
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
        // its readiness is translated from the builder's local time into this
        // session's (a late arrival's negative time clamps to init_clock
        // below: the artifact already exists, so it pays nothing).
        for (const auto& [unit, ready] : acq.lease.ready_at) {
          const sim::VTime local =
              (acq.lease.builder_epoch - session.epoch) + ready;
          note_ready(unit, local);
          result->builds.push_back({stage.span().join_id, unit, 0, local});
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
  // survivors are held for replay.
  auto run_build_filter = [&](const plan::Stage& stage,
                              plan::CompiledPipeline pipeline,
                              Replay* survivors) -> Status {
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
        system_, stage.instances, FactoryFor(rt.cfg.get()),
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
      filter_end[stage.cores[k]] = rt.group->instance(k).clock();
    }
    survivors->Collect(*rt.group, &collected);
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
  // the sockets' own builds.
  std::deque<Replay> survivors;
  std::vector<BuildPipelines> build_pipelines(exec_builds.size());
  for (size_t b = 0; b < exec_builds.size(); ++b) {
    survivors.emplace_back(system_);
    build_pipelines[b] = CompileBuildPipelines(*exec_builds[b], compiler);
    if (exec_builds[b]->filter_stage < 0) continue;
    HETEX_RETURN_NOT_OK(run_build_filter(
        analysis_.build_filter_stages[exec_builds[b]->filter_stage],
        std::move(build_pipelines[b].filter), &survivors[b]));
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
        Result<jit::JoinHashTable*> ht = hts.Create(
            session.query_id, join, dev,
            &system_->memory().manager(system_->topology().LocalMemNode(dev)),
            plan::JoinHtLayout(compiler->spec().joins[join], system_->catalog()));
        if (!ht.ok()) return ht.status();
        it->second.ht = ht.value();
      }
      ++it->second.writers;
      auto filtered = filter_end.find(stage.cores[k]);
      starts.push_back(filtered != filter_end.end()
                           ? sim::MaxT(free_at(dev), filtered->second)
                           : free_at(dev));
    }
    rt.group = std::make_unique<WorkerGroup>(
        system_, stage.instances, FactoryFor(rt.cfg.get()),
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
      survivors[b].Into(rt.edge.get());
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
      ready_at[unit] = d.done;
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
  // to the instances already running. The segmenter's clock starts at the
  // earliest probe unit's start; the merge starts per core, once the probes
  // ended.
  auto unit_ready = [&](sim::DeviceId dev) {
    auto it = replica_ready.find(dev);
    return sim::MaxT(init_clock,
                     it != replica_ready.end() ? it->second : 0.0);
  };
  std::vector<sim::VTime> probe_starts;
  std::map<sim::DeviceId, QueryResult::UnitReady> probe_units;
  for (const auto& dev : probe.instances) {
    probe_starts.push_back(unit_ready(dev));
    probe_units[dev] = {dev, probe_starts.back()};
  }
  const sim::VTime fact_start =
      std::min_element(probe_units.begin(), probe_units.end(),
                       [](const auto& a, const auto& b) {
                         return a.second.start < b.second.start;
                       })->second.start;
  for (const auto& [unit, ready] : probe_units) result->unit_ready.push_back(ready);

  // Per socket, the fact phase starts with its earliest instance, and with
  // the fact phase on the merge's socket. The build interval closes exactly
  // there — half-open intervals, so this query's fact-stage blocks never
  // overlap (and never get charged for) its own closed build interval. A
  // socket with builds but no fact workers closes at its own replicas'
  // readiness.
  std::map<int, sim::VTime> socket_start;
  auto note_start = [&](sim::DeviceId dev, sim::VTime t) {
    if (!dev.is_cpu()) return;
    auto [it, fresh] = socket_start.emplace(dev.index, t);
    if (!fresh) it->second = std::min(it->second, t);
  };
  for (size_t k = 0; k < probe.instances.size(); ++k) {
    note_start(probe.instances[k], probe_starts[k]);
  }
  for (const auto& dev : merge.instances) note_start(dev, fact_start);
  const SocketTime phase_boundary = [&](int socket) {
    auto it = socket_start.find(socket);
    return it != socket_start.end() ? it->second
                                    : unit_ready(sim::DeviceId::Cpu(socket));
  };
  build_dram.Close(phase_boundary);

  // ------------------------------------------------------------- probe stage
  std::map<plan::Core, int> probe_on;  // core -> its probe instance
  for (size_t k = 0; k < probe.cores.size(); ++k) {
    probe_on[probe.cores[k]] = static_cast<int>(k);
  }

  // A merge instance runs on its core after the core's probe instance, so
  // only a merge core that no probe instance occupies adds a worker.
  SocketWorkers fact_workers;
  CountWorkers(probe, /*concurrent=*/true, &fact_workers);
  for (size_t k = 0; k < merge.cores.size(); ++k) {
    if (merge.instances[k].is_cpu() && probe_on.count(merge.cores[k]) == 0) {
      fact_workers[merge.instances[k].index] += 1;
    }
  }
  DramPhaseGuard dram(&system_->topology(), session, fact_workers,
                      phase_boundary);

  // The probe stage collects its partial groups, split into one hash
  // partition per merge instance, for the merge's replay.
  std::vector<std::vector<DataMsg>> collected(probe.instances.size());
  Replay partials(system_);
  RuntimeStage probe_rt;
  probe_rt.cfg = make_config(probe);
  probe_rt.cfg->pipeline = compiler->CompileProbe();
  probe_rt.cfg->collect = &collected;
  probe_rt.cfg->merge_partitions = static_cast<int>(merge.instances.size());
  probe_rt.group = std::make_unique<WorkerGroup>(
      system_, probe.instances, FactoryFor(probe_rt.cfg.get()),
      channel_capacity, probe_starts, session.epoch, session.query_id, control);
  probe_rt.edge = make_edge(probe, *probe_rt.group);
  HETEX_RETURN_NOT_OK(make_source(probe, *probe_rt.cfg, probe_rt.edge.get(),
                                  fact_start, &probe_rt.source));
  WorkerGroup& probe_group = *probe_rt.group;
  probe_group.Start();
  probe_rt.source->Start();
  probe_rt.source->Join();
  probe_group.Join();
  partials.Collect(probe_group, &collected);
  result->stats.Add(probe_group.total_stats());
  HETEX_RETURN_NOT_OK(group_error(probe_group));
  for (int k = 0; k < probe_group.size(); ++k) {
    const sim::VTime end = probe_group.instance(k).clock();
    result->probes.push_back(
        {probe.cores[k].unit, probe.cores[k].ordinal, probe_starts[k], end});
    result->probe_end = sim::MaxT(result->probe_end, end);
  }

  // The merge: instance k starts on its core when the core's probe instance
  // ended (one stage per core at a time, plan::Core), or with the fact phase
  // on a core without one, and takes its partition of the partials in
  // replay order. The stream ends at the latest probe end, so the merge
  // never ends before its last producer, even one with no partials.
  RuntimeStage rt;
  rt.cfg = make_config(merge);
  rt.cfg->pipeline = compiler->CompileGather();
  std::vector<sim::VTime> merge_starts;
  for (const plan::Core& core : merge.cores) {
    auto it = probe_on.find(core);
    merge_starts.push_back(it != probe_on.end()
                               ? probe_group.instance(it->second).clock()
                               : fact_start);
  }
  rt.group = std::make_unique<WorkerGroup>(
      system_, merge.instances, FactoryFor(rt.cfg.get()),
      channel_capacity, merge_starts, session.epoch, session.query_id, control);
  rt.edge = make_edge(merge, *rt.group);
  result->partial_rows = partials.rows();
  rt.group->Start();
  partials.Into(rt.edge.get());
  rt.group->Join();
  result->stats.Add(rt.group->total_stats());
  HETEX_RETURN_NOT_OK(group_error(*rt.group));

  result->rows = sink.TakeRows();
  std::sort(result->rows.begin(), result->rows.end());
  for (int k = 0; k < rt.group->size(); ++k) {
    result->merges.push_back({merge.cores[k].unit, merge.cores[k].ordinal,
                              merge_starts[k], rt.group->instance(k).clock(),
                              sink.emitted(k)});
  }
  result->modeled_seconds = sim::MaxT(sink.done_at(), rt.group->max_end());
  dram.Close([&](int) { return result->modeled_seconds; });
  return Status::OK();
}

}  // namespace hetex::core
