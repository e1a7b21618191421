#include "core/graph_builder.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "core/processor.h"

namespace hetex::core {

namespace {

using Kind = plan::HetOpNode::Kind;

/// Operators executed inside a worker pipeline (spans).
bool IsSpanKind(Kind k) {
  return k == Kind::kUnpack || k == Kind::kPack || k == Kind::kHashPack ||
         k == Kind::kFilter || k == Kind::kProject || k == Kind::kJoinBuild ||
         k == Kind::kJoinProbe || k == Kind::kReduceLocal ||
         k == Kind::kGroupByLocal || k == Kind::kGather;
}

/// Operators lowered onto edges (and the segmenter, lowered to a SourceDriver).
bool IsTransportKind(Kind k) {
  return k == Kind::kRouter || k == Kind::kMemMove || k == Kind::kCpu2Gpu ||
         k == Kind::kGpu2Cpu || k == Kind::kSegmenter;
}

/// Exchange decoration: converters that ride on an edge rather than in a span.
bool IsDecorationKind(Kind k) {
  return k == Kind::kMemMove || k == Kind::kCpu2Gpu || k == Kind::kGpu2Cpu;
}

/// A pack marks the producer side of an exchange: walking consumer→producer,
/// reaching one starts a new span even when no transport operator separates
/// them (bare plans route partials straight from pack to gather).
bool IsProducerTop(Kind k) { return k == Kind::kPack || k == Kind::kHashPack; }

Edge::Policy LowerPolicy(plan::RouterPolicy policy) {
  switch (policy) {
    case plan::RouterPolicy::kRoundRobin: return Edge::Policy::kRoundRobin;
    case plan::RouterPolicy::kLoadBalance: return Edge::Policy::kLoadBalance;
    case plan::RouterPolicy::kHash: return Edge::Policy::kHash;
    case plan::RouterPolicy::kBroadcast: return Edge::Policy::kBroadcast;
    // A union funnels every producer into the single downstream instance set;
    // with one consumer per message the rotation is immaterial.
    case plan::RouterPolicy::kUnion: return Edge::Policy::kRoundRobin;
  }
  return Edge::Policy::kRoundRobin;
}

const char* PolicyName(Edge::Policy policy) {
  switch (policy) {
    case Edge::Policy::kRoundRobin: return "round-robin";
    case Edge::Policy::kLoadBalance: return "load-balance";
    case Edge::Policy::kHash: return "hash";
    case Edge::Policy::kBroadcast: return "broadcast";
  }
  return "?";
}

ProcessorFactory FactoryFor(const StageConfig* cfg) {
  return [cfg](WorkerInstance&) { return MakeVmProcessor(cfg); };
}

}  // namespace

int LoweredSpec::TotalInstances() const {
  int total = 0;
  for (const auto& s : build_stages) total += static_cast<int>(s.instances.size());
  for (const auto& s : fact_stages) total += static_cast<int>(s.instances.size());
  return total;
}

int LoweredSpec::TotalEdges() const {
  return static_cast<int>(build_stages.size() + fact_stages.size());
}

std::string LoweredSpec::ToString() const {
  std::ostringstream os;
  os << "lowered graph: " << build_stages.size() << " build stage(s), "
     << fact_stages.size() << " fact stage(s), " << TotalInstances()
     << " instance(s)\n";
  auto print_stage = [&os](const StageSpec& stage, const char* label) {
    os << label << " " << PipelineSpan::RoleName(stage.span.role);
    if (stage.span.role == PipelineSpan::Role::kBuild) {
      os << " ht[" << stage.span.join_id << "]";
    }
    os << " x" << stage.instances.size() << " [";
    for (size_t i = 0; i < stage.instances.size(); ++i) {
      os << (i ? " " : "") << stage.instances[i].ToString();
    }
    os << "]\n";
    os << "  edge: policy=" << PolicyName(stage.in.options.policy)
       << (stage.in.options.unit_broadcast ? "(per-unit rotation)" : "")
       << (stage.in.options.mem_move ? " mem-move" : " no-mem-move")
       << (stage.in.uva ? " uva" : "");
    if (stage.in.options.crossing_latency > 0) {
      os << " crossing=" << stage.in.options.crossing_latency;
    }
    os << " control=" << stage.in.options.control_cost << "\n";
  };
  for (const auto& stage : build_stages) print_stage(stage, "build stage:");
  for (const auto& stage : fact_stages) print_stage(stage, "fact stage:");
  return os.str();
}

Status GraphBuilder::Analyze() {
  spec_ = LoweredSpec{};
  const plan::HetPlan& plan = *plan_;
  if (plan.root < 0 || plan.root >= static_cast<int>(plan.nodes.size())) {
    return Status::InvalidArgument("plan has no root node");
  }
  spec_.channel_capacity = plan.channel_capacity;
  for (const auto& n : plan.nodes) {
    if (n.kind == Kind::kRouter) {
      spec_.init_latency = sim::MaxT(spec_.init_latency, n.init_latency);
    }
  }

  std::vector<int> build_tops;  // kJoinBuild span tops, discovery order
  std::unordered_set<int> seen_build_tops;

  // Walks consumer→producer from `top` collecting one pipeline span; stops at
  // the first transport operator or producer-side pack, which becomes `feed`.
  auto collect_span = [&](int top, std::vector<int>* nodes, int* feed) -> Status {
    int cur = top;
    while (true) {
      const plan::HetOpNode& n = plan.node(cur);
      if (!IsSpanKind(n.kind)) {
        return Status::Internal(std::string("pipeline span contains operator ") +
                                plan::HetOpNode::KindName(n.kind));
      }
      nodes->push_back(cur);
      if (nodes->size() > plan.nodes.size()) {
        return Status::Internal("pipeline span does not terminate (plan cycle)");
      }
      if (n.kind == Kind::kJoinProbe) {
        // Build-side children are separate pipeline networks.
        for (size_t c = 1; c < n.children.size(); ++c) {
          if (seen_build_tops.insert(n.children[c]).second) {
            build_tops.push_back(n.children[c]);
          }
        }
      }
      if (n.children.empty()) {
        return Status::Internal("pipeline span reaches a leaf without a source");
      }
      const int child = n.children[0];
      const Kind ck = plan.node(child).kind;
      if (IsTransportKind(ck) || IsProducerTop(ck)) {
        *feed = child;
        return Status::OK();
      }
      cur = child;
    }
  };

  // Walks one decoration chain (mem-move / device crossings) to its exchange
  // terminal (router, segmenter or producer pack), harvesting the UVA marker
  // and crossing latency into `e` when given. Returns -1 on a dangling chain
  // or cycle. The single walker keeps the consumer-side, producer-side and
  // grouping passes from diverging on what decoration means.
  auto walk_decoration = [&](int from, EdgeSpec* e) -> int {
    int cur = from;
    size_t steps = 0;
    while (IsDecorationKind(plan.node(cur).kind)) {
      const plan::HetOpNode& n = plan.node(cur);
      if (e != nullptr) {
        if (n.kind == Kind::kCpu2Gpu) {
          if (plan::IsUvaCrossing(n)) e->uva = true;
        } else if (n.kind == Kind::kGpu2Cpu) {
          e->options.crossing_latency =
              std::max(e->options.crossing_latency, n.crossing_latency);
        }  // kMemMove: locality is restored on every non-UVA edge regardless
      }
      if (n.children.empty() || ++steps > plan.nodes.size()) return -1;
      cur = n.children[0];
    }
    return cur;
  };
  auto terminal_of = [&](int feed) -> int { return walk_decoration(feed, nullptr); };

  // Lowers the exchange below a stage's branch spans (`feeds`: one entry per
  // branch) into an EdgeSpec: consumer-side decoration → shared router →
  // producer-side decoration → producer span tops / source segmenter.
  auto parse_feed = [&](const std::vector<int>& feeds, EdgeSpec* e) -> Status {
    for (int feed : feeds) {
      const int cur = walk_decoration(feed, e);
      if (cur < 0) {
        return Status::Internal("dangling or cyclic exchange decoration");
      }
      const plan::HetOpNode& n = plan.node(cur);
      if (n.kind == Kind::kRouter) {
        if (e->router != -1 && e->router != cur) {
          return Status::Internal("stage branches fed by different routers");
        }
        e->router = cur;
      } else if (n.kind == Kind::kSegmenter) {
        // Bare plan: the source feeds the span directly.
        if (e->segmenter != -1 && e->segmenter != cur) {
          return Status::Internal("exchange fed by multiple segmenters");
        }
        e->segmenter = cur;
      } else if (IsProducerTop(n.kind)) {
        e->producer_tops.push_back(cur);
      } else {
        return Status::Internal(std::string("span fed by non-exchange operator ") +
                                plan::HetOpNode::KindName(n.kind));
      }
    }

    if (e->router != -1) {
      const plan::HetOpNode& r = plan.node(e->router);
      e->options.policy = LowerPolicy(r.policy);
      e->options.control_cost = r.control_cost;
      for (int child : r.children) {
        const int cur = walk_decoration(child, e);
        if (cur < 0) {
          return Status::Internal("dangling or cyclic exchange decoration");
        }
        const plan::HetOpNode& n = plan.node(cur);
        if (n.kind == Kind::kSegmenter) {
          if (e->segmenter != -1 && e->segmenter != cur) {
            return Status::Internal("exchange fed by multiple segmenters");
          }
          e->segmenter = cur;
        } else if (IsSpanKind(n.kind)) {
          e->producer_tops.push_back(cur);
        } else {
          return Status::Internal(
              std::string("router fed by non-pipeline operator ") +
              plan::HetOpNode::KindName(n.kind));
        }
      }
    } else {
      e->options.policy = Edge::Policy::kRoundRobin;
      e->options.control_cost = 0;
    }
    if (e->segmenter != -1 && !e->producer_tops.empty()) {
      return Status::Internal("exchange mixes a segmenter with pipeline producers");
    }
    // Relational operators are data-location agnostic: every exchange fixes
    // locality on the consumer side unless the plan opted into UVA addressing.
    e->options.mem_move = !e->uva;
    return Status::OK();
  };

  // Hand-mutated plans can stamp placements the server does not have; surface
  // them as a Status instead of letting provider construction abort.
  const sim::Topology& topo = system_->topology();
  auto check_instances = [&](const std::vector<sim::DeviceId>& instances) -> Status {
    for (const auto& dev : instances) {
      const int limit = dev.is_cpu() ? topo.num_sockets() : topo.num_gpus();
      if (dev.index < 0 || dev.index >= limit) {
        return Status::InvalidArgument(
            "placement names device " + dev.ToString() + " but the server has " +
            std::to_string(limit) + " " + (dev.is_cpu() ? "socket(s)" : "GPU(s)"));
      }
    }
    return Status::OK();
  };

  auto make_stage = [&](std::vector<std::vector<int>> branch_nodes, EdgeSpec in,
                        StageSpec* out) -> Status {
    for (size_t i = 0; i < branch_nodes.size(); ++i) {
      PipelineSpan span = ClassifySpan(plan, branch_nodes[i]);
      if (span.instances.empty()) {
        return Status::Internal("pipeline span without a placement stamp");
      }
      HETEX_RETURN_NOT_OK(check_instances(span.instances));
      if (i > 0 && (span.role != out->span.role ||
                    span.join_id != out->span.join_id ||
                    span.n_buckets != out->span.n_buckets)) {
        // Merged branches compile from branch 0's span; inconsistent stamps
        // would be silently ignored, so reject them instead.
        return Status::Internal("exchange feeds inconsistently stamped spans");
      }
      out->instances.insert(out->instances.end(), span.instances.begin(),
                            span.instances.end());
      if (i == 0) out->span = std::move(span);
    }
    out->branch_nodes = std::move(branch_nodes);
    out->in = std::move(in);
    return Status::OK();
  };

  // --- Fact-side chain: from the result node down to the fact segmenter.
  const plan::HetOpNode& root = plan.node(plan.root);
  if (root.kind != Kind::kResult || root.children.size() != 1) {
    return Status::InvalidArgument("plan root must be a single-input result node");
  }
  std::vector<int> tops = {root.children[0]};
  while (true) {
    // A cycle through an exchange re-discovers the same producer tops forever;
    // a legal chain cannot have more stages than the plan has nodes.
    if (spec_.fact_stages.size() > plan.nodes.size()) {
      return Status::Internal("fact chain does not terminate (plan cycle)");
    }
    std::vector<std::vector<int>> branch_nodes;
    std::vector<int> feeds;
    for (int top : tops) {
      std::vector<int> nodes;
      int feed = -1;
      Status st = collect_span(top, &nodes, &feed);
      if (!st.ok()) return st;
      branch_nodes.push_back(std::move(nodes));
      feeds.push_back(feed);
    }
    EdgeSpec in;
    Status st = parse_feed(feeds, &in);
    if (!st.ok()) return st;
    StageSpec stage;
    st = make_stage(std::move(branch_nodes), std::move(in), &stage);
    if (!st.ok()) return st;

    const bool at_source = stage.in.segmenter != -1;
    std::vector<int> next = stage.in.producer_tops;
    spec_.fact_stages.push_back(std::move(stage));
    if (at_source) break;
    if (next.empty()) return Status::Internal("exchange with no producers");
    tops = std::move(next);
  }
  if (spec_.fact_stages.front().span.role != PipelineSpan::Role::kGather) {
    return Status::Internal("fact chain must terminate in a gather stage");
  }

  // --- Build networks: group the kJoinBuild spans by their feeding exchange
  // (all per-unit replicas of one join share its broadcast router).
  struct BuildGroup {
    std::vector<std::vector<int>> branch_nodes;
    std::vector<int> feeds;
  };
  std::vector<int> group_keys;
  std::unordered_map<int, BuildGroup> by_key;
  for (int top : build_tops) {
    std::vector<int> nodes;
    int feed = -1;
    Status st = collect_span(top, &nodes, &feed);
    if (!st.ok()) return st;
    const int key = terminal_of(feed);
    if (key < 0) return Status::Internal("build span with a dangling feed");
    if (by_key.find(key) == by_key.end()) group_keys.push_back(key);
    BuildGroup& g = by_key[key];
    g.branch_nodes.push_back(std::move(nodes));
    g.feeds.push_back(feed);
  }
  for (int key : group_keys) {
    BuildGroup& g = by_key[key];
    EdgeSpec in;
    Status st = parse_feed(g.feeds, &in);
    if (!st.ok()) return st;
    StageSpec stage;
    st = make_stage(std::move(g.branch_nodes), std::move(in), &stage);
    if (!st.ok()) return st;
    if (stage.span.role != PipelineSpan::Role::kBuild) {
      return Status::Internal("join-probe child span is not a build pipeline");
    }
    if (stage.in.segmenter == -1) {
      return Status::Internal("build stage without a source segmenter");
    }
    // A unit's instances fill one replica together: each unit receives every
    // block once, rotated over its instances.
    stage.in.options.unit_broadcast =
        stage.in.options.policy == Edge::Policy::kBroadcast;
    spec_.build_stages.push_back(std::move(stage));
  }

  // Broadcast hash joins replicate one table per device unit, built by one
  // build chain (branch): a mutated placement that leaves a probe unit
  // without its replica — or builds two replicas on one unit — must surface
  // as a Status here, not abort inside the HtRegistry.
  std::unordered_map<int, std::unordered_set<int>> build_units;
  for (const StageSpec& stage : spec_.build_stages) {
    auto& units = build_units[stage.span.join_id];
    for (const auto& branch : stage.branch_nodes) {
      std::unordered_set<int> mine;
      for (const auto& dev : ClassifySpan(plan, branch).instances) {
        if (mine.insert(HtRegistry::UnitOf(dev)).second &&
            !units.insert(HtRegistry::UnitOf(dev)).second) {
          return Status::InvalidArgument(
              "join " + std::to_string(stage.span.join_id) +
              " builds two hash-table replicas on unit " + dev.ToString());
        }
      }
    }
  }
  for (const StageSpec& stage : spec_.fact_stages) {
    std::unordered_set<int> joins;
    for (const auto& branch : stage.branch_nodes) {
      for (int id : branch) {
        if (plan.node(id).kind == Kind::kJoinProbe) {
          joins.insert(plan.node(id).join_id);
        }
      }
    }
    for (int j : joins) {
      for (const auto& dev : stage.instances) {
        if (build_units[j].count(HtRegistry::UnitOf(dev)) == 0) {
          return Status::InvalidArgument(
              "probe instance on " + dev.ToString() + " has no join-" +
              std::to_string(j) +
              " hash-table replica (build placement does not cover its unit)");
        }
      }
    }
  }

  // A UVA edge skips the mem-move for every consumer of the exchange, so its
  // blocks must stay host-addressable: GPU-placed producers would emit
  // device-resident blocks no other unit can address in place. Reject the
  // combination here (hand-mutated uva flags reach this path) instead of
  // aborting inside the router.
  for (size_t i = 0; i + 1 < spec_.fact_stages.size(); ++i) {
    const StageSpec& stage = spec_.fact_stages[i];
    if (!stage.in.uva || stage.in.producer_tops.empty()) continue;
    const StageSpec& producer = spec_.fact_stages[i + 1];
    for (const auto& dev : producer.instances) {
      if (dev.is_gpu()) {
        return Status::InvalidArgument(
            "UVA exchange fed by GPU-placed producer " + dev.ToString() +
            ": device-resident blocks cannot be addressed in place");
      }
    }
  }
  return Status::OK();
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
void CountWorkers(const StageSpec& stage, bool concurrent, SocketWorkers* out) {
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

Status GraphBuilder::CompileFactPipelines(
    QueryCompiler* compiler, std::vector<CompiledPipeline>* out) const {
  // Pipelines compile producer→consumer so a stage can read its producer's emit
  // schema (stage B of split plans reads stage A's surviving columns).
  const int n_fact = static_cast<int>(spec_.fact_stages.size());
  out->assign(n_fact, {});
  for (int i = n_fact - 1; i >= 0; --i) {
    const PipelineSpan::Role role = spec_.fact_stages[i].span.role;
    const PipelineSpan::Role* producer =
        i + 1 < n_fact ? &spec_.fact_stages[i + 1].span.role : nullptr;
    const std::vector<ColSlot>* upstream = nullptr;
    switch (role) {
      case PipelineSpan::Role::kProbe:
        if (producer != nullptr) {
          if (*producer != PipelineSpan::Role::kFilterStage) {
            return Status::Unsupported(
                "probe stage fed by a packed producer whose wire schema the "
                "compiler cannot thread (only filter-stage producers supported)");
          }
          upstream = &(*out)[i + 1].output_cols;
        }
        break;
      case PipelineSpan::Role::kFilterStage:
        if (producer != nullptr) {
          return Status::Unsupported(
              "filter stage must read its source table directly");
        }
        break;
      case PipelineSpan::Role::kGather:
        if (producer != nullptr && *producer != PipelineSpan::Role::kProbe) {
          return Status::Unsupported(
              "gather stage must consume probe partials");
        }
        break;
      case PipelineSpan::Role::kBuild:
        return Status::Internal("build span on the fact chain");
    }
    (*out)[i] = compiler->CompileSpan(spec_.fact_stages[i].span, upstream);
  }
  return Status::OK();
}

Status GraphBuilder::Run(QueryCompiler* compiler, QueryResult* result) {
  const plan::HetPlan& plan = *plan_;
  if (spec_.fact_stages.empty()) {
    return Status::Internal("lowered graph has no fact stages (Analyze not run?)");
  }

  // The session anchors this query on the shared virtual timeline: its epoch
  // offsets every reservation on contended resources (PCIe links, GPU
  // streams), its id namespaces the hash tables in the System-shared registry.
  const QuerySession session =
      session_ != nullptr
          ? *session_
          : QuerySession{system_->NextQueryId(), system_->VirtualHorizon()};
  HtRegistry& hts = system_->hts();
  // The namespace only lives for the run; release it on every exit path.
  struct HtNamespaceGuard {
    HtRegistry* hts;
    uint64_t query;
    ~HtNamespaceGuard() { hts->DropQuery(query); }
  } ht_guard{&hts, session.query_id};

  ResultSink sink;
  const sim::VTime init_clock = spec_.init_latency;
  const uint64_t block_bytes = system_->blocks().options().block_bytes;
  const size_t channel_capacity = static_cast<size_t>(spec_.channel_capacity);

  auto session_edge_options = [&](const StageSpec& stage) {
    Edge::Options options = stage.in.options;
    options.epoch = session.epoch;
    options.control = session.control;
    return options;
  };

  auto make_config = [&](const StageSpec& stage) {
    auto cfg = std::make_unique<StageConfig>();
    switch (stage.span.role) {
      case PipelineSpan::Role::kBuild:
        cfg->role = StageConfig::Role::kBuild;
        break;
      case PipelineSpan::Role::kFilterStage:
        cfg->role = StageConfig::Role::kFilterStage;
        break;
      case PipelineSpan::Role::kProbe:
        cfg->role = StageConfig::Role::kProbe;
        break;
      case PipelineSpan::Role::kGather:
        cfg->role = StageConfig::Role::kGather;
        cfg->result = &sink;
        break;
    }
    cfg->query_id = session.query_id;
    cfg->hts = &hts;
    cfg->programs = &system_->program_cache();
    cfg->block_bytes = block_bytes;
    cfg->allow_uva = stage.in.uva;
    return cfg;
  };

  // Lifts the first per-instance runtime error (e.g. division by zero) out of
  // a joined worker group.
  auto group_error = [](WorkerGroup& group) {
    for (int i = 0; i < group.size(); ++i) {
      if (!group.instance(i).error().ok()) return group.instance(i).error();
    }
    return Status::OK();
  };

  auto make_source = [&](const StageSpec& stage, const StageConfig& cfg,
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
    uint64_t block_rows = seg.block_rows > 0 ? seg.block_rows : 128 * 1024;
    // GPU-touching stages bound the granularity: a scan block must fit one
    // staging arena block when the mem-move copies it to device memory, and one
    // GPU emit bucket (block_bytes / 8-byte slots) when the stage packs output.
    // GPU-*resident* chunks bound it the same way whatever the instances are —
    // a scan block of device memory crosses to any non-local consumer through
    // a staging block too (peer or host-staged). Plans stamped coarser are
    // clamped here — never crashed at transfer time.
    const bool has_gpu_instance =
        std::any_of(stage.instances.begin(), stage.instances.end(),
                    [](sim::DeviceId dev) { return dev.is_gpu(); });
    const bool has_gpu_chunk = std::any_of(
        table->chunks().begin(), table->chunks().end(),
        [&](const storage::Table::Chunk& c) {
          return system_->topology().mem_node(c.node).is_gpu;
        });
    if (has_gpu_instance || has_gpu_chunk) {
      block_rows = std::min(block_rows, std::max<uint64_t>(1, block_bytes / 8));
    }
    *out = std::make_unique<SourceDriver>(system_, table, std::move(indices),
                                          block_rows, edge, clock,
                                          seg.per_block_cost);
    (*out)->set_control(session.control);
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
    const StageSpec* stage = nullptr;
    SharedBuildLease lease;
    bool published = false;
  };
  std::vector<SharedAcq> acqs;
  std::vector<const StageSpec*> exec_builds;  // stages this query runs itself

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
  auto shared_build_key = [&](const StageSpec& stage, SharedAcq* acq) {
    const plan::JoinSpec& j = compiler->spec().joins[stage.span.join_id];
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
    os << ";cap=" << compiler->JoinHtCapacity(stage.span.join_id)
       << ";w=" << compiler->JoinPayloadWidth(stage.span.join_id);
    // Exact unit-set match: Analyze() proved the build placement covers every
    // probe unit, so a replica set built for the same units covers them too.
    std::vector<int> units;
    for (const auto& dev : stage.instances) units.push_back(HtRegistry::UnitOf(dev));
    std::sort(units.begin(), units.end());
    os << ";units=";
    for (size_t i = 0; i < units.size(); ++i) os << (i ? "," : "") << units[i];
    acq->key = os.str();
  };

  // Pass 1 (plan order): compute every shareable stage's content key; stages
  // that cannot share — knob off, or invalid join stamps from hand-mutated
  // plans, which must surface through the execution loop below exactly as
  // without sharing — map to no acquisition.
  std::vector<int> stage_acq;  // per build stage: index into acqs, or -1
  for (const StageSpec& stage : spec_.build_stages) {
    if (!share_builds || stage.span.join_id < 0 ||
        stage.span.join_id >= static_cast<int>(compiler->spec().joins.size())) {
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
      acq.lease = hts.AcquireShared(acq.key, session.query_id, session.control,
                                    acq.table, acq.epoch);
      if (acq.lease.role == SharedBuildLease::Role::kCancelled) {
        // Build roles already won are failed over by shared_guard on return.
        return session.control != nullptr &&
                       session.control->deadline_hit.load(
                           std::memory_order_relaxed)
                   ? Status::DeadlineExceeded(
                         "query deadline expired while waiting on a shared "
                         "hash-table build")
                   : Status::Cancelled("query cancelled");
      }
    }
  }

  // Pass 3 (plan order): attach won replicas and collect the stages this
  // query executes itself — in the exact order the non-shared path uses.
  for (size_t si = 0; si < spec_.build_stages.size(); ++si) {
    const StageSpec& stage = spec_.build_stages[si];
    if (stage_acq[si] < 0) {
      exec_builds.push_back(&stage);
      continue;
    }
    const SharedAcq& acq = acqs[stage_acq[si]];
    switch (acq.lease.role) {
      case SharedBuildLease::Role::kCancelled:
        break;  // unreachable: pass 2 returned
      case SharedBuildLease::Role::kAttach:
        hts.AttachShared(acq.key, session.query_id, stage.span.join_id);
        // The key pins the unit set, so every instance's unit has a replica;
        // its readiness is translated into this session's local time (a late
        // arrival's negative time clamps to init_clock below: the artifact
        // already exists, so it pays nothing).
        for (const auto& [unit, ready] : acq.lease.ready_at) {
          const sim::DeviceId dev = HtRegistry::DeviceOf(unit);
          hts.NoteBuildDone(session.query_id, dev, ready - session.epoch);
          result->builds.push_back(
              {stage.span.join_id, dev, 0, ready - session.epoch});
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
  // So the build phase's DRAM intervals reserve each socket's widest build,
  // not the sum over joins. They open at the modeled build start; each
  // socket's is closed (not discarded) at that socket's fact-phase start once
  // the unit watermarks are known, so [init_clock, socket start) stays on the
  // timeline for later sessions.
  SocketWorkers build_workers;
  for (const StageSpec* stage : exec_builds) {
    CountWorkers(*stage, /*concurrent=*/false, &build_workers);
  }
  DramPhaseGuard build_dram(&system_->topology(), session, build_workers,
                            [&](int) { return init_clock; });
  std::map<int, sim::VTime> unit_free;  // unit key -> end of its latest build
  for (const StageSpec* stage_ptr : exec_builds) {
    const StageSpec& stage = *stage_ptr;
    const int join = stage.span.join_id;
    // Hand-mutated plans reach here through ExecutePlan: a stamped join id
    // the query does not have must surface as a Status, not a crash.
    if (join < 0 || join >= static_cast<int>(compiler->spec().joins.size())) {
      return Status::InvalidArgument(
          "build span stamped with join id " + std::to_string(join) +
          " but the query has " +
          std::to_string(compiler->spec().joins.size()) + " join(s)");
    }
    RuntimeStage rt;
    rt.cfg = make_config(stage);
    rt.cfg->pipeline = compiler->CompileSpan(stage.span, nullptr);
    // One replica per unit, created before any of its writers runs.
    std::vector<sim::VTime> starts;
    for (const auto& dev : stage.instances) {
      const int unit = HtRegistry::UnitOf(dev);
      auto [it, fresh] = rt.cfg->build_replicas.try_emplace(unit);
      if (fresh) {
        it->second.ht = hts.Create(
            session.query_id, join, dev,
            &system_->memory().manager(system_->topology().LocalMemNode(dev)),
            compiler->JoinHtCapacity(join), compiler->JoinPayloadWidth(join));
      }
      ++it->second.writers;
      auto free = unit_free.find(unit);
      starts.push_back(free != unit_free.end() ? free->second : init_clock);
    }
    rt.group = std::make_unique<WorkerGroup>(
        system_, stage.instances, FactoryFor(rt.cfg.get()), nullptr,
        channel_capacity, std::move(starts), session.epoch, session.query_id,
        session.control);
    rt.edge = std::make_unique<Edge>(system_, session_edge_options(stage),
                                     rt.group->instance_ptrs());
    HETEX_RETURN_NOT_OK(
        make_source(stage, *rt.cfg, rt.edge.get(), init_clock, &rt.source));
    rt.group->Start();
    rt.source->Start();
    rt.source->Join();
    rt.group->Join();
    result->stats.Add(rt.group->total_stats());
    HETEX_RETURN_NOT_OK(group_error(*rt.group));

    // A replica is complete when the last of its writers finished.
    std::map<int, QueryResult::BuildDone> done;  // unit key -> completion
    for (int k = 0; k < rt.group->size(); ++k) {
      const WorkerInstance& inst = rt.group->instance(k);
      QueryResult::BuildDone& d = done[HtRegistry::UnitOf(inst.device())];
      d.join_id = join;
      d.unit = inst.device();
      d.dop += 1;
      d.done = sim::MaxT(d.done, inst.clock());
    }
    std::map<int, sim::VTime> ready_at;
    for (const auto& [unit, d] : done) {
      unit_free[unit] = d.done;
      ready_at[unit] = session.epoch + d.done;
      result->builds.push_back(d);
    }
    // Cooperative cancellation/deadline stops leave cleanly-joined build
    // groups with partial hash tables; those must never be published.
    const bool stopped =
        session.control != nullptr &&
        (session.control->cancelled.load(std::memory_order_relaxed) ||
         session.control->deadline_hit.load(std::memory_order_relaxed));
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
  // (built here, or attached: NoteBuildDone above), so CPU sockets need not
  // idle while the GPUs' tables still cross PCIe; the load-balance router
  // steers early fact blocks to the instances already running. Every other
  // fact-side clock — the segmenter, filter and gather stages — starts at the
  // earliest probe unit's start.
  auto unit_ready = [&](sim::DeviceId dev) {
    return sim::MaxT(init_clock, hts.build_done(session.query_id, dev));
  };
  const size_t n_fact = spec_.fact_stages.size();
  std::vector<std::vector<sim::VTime>> starts(n_fact);
  std::map<int, QueryResult::UnitReady> probe_units;  // unit key -> readiness
  for (size_t i = 0; i < n_fact; ++i) {
    const StageSpec& stage = spec_.fact_stages[i];
    if (stage.span.role != PipelineSpan::Role::kProbe) continue;
    for (const auto& dev : stage.instances) {
      starts[i].push_back(unit_ready(dev));
      probe_units[HtRegistry::UnitOf(dev)] = {dev, starts[i].back()};
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
    const StageSpec& stage = spec_.fact_stages[i];
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
  std::vector<CompiledPipeline> pipelines;
  {
    Status st = CompileFactPipelines(compiler, &pipelines);
    if (!st.ok()) return st;
  }

  // Instantiation runs consumer→producer: each group needs its downstream edge,
  // each edge needs its consumer group's instances.
  SocketWorkers fact_workers;
  for (const StageSpec& stage : spec_.fact_stages) {
    CountWorkers(stage, /*concurrent=*/true, &fact_workers);
  }
  DramPhaseGuard dram(&system_->topology(), session, fact_workers,
                      phase_boundary);
  std::vector<RuntimeStage> stages;
  Edge* downstream = nullptr;
  for (size_t i = 0; i < spec_.fact_stages.size(); ++i) {
    const StageSpec& stage = spec_.fact_stages[i];
    RuntimeStage rt;
    rt.cfg = make_config(stage);
    rt.cfg->pipeline = std::move(pipelines[i]);
    rt.cfg->out = downstream;
    if (stage.span.role == PipelineSpan::Role::kFilterStage &&
        downstream != nullptr) {
      rt.cfg->n_buckets = downstream->num_consumers();
    }
    rt.group = std::make_unique<WorkerGroup>(
        system_, stage.instances, FactoryFor(rt.cfg.get()), downstream,
        channel_capacity, std::move(starts[i]), session.epoch,
        session.query_id, session.control);
    rt.edge = std::make_unique<Edge>(system_, session_edge_options(stage),
                                     rt.group->instance_ptrs());
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
