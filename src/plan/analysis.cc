#include "plan/analysis.h"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace hetex::plan {

namespace {

using Kind = HetOpNode::Kind;

/// Operators executed inside a worker pipeline (spans).
bool IsSpanKind(Kind k) {
  return k == Kind::kUnpack || k == Kind::kPack || k == Kind::kHashPack ||
         k == Kind::kFilter || k == Kind::kProject || k == Kind::kJoinBuild ||
         k == Kind::kJoinProbe || k == Kind::kReduceLocal ||
         k == Kind::kGroupByLocal || k == Kind::kGather;
}

/// Operators lowered onto edges (and the segmenter, lowered to a source).
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

}  // namespace

const char* StageRoleName(StageRole role) {
  switch (role) {
    case StageRole::kBuild: return "build";
    case StageRole::kFilterStage: return "filter-stage";
    case StageRole::kProbe: return "probe";
    case StageRole::kGather: return "gather";
  }
  return "?";
}

Result<PlanAnalysis> AnalyzePlan(const HetPlan& plan, const sim::Topology& topo) {
  if (plan.root < 0 || plan.root >= static_cast<int>(plan.nodes.size())) {
    return Status::InvalidArgument("plan has no root node");
  }
  PlanAnalysis out;
  for (const auto& n : plan.nodes) {
    if (n.kind == Kind::kRouter) {
      out.init_latency = sim::MaxT(out.init_latency, n.init_latency);
    }
  }

  std::vector<int> build_tops;  // kJoinBuild span tops, discovery order
  std::unordered_set<int> seen_build_tops;

  // Walks consumer→producer from `top` collecting one pipeline span and
  // classifying it by its relational content (kJoinBuild → build, kGather →
  // gather, a pack or hash-pack without probes or aggregation → filter stage,
  // otherwise probe); stops at the first transport operator or producer-side
  // pack, which becomes `feed`.
  auto collect_span = [&](int top, Span* span, int* feed) -> Status {
    bool has_build = false, has_probe = false, has_gather = false;
    bool has_pack = false, has_agg = false;
    int cur = top;
    while (true) {
      const HetOpNode& n = plan.node(cur);
      if (!IsSpanKind(n.kind)) {
        return Status::Internal(std::string("pipeline span contains operator ") +
                                HetOpNode::KindName(n.kind));
      }
      span->nodes.push_back(cur);
      if (span->nodes.size() > plan.nodes.size()) {
        return Status::Internal("pipeline span does not terminate (plan cycle)");
      }
      if (span->instances.empty() && !n.placement.empty()) {
        span->instances = n.placement;
      }
      switch (n.kind) {
        case Kind::kJoinBuild:
          has_build = true;
          span->join_id = n.join_id;
          break;
        case Kind::kJoinProbe:
          has_probe = true;
          // Build-side children are separate pipeline networks.
          for (size_t c = 1; c < n.children.size(); ++c) {
            if (seen_build_tops.insert(n.children[c]).second) {
              build_tops.push_back(n.children[c]);
            }
          }
          break;
        case Kind::kGather:
          has_gather = true;
          break;
        case Kind::kHashPack:
        case Kind::kPack:
          has_pack = true;
          break;
        case Kind::kReduceLocal:
        case Kind::kGroupByLocal:
          has_agg = true;
          break;
        default:
          break;
      }
      if (n.children.empty()) {
        return Status::Internal("pipeline span reaches a leaf without a source");
      }
      const int child = n.children[0];
      const Kind ck = plan.node(child).kind;
      if (IsTransportKind(ck) || IsProducerTop(ck)) {
        *feed = child;
        break;
      }
      cur = child;
    }
    // A pack only makes the span a filter stage when neither a probe nor an
    // aggregation runs in it; a span that probes and packs partials is still
    // a probe pipeline.
    span->role = has_build    ? StageRole::kBuild
                 : has_gather ? StageRole::kGather
                 : (has_pack && !has_probe && !has_agg) ? StageRole::kFilterStage
                                                        : StageRole::kProbe;
    return Status::OK();
  };

  // Walks one decoration chain (mem-move / device crossings) to its exchange
  // terminal (router, segmenter or producer pack), harvesting the crossing
  // flags into the consumer `branch` and the exchange `e` when given.
  // Returns -1 on a dangling chain or cycle. The single walker keeps the
  // consumer-side, producer-side and grouping passes from diverging on what
  // decoration means.
  auto walk_decoration = [&](int from, Span* branch, Exchange* e) -> int {
    int cur = from;
    size_t steps = 0;
    while (IsDecorationKind(plan.node(cur).kind)) {
      const HetOpNode& n = plan.node(cur);
      if (n.kind == Kind::kCpu2Gpu) {
        if (branch != nullptr) {
          branch->gpu_entry = true;
          branch->uva |= IsUvaCrossing(n);
        }
        if (e != nullptr) e->uva |= IsUvaCrossing(n);
      } else if (n.kind == Kind::kGpu2Cpu && e != nullptr) {
        e->crossing_latency = std::max(e->crossing_latency, n.crossing_latency);
      }  // kMemMove: locality is restored on every non-UVA edge regardless
      if (n.children.empty() || ++steps > plan.nodes.size()) return -1;
      cur = n.children[0];
    }
    return cur;
  };

  // Parses the exchange below a stage's branches (`feeds`: one entry per
  // branch): consumer-side decoration → shared router → producer-side
  // decoration → producer span tops / source segmenter.
  auto parse_feed = [&](const std::vector<int>& feeds, Stage* stage) -> Status {
    Exchange& e = stage->in;
    for (size_t b = 0; b < feeds.size(); ++b) {
      const int cur = walk_decoration(feeds[b], &stage->branches[b], &e);
      if (cur < 0) {
        return Status::Internal("dangling or cyclic exchange decoration");
      }
      const HetOpNode& n = plan.node(cur);
      if (n.kind == Kind::kRouter) {
        if (e.router != -1 && e.router != cur) {
          return Status::Internal("stage branches fed by different routers");
        }
        e.router = cur;
        e.policy = n.policy;
        e.control_cost = n.control_cost;
      } else if (n.kind == Kind::kSegmenter) {
        // Bare plan: the source feeds the span directly.
        if (e.segmenter != -1 && e.segmenter != cur) {
          return Status::Internal("exchange fed by multiple segmenters");
        }
        e.segmenter = cur;
      } else if (IsProducerTop(n.kind)) {
        e.producer_tops.push_back(cur);
      } else {
        return Status::Internal(std::string("span fed by non-exchange operator ") +
                                HetOpNode::KindName(n.kind));
      }
    }
    if (e.router != -1) {
      for (int child : plan.node(e.router).children) {
        const int cur = walk_decoration(child, nullptr, &e);
        if (cur < 0) {
          return Status::Internal("dangling or cyclic exchange decoration");
        }
        const HetOpNode& n = plan.node(cur);
        if (n.kind == Kind::kSegmenter) {
          if (e.segmenter != -1 && e.segmenter != cur) {
            return Status::Internal("exchange fed by multiple segmenters");
          }
          e.segmenter = cur;
        } else if (IsSpanKind(n.kind)) {
          e.producer_tops.push_back(cur);
        } else {
          return Status::Internal(
              std::string("router fed by non-pipeline operator ") +
              HetOpNode::KindName(n.kind));
        }
      }
    }
    if (e.segmenter != -1 && !e.producer_tops.empty()) {
      return Status::Internal("exchange mixes a segmenter with pipeline producers");
    }
    return Status::OK();
  };

  // Checks the branches of a parsed stage and concatenates their placements.
  // Hand-mutated plans can stamp placements the server does not have, or
  // branches that disagree on what the merged group compiles (it compiles
  // branch 0's span, so the others' stamps would be silently ignored).
  auto finish_stage = [&](Stage* stage) -> Status {
    const Span& first = stage->span();
    for (const Span& branch : stage->branches) {
      if (branch.instances.empty()) {
        return Status::Internal("pipeline span without a placement stamp");
      }
      for (const auto& dev : branch.instances) {
        const int limit = dev.is_cpu() ? topo.num_sockets() : topo.num_gpus();
        if (dev.index < 0 || dev.index >= limit) {
          return Status::InvalidArgument(
              "placement names device " + dev.ToString() + " but the server has " +
              std::to_string(limit) + " " + (dev.is_cpu() ? "socket(s)" : "GPU(s)"));
        }
      }
      if (branch.role != first.role || branch.join_id != first.join_id) {
        return Status::Internal("exchange feeds inconsistently stamped spans");
      }
      stage->instances.insert(stage->instances.end(), branch.instances.begin(),
                              branch.instances.end());
    }
    std::map<sim::DeviceId, int> next;  // unit -> ordinal
    for (const auto& dev : stage->instances) {
      stage->cores.push_back({dev, next[dev]++});
    }
    return Status::OK();
  };

  // Collects the stage whose branches start at `tops`, and its exchange.
  auto collect_stage = [&](const std::vector<int>& tops, Stage* stage) -> Status {
    std::vector<int> feeds;
    for (int top : tops) {
      Span span;
      int feed = -1;
      HETEX_RETURN_NOT_OK(collect_span(top, &span, &feed));
      stage->branches.push_back(std::move(span));
      feeds.push_back(feed);
    }
    HETEX_RETURN_NOT_OK(parse_feed(feeds, stage));
    return finish_stage(stage);
  };

  // --- Fact side: the result's gather, fed by the probe stage's partials,
  // which reads the fact table through its segmenter.
  const HetOpNode& root = plan.node(plan.root);
  if (root.kind != Kind::kResult || root.children.size() != 1) {
    return Status::InvalidArgument("plan root must be a single-input result node");
  }
  HETEX_RETURN_NOT_OK(collect_stage({root.children[0]}, &out.gather));
  if (out.gather.span().role != StageRole::kGather) {
    return Status::Internal("fact chain must terminate in a gather stage");
  }
  if (out.gather.in.segmenter != -1) {
    return Status::Unsupported("gather stage must consume probe partials");
  }
  if (out.gather.in.producer_tops.empty()) {
    return Status::Internal("exchange with no producers");
  }
  HETEX_RETURN_NOT_OK(collect_stage(out.gather.in.producer_tops, &out.probe));
  if (out.probe.span().role != StageRole::kProbe) {
    return Status::Unsupported("gather stage must consume probe partials");
  }
  if (out.probe.in.segmenter == -1) {
    return Status::Unsupported(
        "probe stage fed by a packed producer: a fact chain is one probe stage "
        "reading its table, then the gather");
  }

  // --- Build networks: group the kJoinBuild spans by their feeding exchange
  // (all per-unit replicas of one join share its broadcast router).
  struct BuildGroup {
    Stage stage;
    std::vector<int> feeds;
  };
  std::vector<int> group_keys;
  std::unordered_map<int, BuildGroup> groups;
  for (size_t t = 0; t < build_tops.size(); ++t) {  // collect_span may append
    Span span;
    int feed = -1;
    HETEX_RETURN_NOT_OK(collect_span(build_tops[t], &span, &feed));
    const int key = walk_decoration(feed, nullptr, nullptr);
    if (key < 0) return Status::Internal("build span with a dangling feed");
    if (groups.find(key) == groups.end()) group_keys.push_back(key);
    BuildGroup& g = groups[key];
    g.stage.branches.push_back(std::move(span));
    g.feeds.push_back(feed);
  }
  for (int key : group_keys) {
    BuildGroup& g = groups[key];
    HETEX_RETURN_NOT_OK(parse_feed(g.feeds, &g.stage));
    HETEX_RETURN_NOT_OK(finish_stage(&g.stage));
    if (g.stage.span().role != StageRole::kBuild) {
      return Status::Internal("join-probe child span is not a build pipeline");
    }
    if (!g.stage.in.producer_tops.empty()) {
      // A build-side filter stage: its packed survivors feed the build's
      // broadcast, and it reads the dimension through its own segmenter.
      Stage filter;
      HETEX_RETURN_NOT_OK(collect_stage(g.stage.in.producer_tops, &filter));
      for (Span& span : filter.branches) span.join_id = g.stage.span().join_id;
      if (filter.span().role != StageRole::kFilterStage ||
          filter.in.segmenter == -1) {
        return Status::Unsupported(
            "build stage fed by a packed producer other than a segmenter-fed "
            "filter stage");
      }
      // Each dimension row must reach one filter instance: a broadcast would
      // pack (and every replica insert) each survivor once per instance.
      if (filter.in.policy == RouterPolicy::kBroadcast) {
        return Status::InvalidArgument(
            "build-side filter stage of join " +
            std::to_string(g.stage.span().join_id) +
            " is fed by a broadcast: every instance would pack every row");
      }
      g.stage.filter_stage = static_cast<int>(out.build_filter_stages.size());
      out.build_filter_stages.push_back(std::move(filter));
    } else if (g.stage.in.segmenter == -1) {
      return Status::Internal("build stage without a source segmenter");
    }
    out.build_stages.push_back(std::move(g.stage));
  }

  // Broadcast hash joins replicate one table per device unit, built by one
  // build chain (branch): a placement that leaves a probe unit without its
  // replica — or builds two replicas on one unit — is rejected here.
  std::map<int, std::set<sim::DeviceId>> build_units;  // join -> replica units
  for (const Stage& stage : out.build_stages) {
    std::set<sim::DeviceId>& units = build_units[stage.span().join_id];
    for (const Span& branch : stage.branches) {
      std::set<sim::DeviceId> mine;
      for (const auto& dev : branch.instances) {
        if (mine.insert(dev).second && !units.insert(dev).second) {
          return Status::InvalidArgument(
              "join " + std::to_string(stage.span().join_id) +
              " builds two hash-table replicas on unit " + dev.ToString());
        }
      }
    }
  }
  std::set<int> probed;
  for (const Span& branch : out.probe.branches) {
    for (int id : branch.nodes) {
      const HetOpNode& n = plan.node(id);
      if (n.kind == Kind::kJoinProbe) probed.insert(n.join_id);
    }
  }
  for (int j : probed) {
    for (const auto& dev : out.probe.instances) {
      if (build_units[j].count(dev) == 0) {
        return Status::InvalidArgument(
            "probe instance on " + dev.ToString() + " has no join-" +
            std::to_string(j) +
            " hash-table replica (build placement does not cover its unit)");
      }
    }
  }

  // A UVA edge skips the mem-move for every consumer of the exchange, so its
  // blocks must stay host-addressable: GPU-placed producers would emit
  // device-resident blocks no other unit can address in place.
  auto check_uva_feed = [](const Stage& stage, const Stage& producer) {
    if (!stage.in.uva) return Status::OK();
    for (const auto& dev : producer.instances) {
      if (dev.is_gpu()) {
        return Status::InvalidArgument(
            "UVA exchange fed by GPU-placed producer " + dev.ToString() +
            ": device-resident blocks cannot be addressed in place");
      }
    }
    return Status::OK();
  };
  HETEX_RETURN_NOT_OK(check_uva_feed(out.gather, out.probe));
  for (const Stage& stage : out.build_stages) {
    if (stage.filter_stage < 0) continue;
    HETEX_RETURN_NOT_OK(
        check_uva_feed(stage, out.build_filter_stages[stage.filter_stage]));
  }
  return out;
}

uint64_t ScanBlockRows(const HetOpNode& segmenter,
                       const std::vector<sim::DeviceId>& instances,
                       const storage::Table* table, const sim::Topology& topo,
                       uint64_t staging_rows) {
  const uint64_t stamped =
      segmenter.block_rows > 0 ? segmenter.block_rows : ExecPolicy{}.block_rows;
  bool gpu_bound = std::any_of(instances.begin(), instances.end(),
                               [](sim::DeviceId dev) { return dev.is_gpu(); });
  if (!gpu_bound && table != nullptr) {
    gpu_bound = std::any_of(table->chunks().begin(), table->chunks().end(),
                            [&](const storage::Table::Chunk& c) {
                              return topo.mem_node(c.node).is_gpu;
                            });
  }
  return gpu_bound ? std::min(stamped, std::max<uint64_t>(1, staging_rows))
                   : stamped;
}

Status CheckUvaSources(const HetPlan& plan, const PlanAnalysis& analysis,
                       const storage::Catalog& catalog, const sim::Topology& topo) {
  auto check = [&](const Stage& stage) {
    if (!stage.in.uva || stage.in.segmenter < 0) return Status::OK();
    const std::string& name = plan.node(stage.in.segmenter).table;
    const storage::Table* table = catalog.Get(name);
    if (table == nullptr) return Status::OK();  // the source reports it
    for (const auto& chunk : table->chunks()) {
      for (const auto& dev : stage.instances) {
        if (topo.CanAccess(dev, chunk.node) != sim::MemAccess::kNone) continue;
        return Status::InvalidArgument(
            "UVA exchange: " + dev.ToString() + " cannot address table '" +
            name + "' in place on " + topo.mem_node(chunk.node).owner.ToString() +
            " memory (a UVA edge has no mem-move)");
      }
    }
    return Status::OK();
  };
  for (const auto* stages : {&analysis.build_filter_stages, &analysis.build_stages}) {
    for (const Stage& stage : *stages) HETEX_RETURN_NOT_OK(check(stage));
  }
  return check(analysis.probe);
}

uint64_t TableRows(const storage::Table& t) {
  if (t.rows() > 0) return t.rows();
  uint64_t placed = 0;
  for (const auto& chunk : t.chunks()) placed += chunk.rows;
  return placed;
}

uint64_t JoinHtCapacity(const JoinSpec& join, const storage::Catalog& catalog) {
  if (join.build_rows_estimate > 0) {
    return join.build_rows_estimate * 13 / 10 + 64;
  }
  const storage::Table* table = catalog.Get(join.build_table);
  return std::max<uint64_t>(1, table != nullptr ? TableRows(*table) : 0);
}

IntCode ColumnCode(const storage::Table* table, const std::string& column) {
  return table != nullptr && table->FindColumn(column) >= 0
             ? table->column(column).code()
             : IntCode{8, 0};
}

uint32_t ColumnWidth(const storage::Table* table, const std::string& column) {
  return ColumnCode(table, column).width;
}

jit::JoinHashTable::Layout JoinHtLayout(const JoinSpec& join,
                                        const storage::Catalog& catalog) {
  const storage::Table* table = catalog.Get(join.build_table);
  std::vector<IntCode> payload;
  for (const auto& col : join.payload) payload.push_back(ColumnCode(table, col));
  return jit::JoinHashTable::Layout(JoinHtCapacity(join, catalog),
                                    ColumnCode(table, join.build_key), payload);
}

uint64_t JoinHtBytes(const JoinSpec& join, const storage::Catalog& catalog) {
  return JoinHtLayout(join, catalog).Bytes();
}

bool JoinKeyUnique(const JoinSpec& join, const storage::Catalog& catalog) {
  const storage::Table* table = catalog.Get(join.build_table);
  const int key = table != nullptr ? table->FindColumn(join.build_key) : -1;
  return key >= 0 && table->column(key).unique();
}

std::vector<int> ProbeOrder(const QuerySpec& spec, const storage::Catalog& catalog,
                            const sim::CostModel& cost_model) {
  std::vector<double> rank(spec.joins.size(),
                           std::numeric_limits<double>::infinity());
  for (size_t j = 0; j < spec.joins.size(); ++j) {
    const JoinSpec& join = spec.joins[j];
    const storage::Table* table = catalog.Get(join.build_table);
    const uint64_t rows = table != nullptr ? TableRows(*table) : 0;
    if (join.build_rows_estimate == 0 || rows == 0) continue;
    const double s = static_cast<double>(join.build_rows_estimate) /
                     static_cast<double>(rows);
    if (s >= 1.0) continue;
    rank[j] = cost_model.RandomAccessCost(cost_model.cpu, JoinHtBytes(join, catalog)) /
              (1.0 - s);
  }
  std::vector<int> order(spec.joins.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return rank[a] < rank[b]; });
  return order;
}

}  // namespace hetex::plan
