#include "plan/het_plan.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/logging.h"

namespace hetex::plan {

ExprPtr CombineGroupKeys(const std::vector<ExprPtr>& keys) {
  HETEX_CHECK(!keys.empty());
  HETEX_CHECK(keys.size() * kGroupKeyBits <= 63) << "too many group-by keys";
  ExprPtr combined = keys[0];
  for (size_t i = 1; i < keys.size(); ++i) {
    combined = Add(Shl(combined, kGroupKeyBits), keys[i]);
  }
  return combined;
}

Layout ComputeLayout(const ExecPolicy& policy, const sim::Topology& topo) {
  Layout layout;
  layout.routers_present = policy.use_hetexchange;

  std::vector<int> gpus = policy.gpus;
  if (gpus.empty()) {
    for (int g = 0; g < topo.num_gpus(); ++g) gpus.push_back(g);
  }
  int cpu_workers = policy.cpu_workers < 0 ? topo.num_cores() : policy.cpu_workers;

  const bool want_cpu = policy.mode != ExecPolicy::Mode::kGpuOnly;
  const bool want_gpu = policy.mode != ExecPolicy::Mode::kCpuOnly;

  if (!policy.use_hetexchange) {
    // Bare Proteus: exactly one compute unit, no parallelization operators.
    if (want_gpu && !gpus.empty()) {
      layout.probe_instances.push_back(sim::DeviceId::Gpu(gpus[0]));
    } else {
      layout.probe_instances.push_back(sim::DeviceId::Cpu(0));
    }
  } else {
    if (want_cpu) {
      for (int w = 0; w < cpu_workers; ++w) {
        layout.probe_instances.push_back(sim::DeviceId::Cpu(topo.SocketOfCore(w)));
      }
    }
    if (want_gpu) {
      for (int g : gpus) {
        HETEX_CHECK(g >= 0 && g < topo.num_gpus()) << "no such GPU " << g;
        layout.probe_instances.push_back(sim::DeviceId::Gpu(g));
      }
    }
  }
  HETEX_CHECK(!layout.probe_instances.empty()) << "policy selects no compute units";

  // Build units: unique sockets + unique GPUs among the probe instances.
  std::unordered_set<int> sockets;
  std::unordered_set<int> unit_gpus;
  for (const auto& dev : layout.probe_instances) {
    if (dev.is_cpu()) {
      layout.has_cpu = true;
      if (sockets.insert(dev.index).second) {
        layout.build_units.push_back(dev);
      }
    } else {
      layout.has_gpu = true;
      if (unit_gpus.insert(dev.index).second) {
        layout.build_units.push_back(dev);
      }
    }
  }
  // GPU-only plans still need a host socket to drive gather (and builds stream
  // through the GPU itself).
  layout.gather_socket = layout.has_cpu ? layout.probe_instances[0].index
                                        : topo.HostSocketOf(layout.probe_instances[0]);
  return layout;
}

const char* RouterPolicyName(RouterPolicy policy) {
  switch (policy) {
    case RouterPolicy::kRoundRobin: return "round-robin";
    case RouterPolicy::kLoadBalance: return "load-balance";
    case RouterPolicy::kHash: return "hash";
    case RouterPolicy::kBroadcast: return "broadcast";
    case RouterPolicy::kUnion: return "union";
  }
  return "?";
}

const char* HetOpNode::KindName(Kind kind) {
  switch (kind) {
    case Kind::kSegmenter: return "segmenter";
    case Kind::kRouter: return "router";
    case Kind::kMemMove: return "mem-move";
    case Kind::kCpu2Gpu: return "cpu2gpu";
    case Kind::kGpu2Cpu: return "gpu2cpu";
    case Kind::kPack: return "pack";
    case Kind::kHashPack: return "hash-pack";
    case Kind::kUnpack: return "unpack";
    case Kind::kFilter: return "filter";
    case Kind::kProject: return "project";
    case Kind::kJoinBuild: return "hashjoin-build";
    case Kind::kJoinProbe: return "hashjoin-probe";
    case Kind::kReduceLocal: return "reduce(local)";
    case Kind::kGroupByLocal: return "groupby(local)";
    case Kind::kGather: return "gather";
    case Kind::kResult: return "result";
  }
  return "?";
}

namespace {

class PlanBuilder {
 public:
  explicit PlanBuilder(HetPlan* plan) : plan_(plan) {}

  int Add(HetOpNode::Kind kind, sim::DeviceType device, std::string detail,
          std::vector<int> children, int dop = 1) {
    HetOpNode node;
    node.kind = kind;
    node.device = device;
    node.detail = std::move(detail);
    node.children = std::move(children);
    node.dop = dop;
    plan_->nodes.push_back(std::move(node));
    return static_cast<int>(plan_->nodes.size()) - 1;
  }

 private:
  HetPlan* plan_;
};

void PrintNode(const HetPlan& plan, int id, int depth,
               std::unordered_set<int>* seen, std::ostringstream& os) {
  const HetOpNode& n = plan.node(id);
  for (int i = 0; i < depth; ++i) os << "  ";
  os << HetOpNode::KindName(n.kind) << " [" << (n.device == sim::DeviceType::kCpu
                                                    ? "cpu"
                                                    : "gpu");
  if (n.dop != 1) os << " x" << n.dop;
  os << "]";
  if (n.kind == HetOpNode::Kind::kRouter) {
    // Print the stamped policy — the field the lowering executes — so the
    // rendered plan cannot disagree with the runtime graph; keep any detail
    // that is not just a cosmetic restatement of it.
    os << " policy=" << RouterPolicyName(n.policy);
    if (!n.detail.empty() && n.detail.rfind("policy=", 0) != 0) {
      os << " " << n.detail;
    }
  } else if (!n.detail.empty()) {
    os << " " << n.detail;
  }
  if (!seen->insert(id).second) {
    os << "  (^ see node above)\n";
    return;
  }
  os << "\n";
  for (int c : n.children) PrintNode(plan, c, depth + 1, seen, os);
}

}  // namespace

std::string HetPlan::ToString() const {
  std::ostringstream os;
  std::unordered_set<int> seen;
  PrintNode(*this, root, 0, &seen, os);
  return os.str();
}

HetPlan BuildHetPlan(const QuerySpec& spec, const ExecPolicy& policy,
                     const sim::Topology& topo) {
  using Kind = HetOpNode::Kind;
  constexpr auto kCpu = sim::DeviceType::kCpu;
  constexpr auto kGpu = sim::DeviceType::kGpu;

  HetPlan plan;
  plan.channel_capacity = policy.channel_capacity;
  PlanBuilder b(&plan);
  const Layout layout = ComputeLayout(policy, topo);
  const sim::CostModel& cm = topo.cost_model();

  auto stamp_router = [&](int id, RouterPolicy router_policy) {
    HetOpNode& n = plan.node(id);
    n.policy = router_policy;
    n.control_cost = cm.router_control_cost;
    n.init_latency = cm.router_init_latency;
  };
  auto stamp_segmenter = [&](int id, const std::string& table) {
    HetOpNode& n = plan.node(id);
    n.table = table;
    n.block_rows = policy.block_rows;
    n.per_block_cost = cm.segmenter_block_cost;
  };
  auto place = [&](int id, const std::vector<sim::DeviceId>& instances) {
    plan.node(id).placement = instances;
    return id;
  };

  // Per-device-type probe instances: the placement of each branch's span nodes.
  std::vector<sim::DeviceId> cpu_instances;
  std::vector<sim::DeviceId> gpu_instances;
  for (const auto& dev : layout.probe_instances) {
    (dev.is_cpu() ? cpu_instances : gpu_instances).push_back(dev);
  }

  // --- Build subplans: one shared segmenter+broadcast per join, one build chain
  // per participating device unit. A socket's chain runs on all of that
  // socket's probe workers, which fill its single replica together.
  //
  // A hybrid plan filters each filtered dimension once, on its CPU workers,
  // and broadcasts only the survivors' packed key and payload columns: the
  // GPUs' replicas then cross PCIe as survivors instead of raw columns.
  const bool hybrid = layout.routers_present && layout.has_cpu && layout.has_gpu;
  auto build_dop = [&](sim::DeviceId unit) {
    return unit.is_gpu() ? 1
                         : static_cast<int>(std::count(layout.probe_instances.begin(),
                                                       layout.probe_instances.end(),
                                                       unit));
  };
  std::vector<std::vector<int>> cpu_builds;  // per join: build nodes on CPU units
  std::vector<std::vector<int>> gpu_builds;
  for (size_t j = 0; j < spec.joins.size(); ++j) {
    const JoinSpec& join = spec.joins[j];
    const bool filter_stage = hybrid && join.build_filter != nullptr;
    const int seg = b.Add(Kind::kSegmenter, kCpu, join.build_table, {});
    stamp_segmenter(seg, join.build_table);
    int feed = seg;
    if (filter_stage) {
      const int dop = static_cast<int>(cpu_instances.size());
      feed = b.Add(Kind::kRouter, kCpu, "policy=round-robin", {seg}, dop);
      stamp_router(feed, RouterPolicy::kRoundRobin);
      feed = b.Add(Kind::kMemMove, kCpu, "to consumer-local memory", {feed}, dop);
      feed = place(b.Add(Kind::kUnpack, kCpu, "", {feed}, dop), cpu_instances);
      feed = place(b.Add(Kind::kFilter, kCpu, join.build_filter->ToString(),
                         {feed}, dop),
                   cpu_instances);
      feed = place(b.Add(Kind::kPack, kCpu, "survivors' key, payload", {feed}, dop),
                   cpu_instances);
    }
    if (layout.routers_present) {
      feed = b.Add(Kind::kRouter, kCpu, "policy=broadcast(target-id)", {feed});
      stamp_router(feed, RouterPolicy::kBroadcast);
    }
    cpu_builds.emplace_back();
    gpu_builds.emplace_back();
    for (const auto& unit : layout.build_units) {
      int chain = feed;
      if (layout.routers_present) {
        chain = b.Add(Kind::kMemMove, kCpu, "broadcast to " + unit.ToString(),
                      {chain});
      }
      const auto dev_type = unit.type;
      const int dop = build_dop(unit);
      const std::vector<sim::DeviceId> instances(dop, unit);
      if (unit.is_gpu()) {
        // Without routers there is no mem-move below: the launch addresses host
        // data in place over UVA (waives the §3.3 rule-3 mem-move requirement).
        chain = b.Add(Kind::kCpu2Gpu, kGpu,
                      layout.routers_present
                          ? "launch on " + unit.ToString()
                          : "UVA zero-copy launch on " + unit.ToString(),
                      {chain});
        plan.node(chain).uva = !layout.routers_present;
      }
      chain = place(b.Add(Kind::kUnpack, dev_type, "", {chain}, dop), instances);
      if (join.build_filter != nullptr && !filter_stage) {
        chain = place(b.Add(Kind::kFilter, dev_type, join.build_filter->ToString(),
                            {chain}, dop),
                      instances);
      }
      chain = place(b.Add(Kind::kJoinBuild, dev_type,
                          "ht[" + std::to_string(j) + "] on " + unit.ToString(),
                          {chain}, dop),
                    instances);
      plan.node(chain).join_id = static_cast<int>(j);
      (unit.is_gpu() ? gpu_builds : cpu_builds)[j].push_back(chain);
    }
  }

  // --- Probe side: segmenter -> router -> per device-type branch.
  const int fact_seg = b.Add(Kind::kSegmenter, kCpu, spec.fact_table, {});
  stamp_segmenter(fact_seg, spec.fact_table);
  int fact_feed = fact_seg;
  if (layout.routers_present) {
    fact_feed = b.Add(Kind::kRouter, kCpu,
                      policy.load_balance ? "policy=load-balance"
                                          : "policy=round-robin",
                      {fact_seg}, static_cast<int>(layout.probe_instances.size()));
    stamp_router(fact_feed, policy.load_balance ? RouterPolicy::kLoadBalance
                                                : RouterPolicy::kRoundRobin);
  }

  const bool split = policy.split_probe_stage && layout.routers_present;

  // Transport from `feed` onto a branch's device type: mem-move + crossing +
  // unpack (the consumer-side converter sandwich of every exchange).
  auto enter_branch = [&](int feed, sim::DeviceType dev_type, int dop) -> int {
    int chain = feed;
    if (layout.routers_present) {
      chain = b.Add(Kind::kMemMove, kCpu, "to consumer-local memory", {chain}, dop);
    }
    if (dev_type == kGpu) {
      chain = b.Add(Kind::kCpu2Gpu, kGpu,
                    layout.routers_present ? "" : "UVA zero-copy", {chain}, dop);
      plan.node(chain).uva = !layout.routers_present;
    }
    return b.Add(Kind::kUnpack, dev_type, "", {chain}, dop);
  };

  // Join/aggregate/pack tail shared by fused and split (stage B) branches.
  auto build_tail = [&](int chain, sim::DeviceType dev_type,
                        const std::vector<sim::DeviceId>& instances) -> int {
    const int dop = static_cast<int>(instances.size());
    for (size_t j = 0; j < spec.joins.size(); ++j) {
      std::vector<int> children = {chain};
      const auto& builds = dev_type == kGpu ? gpu_builds[j] : cpu_builds[j];
      children.insert(children.end(), builds.begin(), builds.end());
      chain = place(b.Add(Kind::kJoinProbe, dev_type,
                          spec.joins[j].build_table + "." + spec.joins[j].build_key +
                              " = " + spec.joins[j].probe_key,
                          std::move(children), dop),
                    instances);
      plan.node(chain).join_id = static_cast<int>(j);
    }
    chain = place(b.Add(spec.group_by.empty() ? Kind::kReduceLocal
                                              : Kind::kGroupByLocal,
                        dev_type, "", {chain}, dop),
                  instances);
    chain = place(b.Add(Kind::kPack, dev_type, "partials", {chain}, dop), instances);
    if (dev_type == kGpu) {
      chain = b.Add(Kind::kGpu2Cpu, kCpu, "async device->host queue", {chain}, dop);
      plan.node(chain).crossing_latency = cm.task_spawn_latency;
    }
    return chain;
  };

  std::vector<std::vector<sim::DeviceId>*> branches;
  if (!cpu_instances.empty()) branches.push_back(&cpu_instances);
  if (!gpu_instances.empty()) branches.push_back(&gpu_instances);

  // Branch head shared by the fused arm and split stage A: enter the branch
  // off `feed` and apply the fact filter.
  auto branch_head = [&](int feed,
                         const std::vector<sim::DeviceId>& instances) -> int {
    const auto dev_type = instances.front().type;
    const int dop = static_cast<int>(instances.size());
    int chain = place(enter_branch(feed, dev_type, dop), instances);
    if (spec.fact_filter != nullptr) {
      chain = place(b.Add(Kind::kFilter, dev_type, spec.fact_filter->ToString(),
                          {chain}, dop),
                    instances);
    }
    return chain;
  };

  std::vector<int> branch_tops;
  if (!split) {
    for (const auto* instances : branches) {
      const int chain = branch_head(fact_feed, *instances);
      branch_tops.push_back(
          build_tail(chain, instances->front().type, *instances));
    }
  } else {
    // Fig. 1e shape: per-branch filter stage + hash-pack, one shared hash
    // router (the exchange), then per-branch join stages.
    const std::string key =
        spec.joins.empty() ? "tuple-hash" : spec.joins[0].probe_key;
    // Asymmetric per-branch stages: stage A (filter + hash-pack) on the CPU
    // branch only while stage B keeps the full mix — the paper's Fig. 1e with
    // the cheap scan on cores and the joins on accelerators. Falls back to
    // the symmetric split when only one unit class is present.
    const bool asym = policy.stage_a_cpu_only && !cpu_instances.empty() &&
                      !gpu_instances.empty();
    const std::vector<std::vector<sim::DeviceId>*> stage_a_branches =
        asym ? std::vector<std::vector<sim::DeviceId>*>{&cpu_instances}
             : branches;
    std::vector<int> stage_a_tops;
    for (const auto* instances : stage_a_branches) {
      const auto dev_type = instances->front().type;
      const int dop = static_cast<int>(instances->size());
      int chain = branch_head(fact_feed, *instances);
      chain = place(b.Add(Kind::kHashPack, dev_type, "by hash(" + key + ")",
                          {chain}, dop),
                    *instances);
      if (dev_type == kGpu) {
        chain = b.Add(Kind::kGpu2Cpu, kCpu, "", {chain}, dop);
      }
      stage_a_tops.push_back(chain);
    }
    const int hash_router =
        b.Add(Kind::kRouter, kCpu, "policy=hash", std::move(stage_a_tops),
              static_cast<int>(layout.probe_instances.size()));
    stamp_router(hash_router, RouterPolicy::kHash);
    for (const auto* instances : branches) {
      const auto dev_type = instances->front().type;
      const int dop = static_cast<int>(instances->size());
      const int chain =
          place(enter_branch(hash_router, dev_type, dop), *instances);
      branch_tops.push_back(build_tail(chain, dev_type, *instances));
    }
  }

  int top;
  if (layout.routers_present) {
    top = b.Add(Kind::kRouter, kCpu, "policy=union", std::move(branch_tops));
    stamp_router(top, RouterPolicy::kUnion);
    top = b.Add(Kind::kMemMove, kCpu, "partials to gather", {top});
  } else {
    HETEX_CHECK(branch_tops.size() == 1);
    top = branch_tops[0];
  }
  top = place(b.Add(Kind::kGather, kCpu,
                    spec.group_by.empty() ? "global reduce"
                                          : "global group-by merge",
                    {top}),
              {sim::DeviceId::Cpu(layout.gather_socket)});
  plan.root = b.Add(Kind::kResult, kCpu, spec.name, {top});
  return plan;
}

namespace {

bool IsRelational(HetOpNode::Kind k) {
  using Kind = HetOpNode::Kind;
  return k == Kind::kFilter || k == Kind::kProject || k == Kind::kJoinBuild ||
         k == Kind::kJoinProbe || k == Kind::kReduceLocal ||
         k == Kind::kGroupByLocal;
}

bool IsBlockProducer(HetOpNode::Kind k) {
  using Kind = HetOpNode::Kind;
  return k == Kind::kSegmenter || k == Kind::kRouter || k == Kind::kMemMove ||
         k == Kind::kCpu2Gpu || k == Kind::kGpu2Cpu || k == Kind::kPack ||
         k == Kind::kHashPack;
}

}  // namespace

Status ValidatePolicyForTopology(const ExecPolicy& policy,
                                 const sim::Topology& topo) {
  const bool wants_gpu = policy.mode != ExecPolicy::Mode::kCpuOnly;
  if (!wants_gpu) return Status::OK();
  if (topo.num_gpus() == 0 &&
      (policy.mode == ExecPolicy::Mode::kGpuOnly || !policy.gpus.empty())) {
    return Status::InvalidArgument(
        "no-GPU topology: policy requests GPU placement but the topology has "
        "0 GPUs (use a CPU-only policy, or a hybrid with no pinned GPUs)");
  }
  for (int g : policy.gpus) {
    if (g < 0 || g >= topo.num_gpus()) {
      return Status::InvalidArgument(
          "policy names GPU " + std::to_string(g) + " but the topology has " +
          std::to_string(topo.num_gpus()) + " GPU(s)");
    }
  }
  return Status::OK();
}

Status ValidateHetPlan(const HetPlan& plan) {
  using Kind = HetOpNode::Kind;
  // Every rejection names the offending node ("node N (kind)") so a failing
  // hand-mutated plan surfaced through QueryResult::status pinpoints which
  // node broke which rule instead of describing the rule alone.
  const auto node_ref = [](size_t id, const HetOpNode& n) {
    return "node " + std::to_string(id) + " (" +
           std::string(HetOpNode::KindName(n.kind)) + ")";
  };
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const HetOpNode& n = plan.nodes[i];

    // Rule 2: device changes only at crossing operators.
    for (int c : n.children) {
      const HetOpNode& child = plan.node(c);
      if (n.kind == Kind::kJoinProbe && &child != &plan.node(n.children[0])) {
        continue;  // build-side children are separate pipeline networks
      }
      if (child.device != n.device &&
          n.kind != Kind::kCpu2Gpu && n.kind != Kind::kGpu2Cpu) {
        return Status::Internal("rule 2: device transition without a crossing "
                                "operator at " + node_ref(i, n));
      }
    }
    if (n.kind == Kind::kCpu2Gpu || n.kind == Kind::kGpu2Cpu) {
      // Hand-mutated plans can reach here with a childless crossing; rules
      // 2-4 below dereference the input, so reject instead of aborting.
      if (n.children.empty()) {
        return Status::Internal("device crossing " + node_ref(i, n) +
                                " has no input");
      }
    }

    // Stamped placement is what the lowering instantiates: a dop annotation
    // that disagrees with it would make the printed plan lie about the
    // runtime graph's width.
    if (!n.placement.empty() && n.dop != static_cast<int>(n.placement.size())) {
      return Status::Internal(node_ref(i, n) +
                              ": dop disagrees with its placement stamp");
    }
    if (n.kind == Kind::kCpu2Gpu &&
        (n.device != sim::DeviceType::kGpu ||
         plan.node(n.children.at(0)).device != sim::DeviceType::kCpu)) {
      return Status::Internal("rule 2: " + node_ref(i, n) +
                              " must move execution from CPU to GPU");
    }
    if (n.kind == Kind::kGpu2Cpu &&
        (n.device != sim::DeviceType::kCpu ||
         plan.node(n.children.at(0)).device != sim::DeviceType::kGpu)) {
      return Status::Internal("rule 2: " + node_ref(i, n) +
                              " must move execution from GPU to CPU");
    }

    // Rule 1: relational operators consume unpacked, tuple-at-a-time input.
    if (IsRelational(n.kind) && !n.children.empty()) {
      int c = n.children[0];
      size_t steps = 0;
      while (true) {
        if (++steps > plan.nodes.size()) {
          return Status::Internal("plan contains a cycle below " + node_ref(i, n));
        }
        const HetOpNode& child = plan.node(c);
        if (child.kind == Kind::kUnpack || IsRelational(child.kind)) break;
        if (IsBlockProducer(child.kind)) {
          return Status::Internal(
              "rule 1: " + node_ref(i, n) +
              " consumes packed blocks from " +
              node_ref(static_cast<size_t>(c), child) +
              " without an unpack converter");
        }
        if (child.children.empty()) break;
        c = child.children[0];
      }
    }

    // Rule 3: a mem-move fixes data locality before execution crosses to a GPU
    // (unless the crossing explicitly addresses producer memory over UVA).
    if (n.kind == Kind::kCpu2Gpu && !IsUvaCrossing(n)) {
      const HetOpNode& below = plan.node(n.children.at(0));
      if (below.kind != Kind::kMemMove) {
        return Status::Internal(
            "rule 3: " + node_ref(i, n) + " is not marked UVA and has no "
            "mem-move fixing locality below (found " +
            node_ref(static_cast<size_t>(n.children.at(0)), below) + ")");
      }
    }

    // Rule 4: hash routers require hash-homogeneous blocks from a hash-pack.
    // The stamped policy is what the lowering executes; the detail string is
    // checked too so hand-written plans can't dodge the rule cosmetically.
    if (n.kind == Kind::kRouter && (n.policy == RouterPolicy::kHash ||
                                    n.detail.find("hash") != std::string::npos)) {
      for (int c : n.children) {
        const HetOpNode* child = &plan.node(c);
        int child_id = c;
        // A childless gpu2cpu was rejected above when *it* was visited, but it
        // may appear later in the node array than this router: guard the deref.
        if (child->kind == Kind::kGpu2Cpu && !child->children.empty()) {
          child_id = child->children.at(0);
          child = &plan.node(child_id);
        }
        if (child->kind != Kind::kHashPack) {
          return Status::Internal(
              "rule 4: hash router " + node_ref(i, n) + " fed by non-hash-pack "
              "producer " + node_ref(static_cast<size_t>(child_id), *child));
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace hetex::plan
