#ifndef HETEX_PLAN_HET_PLAN_H_
#define HETEX_PLAN_HET_PLAN_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "plan/query_spec.h"
#include "sim/topology.h"

namespace hetex::plan {

/// \brief Instance placement decided by the heterogeneity-aware planner.
struct Layout {
  /// One entry per probe-stage worker instance (CPU instances are interleaved
  /// across sockets, as the paper does for scalability runs).
  std::vector<sim::DeviceId> probe_instances;

  /// Device units that need a hash-table replica for broadcast joins: one per
  /// participating CPU socket plus one per participating GPU.
  std::vector<sim::DeviceId> build_units;

  /// Socket hosting the merge of partial aggregates (the gather instances).
  int gather_socket = 0;

  bool routers_present = true;   ///< false in bare (no-HetExchange) mode
  bool has_gpu = false;
  bool has_cpu = false;
};

/// Computes the layout for a policy on a topology.
Layout ComputeLayout(const ExecPolicy& policy, const sim::Topology& topo);

/// Data-flow policy of a kRouter node (the paper's exchange flavours, §3.1).
enum class RouterPolicy {
  kRoundRobin,   ///< strict rotation
  kLoadBalance,  ///< least virtual-time backlog
  kHash,         ///< consumer owns the block's hash partition
  kBroadcast,    ///< every consumer receives every block
};

const char* RouterPolicyName(RouterPolicy policy);

/// \brief Node of the explicit heterogeneity-aware operator DAG (the paper's
/// Fig. 1e / Fig. 2b artifact).
///
/// The DAG is the *executable* artifact: besides the printable/validatable
/// structure, BuildHetPlan stamps every placement, degree-of-parallelism and
/// cost parameter the lowering needs, so core::GraphBuilder can instantiate the
/// runtime graph from the plan alone (no side-channel Layout consultation).
struct HetOpNode {
  enum class Kind {
    kSegmenter, kRouter, kMemMove, kCpu2Gpu, kGpu2Cpu, kPack, kHashPack, kUnpack,
    kFilter, kProject, kJoinBuild, kJoinProbe, kReduceLocal, kGroupByLocal,
    kGather, kResult,
  };

  Kind kind;
  std::string detail;          ///< policy / predicate / table, free-form
  sim::DeviceType device = sim::DeviceType::kCpu;
  int dop = 1;
  std::vector<int> children;   ///< indices into HetPlan::nodes

  // --- Lowering parameters, stamped by BuildHetPlan. ---
  RouterPolicy policy = RouterPolicy::kRoundRobin;  ///< kRouter
  /// Concrete device instances executing this operator (relational/pack span
  /// nodes and kGather). One entry per parallel instance.
  std::vector<sim::DeviceId> placement;
  std::string table;           ///< kSegmenter: catalog table to segment
  int join_id = -1;            ///< kJoinBuild / kJoinProbe
  /// kCpu2Gpu: the crossing addresses producer memory in place over UVA
  /// (no mem-move below; waives the §3.3 rule-3 requirement).
  bool uva = false;
  uint64_t block_rows = 0;     ///< kSegmenter: block granularity in tuples
  double control_cost = 0;     ///< kRouter: control-plane cost per message
  double crossing_latency = 0; ///< kGpu2Cpu: device->host task-spawn latency
  /// kRouter: the query's set-up before its stages start — waking the
  /// System's parked worker threads (task_spawn_latency). The pool's own
  /// bring-up is paid once per System (core::System::bring_up).
  double init_latency = 0;
  double per_block_cost = 0;   ///< kSegmenter: per-block segmentation cost

  static const char* KindName(Kind kind);
};

/// True when a kCpu2Gpu crossing addresses producer memory in place over UVA:
/// its stamped `uva` flag (the detail string is only printed). Shared by the
/// §3.3 rule-3 waiver and the lowering so the two can never disagree on what
/// counts as a UVA crossing.
inline bool IsUvaCrossing(const HetOpNode& n) {
  return n.kind == HetOpNode::Kind::kCpu2Gpu && n.uva;
}

/// The heterogeneity-aware plan: a DAG of HetOpNodes rooted at kResult.
struct HetPlan {
  std::vector<HetOpNode> nodes;
  int root = -1;
  /// Router queue depth (backpressure) of every lowered edge.
  uint64_t channel_capacity = 16;

  const HetOpNode& node(int i) const { return nodes.at(i); }
  HetOpNode& node(int i) { return nodes.at(i); }
  std::string ToString() const;
};

/// Builds the heterogeneity-aware plan for a query under a policy (the paper's
/// physical-plan -> HetExchange-augmented-plan step, inserted heuristically as in
/// the paper's prototype, §5).
HetPlan BuildHetPlan(const QuerySpec& spec, const ExecPolicy& policy,
                     const sim::Topology& topo);

/// Structural validation of the §3.3 converter rules:
///  1. relational operators only consume unpacked inputs (an Unpack lies between
///     any block-producing operator and the relational section of its pipeline);
///  2. every CPU->GPU (GPU->CPU) boundary is a Cpu2Gpu (Gpu2Cpu) operator;
///  3. a MemMove precedes every device-crossing into a GPU pipeline (relational
///     operators must be data-location agnostic);
///  4. hash-policy routers are fed by hash-packs (block hash-homogeneity),
///     and a gather with several merge instances by a hash router.
Status ValidateHetPlan(const HetPlan& plan);

/// Checks that a policy's device placement exists on the topology before the
/// lowering asserts on it: a GPU-placed policy on a no-GPU topology (or one
/// naming a GPU index past the fabric) is a named InvalidArgument the caller
/// can surface on the QueryResult, not a layout abort.
Status ValidatePolicyForTopology(const ExecPolicy& policy,
                                 const sim::Topology& topo);

}  // namespace hetex::plan

#endif  // HETEX_PLAN_HET_PLAN_H_
