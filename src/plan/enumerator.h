#ifndef HETEX_PLAN_ENUMERATOR_H_
#define HETEX_PLAN_ENUMERATOR_H_

#include <string>
#include <vector>

#include "plan/het_plan.h"
#include "plan/query_spec.h"
#include "sim/topology.h"

namespace hetex::plan {

/// One candidate plan: the policy seed that produced it plus the validated
/// HetPlan the lowering can run as-is.
struct PlanCandidate {
  std::string label;   ///< e.g. "het/fused/lb/b4096"
  ExecPolicy policy;   ///< the BuildHetPlan seed
  HetPlan plan;
};

/// \brief Enumerates the candidate space the lowering already supports.
///
/// BuildHetPlan is the single enumeration seed: every candidate is a policy
/// variation run through it, so the search space is — by construction —
/// exactly the set of plans GraphBuilder accepts. Every candidate's fact side
/// is one fused probe stage feeding the gather; the dimensions searched,
/// within the degrees of freedom `base` leaves open, are:
///   - per-branch placement: CPU-only / GPU-only / hybrid (restricted by
///     `base.mode` and the topology's device inventory),
///   - per-exchange router policy: load-balance vs round-robin,
///   - CPU degree of parallelism: full vs half workers,
///   - segmentation granularity: base block_rows and a 4× coarser variant,
///   - per-join build placement: the GPU side pinned to each single GPU of
///     the fabric (multi-GPU topologies; the coster prices the asymmetric
///     PCIe/peer-link traffic of each pinning).
///
/// No split shape (a filter stage and a hash exchange before the joins) is
/// searched: with a full hash-table replica on every unit, its exchange
/// would partition no state.
///
/// A base policy with `use_hetexchange == false` pins the bare single-unit
/// plan (no search: the shape has no exchanges to vary). Every returned
/// candidate passed ValidateHetPlan.
///
/// `available_gpus`, when non-null, restricts GPU placement to that device
/// subset (the fault plane's surviving-device set): GPU/hybrid candidates pin
/// their policies to exactly those GPUs, and an empty set degrades the space
/// to CPU-only shapes. Null = all topology GPUs.
std::vector<PlanCandidate> EnumeratePlans(
    const QuerySpec& spec, const ExecPolicy& base, const sim::Topology& topo,
    const std::vector<int>* available_gpus = nullptr);

}  // namespace hetex::plan

#endif  // HETEX_PLAN_ENUMERATOR_H_
