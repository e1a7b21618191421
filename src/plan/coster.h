#ifndef HETEX_PLAN_COSTER_H_
#define HETEX_PLAN_COSTER_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "plan/het_plan.h"
#include "plan/query_spec.h"
#include "sim/topology.h"
#include "storage/table.h"

namespace hetex::plan {

/// \brief Cardinality and selectivity estimates for one query, derived from
/// table/column statistics.
///
/// Selectivities come from evaluating the query's predicates over a bounded
/// staging-row sample (`Table::SampleRows`); join survival fractions follow
/// from the FK-uniformity of a star schema (filtered build rows / build rows).
/// When staging was dropped, the catalog estimates already carried by the
/// QuerySpec (`build_rows_estimate`) are the fallback.
struct CardinalityEstimate {
  uint64_t fact_rows = 0;
  double fact_selectivity = 1.0;            ///< fact-filter survival fraction
  std::vector<uint64_t> build_input_rows;   ///< per join: build-table rows
  std::vector<uint64_t> build_rows;         ///< per join: filtered build side
  std::vector<double> join_selectivities;   ///< per join: probe survival fraction
  uint64_t output_rows = 0;                 ///< fact rows reaching aggregation

  std::string ToString() const;
};

CardinalityEstimate EstimateCardinalities(const QuerySpec& spec,
                                          const storage::Catalog& catalog);

/// \brief Estimated virtual-time cost of one candidate plan, with the phase
/// breakdown the optimizer records per candidate.
struct CostEstimate {
  sim::VTime total = 0;     ///< end-to-end virtual-time estimate
  sim::VTime init = 0;      ///< router bring-up watermark
  sim::VTime build = 0;     ///< hash-build phase (concurrent build networks)
  sim::VTime probe = 0;     ///< fact-pipeline phase (pipelined stages)
  sim::VTime transfer = 0;  ///< interconnect share of the critical path (diagnostic)
  sim::VTime gather = 0;    ///< final merge of partial aggregates

  std::string ToString() const;
};

/// \brief Prices candidate HetPlans with the same sim::CostModel / DeviceCaps
/// constants the runtime simulation charges.
///
/// The coster prices the stages plan::AnalyzePlan partitions the DAG into —
/// the analysis the lowering instantiates, so both see one execution shape —
/// with the runtime's accounting: per-block work converted via
/// CostModel::WorkCost under the fluid bandwidth-share model, per-block fixed
/// costs (kernel launches, DMA setup, router control), transfers priced hop
/// by hop along the mem-move's own route (sim::Topology::Route) and
/// serialized per link, and policy-dependent block distribution (round-robin
/// assigns blocks by rotation; load-balance greedily to the least-loaded
/// instance — the virtual-time analogue of the runtime's backlog balancing).
/// It is an estimate, not a simulation: cardinalities come from
/// CardinalityEstimate, not from execution.
struct CosterOptions {
  /// Rows per packed intermediate block — MUST be wired to the running
  /// system's block_bytes / 8 (QueryExecutor does). Sizes the block counts of
  /// non-segmenter-fed stages and the staging clamp of GPU-bound scans
  /// (ScanBlockRows); the default only matches a system built with default
  /// 1 MiB blocks.
  uint64_t pack_block_rows = (1ull << 20) / 8;

  /// Per-link backlog, indexed by link id (Topology's one link table: PCIe,
  /// then GPU peer, then inter-socket): virtual seconds of work other
  /// in-flight queries already have queued on each link at this session's
  /// arrival. The scheduler's load signal — candidate plans that lean on a
  /// congested link are charged the queueing delay (DMA mem-moves, UVA kernel
  /// streams and cross-socket reads alike). Missing entries are idle; empty =
  /// idle server (the solo-optimization default).
  std::vector<double> link_backlog;

  /// Per-socket CPU contention: workers whose execution-phase intervals
  /// overlap the candidate's epoch on each socket's DRAM timeline (index =
  /// socket id; QueryExecutor fills it from DramServer::workers_overlapping).
  /// The runtime divides a socket's DRAM aggregate across the intervals a
  /// block actually crosses in virtual time, so the coster adds these to the
  /// candidate's own per-socket counts when pricing CPU fluid shares. Empty =
  /// idle server.
  std::vector<int> socket_backlog_workers;

  /// GPUs usable by candidate plans: the System health registry's surviving
  /// device set at this session's epoch (fault plane: lost devices drop out),
  /// minus any scheduler re-plan exclusions. nullopt = all topology GPUs (the
  /// fault-free default — behavior is byte-identical to pre-fault-plane
  /// optimization). An empty vector forces CPU-only candidates.
  std::optional<std::vector<int>> available_gpus;
};

class PlanCoster {
 public:
  using Options = CosterOptions;

  PlanCoster(const QuerySpec& spec, const storage::Catalog& catalog,
             const sim::Topology& topo, Options options = {});

  /// Estimates the virtual-time cost of `plan`. Fails (instead of guessing)
  /// with AnalyzePlan's or CheckUvaSources' Status on exactly the plans the
  /// lowering rejects.
  Result<CostEstimate> Cost(const HetPlan& plan) const;

  const CardinalityEstimate& cards() const { return cards_; }

 private:
  const QuerySpec* spec_;
  const storage::Catalog* catalog_;
  const sim::Topology* topo_;
  Options options_;
  CardinalityEstimate cards_;
};

}  // namespace hetex::plan

#endif  // HETEX_PLAN_COSTER_H_
