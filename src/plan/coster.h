#ifndef HETEX_PLAN_COSTER_H_
#define HETEX_PLAN_COSTER_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "plan/compiler.h"
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
  /// Fraction of sampled fact rows reaching each conjunct of the fact filter
  /// (plan::Conjuncts), then passing them all; empty when unsampled. Weighs
  /// the conjunct filter the compiler emits (WalkProgram).
  std::vector<double> fact_filter_reach;
  std::vector<uint64_t> build_input_rows;   ///< per join: build-table rows
  std::vector<uint64_t> build_rows;         ///< per join: filtered build side
  /// Per join: fact_filter_reach's counterpart for the build filter.
  std::vector<std::vector<double>> build_filter_reach;
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
  /// Set-up before the stages start: the plan's init_latency (waking parked
  /// workers) plus CosterOptions::pool_wait.
  sim::VTime init = 0;
  sim::VTime build = 0;     ///< hash-build phase (concurrent build networks)
  sim::VTime probe = 0;     ///< fact-pipeline phase (the probe stage)
  sim::VTime transfer = 0;  ///< interconnect share of the critical path (diagnostic)
  sim::VTime gather = 0;    ///< final merge of partial aggregates
  /// The work priced: every priced instance's blocks times its per-block
  /// counters, over builds, build-side filter stages, the probe stage and
  /// the merge.
  sim::CostStats work;

  std::string ToString() const;
};

/// Pass rates of the guards in a compiled program (see WalkProgram).
struct GuardRates {
  /// Fraction of rows reaching each kFilter, in program order: the conjunct
  /// reach of CardinalityEstimate. The first kFilter is reached by every
  /// row; missing entries count 1.
  std::vector<double> filter_reach;
  /// Fraction of rows passing the last kFilter.
  double filter_pass = 1.0;
  /// Per join id: matches per row that probes its hash table.
  std::vector<double> join_matches;
};

/// \brief One input row's expected work in a compiled program: the
/// counters the runtime charges, each weighted by the fraction of rows that
/// reach its instruction.
struct RowWork {
  double ops = 0;
  double near = 0, mid = 0, far = 0;
  double atomics = 0;
  double bytes_read = 0, bytes_written = 0;

  /// The counters of `rows` input rows.
  sim::CostStats Scale(double rows) const;
};

/// \brief Walks `pipeline`'s instructions once. Every instruction costs one
/// op at its reach. The k-th kFilter leaves `filter_reach[k + 1]` of the rows
/// (the last one leaves `filter_pass`); the body of a probe loop, from its
/// kHtProbeInit to its exit pc (Instr::d), runs at the reach before the probe
/// times the join's `join_matches`, and so does its kHtIterNext. A
/// kHtProbeInit, kHtInsert and kGroupByAgg add one access of the size class
/// stamped in Instr::cls; a kHtInsert also adds one atomic and writes one
/// entry of its join's hash-table layout (JoinHtLayout). A kEmit writes the
/// output schema's width and a kLoadCol reads its column's width. The walk
/// follows no other branch: QueryCompiler emits no kJmp or kJmpIfFalse.
RowWork WalkProgram(const CompiledPipeline& pipeline, const GuardRates& rates,
                    const QuerySpec& spec, const storage::Catalog& catalog);

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
/// A block's work is the walk of the program QueryCompiler generates for its
/// span (WalkProgram), so the coster counts what the tiers run.
/// It is an estimate, not a simulation: cardinalities come from
/// CardinalityEstimate, not from execution.
struct CosterOptions {
  /// Rows per packed intermediate block — MUST be wired to the running
  /// system's block_bytes / 8 (QueryExecutor does). Sizes the block counts of
  /// builds fed by a build-side filter stage and the staging clamp of
  /// GPU-bound scans (ScanBlockRows); the default only matches a system built
  /// with default 1 MiB blocks.
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

  /// Virtual seconds this session waits for the System's worker-pool bring-up
  /// to end (core::System::PoolWait at its epoch): 0 for a session anchored
  /// at or after it. Added to every candidate's set-up, as the runtime adds
  /// it to every stage's start.
  double pool_wait = 0;
};

class PlanCoster {
 public:
  using Options = CosterOptions;

  /// Compiles and walks every span program the query's candidates run.
  PlanCoster(const QuerySpec& spec, const storage::Catalog& catalog,
             const sim::Topology& topo, Options options = {});

  /// Estimates the virtual-time cost of `plan`. Fails (instead of guessing)
  /// with AnalyzePlan's or CheckUvaSources' Status on exactly the plans the
  /// lowering rejects, and with NotFound when the catalog lacks a table or
  /// column the query reads.
  Result<CostEstimate> Cost(const HetPlan& plan) const;

  const CardinalityEstimate& cards() const { return cards_; }

 private:
  /// One span program's per-row work and its input column count. Bytes read
  /// are the full width of every input column, except in a build-side
  /// filter stage, which reads each column at its reach: charging the walk's
  /// reach-weighted bytes everywhere moves picks, a recalibration of its own.
  struct SpanWork {
    RowWork row;
    uint64_t cols = 0;
  };

  const QuerySpec* spec_;
  const storage::Catalog* catalog_;
  const sim::Topology* topo_;
  Options options_;
  CardinalityEstimate cards_;
  Status readable_;  ///< NotFound when the programs cannot be compiled
  SpanWork probe_, gather_;
  std::vector<SpanWork> build_, filter_, packed_build_;  ///< per join
};

}  // namespace hetex::plan

#endif  // HETEX_PLAN_COSTER_H_
